import numpy as np
import pytest

from stgnn.model import init_params, random_features
from stgnn.significance import TopMTable, significance_label
from stgnn.temporal_graph import Event, from_events
from stgnn.training import (
    AdamState,
    TrainConfig,
    TrainSample,
    adam_step,
    build_positive_samples,
    named_rng,
    train,
)
from stgnn.training import (
    _capture_chunk,
    _draw_negative,
    _forward_backward,
    _scatter_rows,
    _valid_negative,
)
from conftest import random_stream, table_list, tied_stream
from reference_model import (
    BatchTree,
    backward,
    batch_loss,
    cosine,
    finite_difference,
    forward_node,
    kink_margin,
    max_relative_error,
    sample_negatives,
    significance_loss,
    small_instance,
    tree_from_graph,
)


class TestGradients:
    def test_finite_difference_check(self):
        """Analytic vs central-difference gradients on random small instances."""
        checked = 0
        seed = 0
        while checked < 6:
            seed += 1
            g, feats, params, cfg, batch = small_instance(seed)
            if kink_margin(batch, g, feats, params, cfg) < 1e-3:
                continue  # perturbation would cross a ReLU/hinge kink
            ana = backward(batch, g, feats, params, cfg)
            num = finite_difference(batch, g, feats, params, cfg)
            assert max_relative_error(ana, num) < 1e-4, f"seed {seed}"
            checked += 1

    def test_positive_aligned_pair_is_stationary_in_cos(self, rng):
        # (1 - cos) * s has zero cosine-gradient where cos = 1: identical
        # embeddings (same node twice would be illegal, so use symmetric
        # features) yield tiny gradients through the cosine path only.
        g = from_events([Event(0, 1, 0.0), Event(0, 1, 1.0)], num_nodes=2)
        feats = np.ones((2, 3)) * 0.5  # identical features -> identical embeddings
        params = init_params(np.random.default_rng(3), 3, 3, 3, 2)
        cfg = TrainConfig(m=2, d0=3, d1=3, d2=3)
        batch = [TrainSample(0, 1, 2.0, True, 2)]
        grads = backward(batch, g, feats, params, cfg)
        for _, a in grads.arrays():
            np.testing.assert_allclose(a, 0.0, atol=1e-10)

    def test_zero_scores_give_no_beta_gradient(self):
        # with every score 0, phi is uniform whatever beta is
        g, feats, params, cfg, batch = small_instance(11)
        fb = tree_from_graph(batch, g, cfg)
        assert np.any(backward(batch, g, feats, params, cfg).beta != 0.0)
        fb.scores = np.zeros_like(fb.scores)
        _, grads = _forward_backward(fb, params, feats)
        np.testing.assert_array_equal(grads.beta, 0.0)
        assert all(np.any(a != 0.0) for name, a in grads.arrays() if name != "beta")

    def test_beta_gradient_matches_central_differences(self):
        checked, seed, h = 0, 0, 1e-5
        while checked < 4:
            seed += 1
            g, feats, params, cfg, batch = small_instance(seed)
            if kink_margin(batch, g, feats, params, cfg) < 1e-3:
                continue  # perturbation would cross a ReLU/hinge kink
            ana = backward(batch, g, feats, params, cfg).beta
            num = np.zeros_like(params.beta)
            for i in range(params.beta.shape[0]):
                old = params.beta[i]
                params.beta[i] = old + h
                lp = batch_loss(batch, g, feats, params, cfg)
                params.beta[i] = old - h
                lm = batch_loss(batch, g, feats, params, cfg)
                params.beta[i] = old
                num[i] = (lp - lm) / (2.0 * h)
            assert np.any(num != 0.0)
            np.testing.assert_allclose(ana, num, rtol=1e-4, atol=1e-9, err_msg=f"seed {seed}")
            checked += 1

    def test_empty_batch_rejected(self):
        g, feats, params, cfg, _ = small_instance(1)
        with pytest.raises(ValueError):
            backward([], g, feats, params, cfg)


class TestEngineConsistency:
    def test_batch_loss_matches_reference_forward(self, rng):
        g = random_stream(rng, n_nodes=10, n_events=150)
        cfg = TrainConfig(m=3, d0=4, d1=3, d2=3)
        feats = random_features(10, 4, rng)
        params = init_params(rng, 4, 3, 3, 3)
        params.beta = rng.normal(size=3)
        delta = 0.6
        batch = []
        for e in g.events[60:70]:
            batch.append(
                TrainSample(e.u, e.v, e.t, True, significance_label(g, e.u, e.v, e.t, delta))
            )
            w = int(rng.choice([x for x in range(10) if x not in (e.u, e.v)]))
            batch.append(TrainSample(e.u, w, e.t, False, 0))
        s_bar = float(np.mean([s.s_delta for s in batch if s.positive]))

        manual = np.mean(
            [
                significance_loss(
                    forward_node(g, feats, params, s.u, s.t, m=cfg.m),
                    forward_node(g, feats, params, s.v, s.t, m=cfg.m),
                    s.s_delta,
                    s_bar,
                )
                for s in batch
            ]
        )
        assert batch_loss(batch, g, feats, params, cfg) == pytest.approx(manual, rel=1e-12)

    def test_loss_nonnegative(self, rng):
        for seed in range(5):
            g, feats, params, cfg, batch = small_instance(seed + 50)
            assert batch_loss(batch, g, feats, params, cfg) >= 0.0

    def test_s_bar_is_exact_batch_mean(self):
        g, feats, params, cfg, batch = small_instance(4)
        fb = tree_from_graph(batch, g, cfg)
        pos_sd = [s.s_delta for s in batch if s.positive]
        expected = float(np.mean(pos_sd))
        np.testing.assert_array_equal(fb.weight[~fb.positive], expected)
        np.testing.assert_array_equal(
            fb.weight[fb.positive], [float(s.s_delta) for s in batch if s.positive]
        )


def chunks_with_negatives(g, cfg, delta, seed=3):
    """Per chunk: the sample columns of _capture_chunk and the same
    samples as a list (each positive, then its negative)."""
    rng = named_rng(seed, "neg")
    positives = build_positive_samples(g, delta)
    for start in range(0, len(positives), cfg.batch_size):
        chunk = positives[start : start + cfg.batch_size]
        negs = [_draw_negative(g, p, rng, delta, 100) for p in chunk]
        negs[1] = None  # a positive left without a negative
        cols = (
            np.array([p.u for p in chunk]),
            np.array([p.v for p in chunk]),
            np.array([p.t for p in chunk]),
            np.array([p.s_delta for p in chunk], dtype=np.float64),
            np.array([-1 if n is None else n.v for n in negs]),
        )
        samples = [s for p, n in zip(chunk, negs) for s in (p, n) if s is not None]
        yield cols, samples


def assert_same_batch(got, want, score_rtol=0.0):
    for name in ("owner", "nbrs", "mask", "root_entry", "root_nbrs", "su", "sv", "positive", "weight"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    np.testing.assert_allclose(got.scores, want.scores, rtol=score_rtol, atol=0.0)


class TestCaptureChunk:
    def test_table_capture_matches_pure_route_oracle(self):
        cfg = TrainConfig(m=4, batch_size=32)
        g = tied_stream(cfg.batch_size)
        pos_t = [e.t for e in g.events]
        assert pos_t[cfg.batch_size - 1] == pos_t[cfg.batch_size]
        table = TopMTable.build(g, cfg.m, cfg.lam)
        n_chunks = 0
        for cols, samples in chunks_with_negatives(g, cfg, delta=0.3):
            got = _capture_chunk(*cols, cfg.m, table.lookup)
            assert_same_batch(got, tree_from_graph(samples, g, cfg), score_rtol=1e-12)
            n_chunks += 1
        assert n_chunks == 4

    def test_random_table_capture_matches_per_node_lists(self):
        # the batch of the ablated variants' table equals the one the
        # entry-at-a-time oracle builds from the same rows, taken a node at
        # a time
        cfg = TrainConfig(m=3, batch_size=32, use_significant_selection=False)
        g = tied_stream(cfg.batch_size)
        table = TopMTable.build(g, cfg.m, cfg.lam, rng=np.random.default_rng(4))
        row = lambda u, t, m: table_list(table, u, t)
        n_chunks = 0
        for cols, samples in chunks_with_negatives(g, cfg, delta=0.3):
            got = _capture_chunk(*cols, cfg.m, table.lookup)
            tree = BatchTree(cfg.m, row)
            for s in samples:
                tree.add_sample(tree.add_root(s.u, s.t), tree.add_root(s.v, s.t), s.positive, s.s_delta)
            assert_same_batch(got, tree.finalize())
            n_chunks += 1
        assert n_chunks == 4


class TestScatterRows:
    def test_bitwise_equal_to_add_at(self, rng):
        for n_rows, n_targets in ((1, 1), (50, 3), (400, 40), (0, 5)):
            index = rng.integers(n_targets, size=n_rows)
            rows = rng.normal(size=(n_rows, 6)) * rng.choice([1e-8, 1.0, 1e8], size=(n_rows, 1))
            want = np.zeros((n_targets, 6))
            np.add.at(want, index, rows)
            got = _scatter_rows(index, rows, n_targets)
            assert got.shape == want.shape
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


class TestSignificanceLoss:
    def test_perfect_alignment_positive(self):
        h = np.array([1.0, 2.0])
        assert significance_loss(h, h, s_delta=5, s_bar=1.0) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_positive(self):
        loss = significance_loss(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 2, 1.0)
        assert loss == pytest.approx(2.0)

    def test_negative_hinge(self):
        a, b = np.array([1.0, 0.0]), np.array([1.0, 1.0])  # cos = 0.7071
        loss = significance_loss(a, b, 0, s_bar=2.0)
        assert loss == pytest.approx(2.0 / np.sqrt(2.0))
        # anti-aligned negatives cost nothing
        assert significance_loss(a, -a, 0, s_bar=2.0) == 0.0

    def test_negative_cos_half(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.5, np.sqrt(3) / 2.0])  # cos = 0.5
        assert significance_loss(a, b, 0, s_bar=2.0) == pytest.approx(1.0)

    def test_invalid_s_bar(self):
        with pytest.raises(ValueError):
            significance_loss(np.ones(2), np.ones(2), 0, s_bar=0.0)


class TestAdam:
    def test_zero_grad_no_change(self, rng):
        params = init_params(rng, 3, 2, 2, 2)
        before = params.copy()
        state = AdamState.for_params(params)
        adam_step(params, params.zeros_like(), state, lr=0.05)
        for (_, a), (_, b) in zip(params.arrays(), before.arrays()):
            np.testing.assert_array_equal(a, b)
        assert state.step == 1

    def test_first_step_is_signed_lr(self, rng):
        params = init_params(rng, 3, 2, 2, 2)
        before = params.copy()
        grads = params.zeros_like()
        grads.w1_self[:] = 0.5
        grads.beta[:] = -2.0
        state = AdamState.for_params(params)
        adam_step(params, grads, state, lr=0.01)
        # first bias-corrected step is -lr * g / (|g| + eps) ~ -lr * sign(g)
        np.testing.assert_allclose(
            before.w1_self - params.w1_self, 0.01, rtol=1e-6
        )
        np.testing.assert_allclose(params.beta - before.beta, 0.01, rtol=1e-6)

    def test_two_step_scalar_trace(self):
        params = init_params(np.random.default_rng(0), 1, 1, 1, 1)
        params.beta[:] = 1.0
        state = AdamState.for_params(params)
        grads = params.zeros_like()
        grads.beta[:] = 0.5

        # hand trace of two identical steps on the beta scalar
        m = v = 0.0
        x = 1.0
        for step in (1, 2):
            m = 0.9 * m + 0.1 * 0.5
            v = 0.999 * v + 0.001 * 0.25
            mhat = m / (1.0 - 0.9**step)
            vhat = v / (1.0 - 0.999**step)
            x -= 0.1 * mhat / (np.sqrt(vhat) + 1e-8)

        adam_step(params, grads, state, lr=0.1)
        adam_step(params, grads, state, lr=0.1)
        assert params.beta[0] == pytest.approx(x, rel=1e-12)
        assert state.step == 2


class TestNegativeSampling:
    def test_two_node_graph_exhausts(self):
        g = from_events([Event(0, 1, float(t)) for t in range(4)])
        positives = build_positive_samples(g, delta=2.0)
        negs = sample_negatives(g, positives, named_rng(0, "neg"), delta=2.0, tries=50)
        assert negs == []

    def test_negatives_verify_label_zero(self, rng):
        g = random_stream(rng, n_nodes=100, n_events=400)
        delta = 1.0
        positives = build_positive_samples(g, delta)[:200]
        negs = sample_negatives(g, positives, named_rng(1, "neg"), delta=delta)
        assert len(negs) == len(positives)  # sparse graph: no skips expected
        for n in negs:
            assert not n.positive
            assert n.s_delta == 0
            assert significance_label(g, n.u, n.v, n.t, delta) == 0

    def test_no_window_rejects_only_exact_time_contacts(self):
        t = 2.0
        g = from_events(
            [Event(0, 1, t), Event(0, 2, float(np.nextafter(t, np.inf))), Event(0, 3, 1.0)],
            num_nodes=4,
        )
        assert not _valid_negative(g, 0, 1, t, None)
        assert _valid_negative(g, 0, 2, t, None)
        assert _valid_negative(g, 0, 3, t, None)
        assert not _valid_negative(g, 0, 0, t, None)

    def test_one_to_one_contract(self, rng):
        g = random_stream(rng, n_nodes=30, n_events=300)
        positives = build_positive_samples(g, delta=0.5)
        negs = sample_negatives(g, positives, named_rng(2, "neg"), delta=0.5)
        assert len(negs) <= len(positives)


class TestPositives:
    def test_labels_from_window(self):
        g = from_events(
            [Event(0, 1, 0.0), Event(0, 1, 0.5), Event(0, 1, 3.0)], num_nodes=2
        )
        pos = build_positive_samples(g, delta=1.0)
        assert [p.s_delta for p in pos] == [2, 1, 1]
        assert all(p.s_delta >= 1 for p in pos)

    def test_window_ablation_flattens_labels(self):
        g = from_events([Event(0, 1, 0.0), Event(0, 1, 0.5)], num_nodes=2)
        pos = build_positive_samples(g, delta=None)
        assert [p.s_delta for p in pos] == [1, 1]

    def test_chronological_order(self, rng):
        g = random_stream(rng, n_nodes=10, n_events=100)
        pos = build_positive_samples(g, delta=1.0)
        ts = [p.t for p in pos]
        assert ts == sorted(ts)


class TestTrainLoop:
    def make_stream(self, seed=0):
        rng = np.random.default_rng(seed)
        events = []
        # two chatty pairs plus noise
        for t in np.cumsum(rng.exponential(0.4, size=60)):
            events.append(Event(0, 1, float(t)))
        for t in np.cumsum(rng.exponential(0.5, size=50)):
            events.append(Event(2, 3, float(t)))
        for _ in range(40):
            u, v = rng.choice(10, size=2, replace=False)
            events.append(Event(int(u), int(v), float(rng.uniform(0, 25))))
        return from_events(events, num_nodes=10)

    def test_loss_decreases(self):
        g = self.make_stream()
        cfg = TrainConfig(epochs=10, batch_size=64, m=3, d0=8, d1=4, d2=4, seed=5)
        result = train(g, cfg, delta=1.0)
        assert len(result.loss_history) == 10
        assert result.loss_history[-1] < result.loss_history[0]
        assert all(np.isfinite(result.loss_history))

    def test_seed_determinism_bitwise(self):
        g = self.make_stream()
        cfg = TrainConfig(epochs=4, batch_size=32, m=3, d0=8, d1=4, d2=4, seed=9)
        r1 = train(g, cfg, delta=1.0)
        r2 = train(g, cfg, delta=1.0)
        assert r1.loss_history == r2.loss_history
        for (_, a), (_, b) in zip(r1.params.arrays(), r2.params.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_different_seed_differs(self):
        g = self.make_stream()
        base = dict(epochs=3, batch_size=32, m=3, d0=8, d1=4, d2=4)
        r1 = train(g, TrainConfig(seed=1, **base), delta=1.0)
        r2 = train(g, TrainConfig(seed=2, **base), delta=1.0)
        assert r1.loss_history != r2.loss_history

    def test_ablated_selection_draws_a_table_per_epoch(self, monkeypatch):
        builds = []
        build = TopMTable.build

        def spy(g, m, lam=1.0, rng=None):
            builds.append(rng)
            return build(g, m, lam, rng=rng)

        monkeypatch.setattr(TopMTable, "build", spy)
        g = self.make_stream()
        base = dict(epochs=3, batch_size=32, m=3, d0=8, d1=4, d2=4, seed=2)
        train(g, TrainConfig(**base), delta=1.0)
        assert builds == [None]  # STGNN: one top-m table per run
        builds.clear()
        train(g, TrainConfig(use_significant_selection=False, **base), delta=1.0)
        assert len(builds) == 3 and builds[0] is not None
        assert all(rng is builds[0] for rng in builds)  # one stream, new draws each epoch

    def test_window_ablation_uses_flat_labels(self):
        g = self.make_stream()
        cfg = TrainConfig(
            epochs=2, batch_size=32, m=3, d0=8, d1=4, d2=4, use_intimate_window=False
        )
        result = train(g, cfg, delta=1.0)  # delta still used for negatives
        assert len(result.loss_history) == 2

    def test_selection_ablation_runs(self):
        g = self.make_stream()
        cfg = TrainConfig(
            epochs=2, batch_size=32, m=3, d0=8, d1=4, d2=4, use_significant_selection=False
        )
        result = train(g, cfg, delta=1.0)
        assert all(np.isfinite(result.loss_history))

    @pytest.mark.parametrize("selection", [True, False])
    def test_empty_stream_trains_no_batches(self, selection):
        cfg = TrainConfig(epochs=3, m=3, d0=8, d1=4, d2=4, use_significant_selection=selection)
        result = train(from_events([], num_nodes=4), cfg, delta=1.0)
        assert result.loss_history == [0.0, 0.0, 0.0]
        assert result.skipped_negatives == 0

    def test_window_required_unless_ablated(self):
        g = self.make_stream()
        with pytest.raises(ValueError):
            train(g, TrainConfig(epochs=1), delta=None)

    def test_early_stop_on_plateau(self):
        g = self.make_stream()
        # lr = tiny makes loss flat; patience cuts the run short
        cfg = TrainConfig(
            epochs=40, batch_size=64, m=3, d0=8, d1=4, d2=4, lr=1e-12,
            early_stop_patience=5,
        )
        result = train(g, cfg, delta=1.0)
        # per-epoch negative resampling jitters the loss, so the plateau
        # can restart a few times, but the run must stop well before 40
        assert 5 <= len(result.loss_history) <= 20


class TestConfigValidation:
    def test_bad_lr(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)

    def test_bad_m(self):
        with pytest.raises(ValueError, match="m "):
            TrainConfig(m=0)

    def test_bad_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)

    @pytest.mark.parametrize("lam", [0.0, -1.0, float("nan")])
    def test_bad_lam(self, lam):
        with pytest.raises(ValueError, match="lam"):
            TrainConfig(lam=lam)


def test_named_rng_streams_independent():
    a = named_rng(7, "features").random(4)
    b = named_rng(7, "negatives").random(4)
    c = named_rng(7, "features").random(4)
    np.testing.assert_array_equal(a, c)
    assert not np.array_equal(a, b)
