import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stgnn.model import init_params, random_features
from stgnn.significance import TopMTable
from stgnn import training
from stgnn.training import (
    ABLATION_FLAGS,
    AdamState,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    build_positive_samples,
    named_rng,
    train,
)
from stgnn.training import (
    _capture_chunk,
    _forward_backward,
    _negative_column,
    _pair_times,
    _scatter_columns,
    _scatter_rows,
    _valid_negative,
)
from conftest import random_stream, table_list, tied_stream
from reference_model import (
    BatchTree,
    Event,
    TrainSample,
    backward,
    batch_loss,
    cosine,
    draw_negative,
    events_of,
    finite_difference,
    forward_backward,
    forward_node,
    from_events,
    kink_margin,
    max_relative_error,
    pair_index,
    positive_samples,
    sample_negatives,
    significance_label,
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
        for e in events_of(g)[60:70]:
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
    positives = positive_samples(g, delta)
    for start in range(0, len(positives), cfg.batch_size):
        chunk = positives[start : start + cfg.batch_size]
        negs = [draw_negative(g, p, rng, delta, 100) for p in chunk]
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
        pos_t = g.t.tolist()
        assert pos_t[cfg.batch_size - 1] == pos_t[cfg.batch_size]
        table = TopMTable.build(g, cfg.m)
        n_chunks = 0
        for cols, samples in chunks_with_negatives(g, cfg, delta=0.3):
            got = _capture_chunk(*cols, table)
            assert_same_batch(got, tree_from_graph(samples, g, cfg), score_rtol=1e-12)
            n_chunks += 1
        assert n_chunks == 4

    def test_random_table_capture_matches_per_node_lists(self):
        # the batch of the ablated variants' table equals the one the
        # entry-at-a-time oracle builds from the same rows, taken a node at
        # a time
        cfg = TrainConfig(m=3, batch_size=32, ablation="BGNN+I")
        g = tied_stream(cfg.batch_size)
        table = TopMTable.build(g, cfg.m, rng=np.random.default_rng(4))
        row = lambda u, t, m: table_list(table, u, t)
        n_chunks = 0
        for cols, samples in chunks_with_negatives(g, cfg, delta=0.3):
            got = _capture_chunk(*cols, table)
            tree = BatchTree(cfg.m, row)
            for s in samples:
                tree.add_sample(tree.add_root(s.u, s.t), tree.add_root(s.v, s.t), s.positive, s.s_delta)
            assert_same_batch(got, tree.finalize())
            n_chunks += 1
        assert n_chunks == 4


@st.composite
def capture_cases(draw):
    """A stream with tied times and long gaps, one chronological chunk of
    its events as positives with labels and negatives (-1 where none was
    found), a capacity m, and the seed of a drawn table or None for the
    top-m one."""
    n = draw(st.integers(3, 10))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    # a gap of 0 ties two events; across a gap of 800 every score exp(-age) underflows to 0
    rows = draw(st.lists(st.tuples(pair, st.sampled_from([0.0, 0.0, 0.25, 1.0, 800.0])), min_size=2, max_size=60))
    t = np.cumsum([gap for _, gap in rows]).tolist()
    g = from_events([Event(u, v, ti) for ((u, v), _), ti in zip(rows, t)], num_nodes=n)
    lo = draw(st.integers(0, g.num_events - 1))
    c = slice(lo, draw(st.integers(lo + 1, g.num_events)))
    k = c.stop - lo
    w = np.array(draw(st.lists(st.integers(-1, n - 1), min_size=k, max_size=k)))
    s_delta = np.array(draw(st.lists(st.integers(1, 5), min_size=k, max_size=k)), dtype=np.float64)
    table_seed = draw(st.one_of(st.none(), st.integers(0, 2**32 - 1)))
    return g, (g.src[c], g.dst[c], g.t[c], s_delta, w), draw(st.integers(1, 5)), table_seed


@settings(derandomize=True, max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(capture_cases())
def test_capture_matches_the_entry_at_a_time_oracle(case):
    """Every array of a _capture_chunk batch is bitwise that of the
    BatchTree oracle, which looks each entry up on its own: with tied
    times, with scores that underflowed to 0 in the stored rows or in the
    lookups' decay, with missing negatives, and for both table kinds."""
    g, cols, m, table_seed = case
    rng = None if table_seed is None else np.random.default_rng(table_seed)
    table = TopMTable.build(g, m, rng=rng)
    got = _capture_chunk(*cols, table)
    tree = BatchTree(m, lambda u, t, m: table_list(table, u, t))
    for u, v, t, s, w in zip(*(a.tolist() for a in cols)):
        tree.add_sample(tree.add_root(u, t), tree.add_root(v, t), True, s)
        if w >= 0:
            tree.add_sample(tree.add_root(u, t), tree.add_root(w, t), False, 0)
    want = tree.finalize()
    for name in ("owner", "nbrs", "scores", "mask", "root_entry", "root_nbrs", "su", "sv", "positive", "weight"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def assert_same_gradients(fb, params, feats):
    """Loss and all five gradients bitwise equal to the reference backward."""
    loss, grads = _forward_backward(fb, params, feats)
    want_loss, want = forward_backward(fb, params, feats)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    for (name, a), (_, b) in zip(grads.arrays(), want.arrays()):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestBackwardMatchesReference:
    # d1 = 20 is not a multiple of the reference's eight-column chunks
    cfg = dict(m=4, batch_size=32, d0=6, d1=20, d2=5)

    def model(self, n_nodes):
        rng = np.random.default_rng(21)
        params = init_params(rng, self.cfg["d0"], self.cfg["d1"], self.cfg["d2"], self.cfg["m"])
        params.beta = rng.normal(size=self.cfg["m"])
        return params, random_features(n_nodes, self.cfg["d0"], rng)

    @pytest.mark.parametrize("selection", [True, False])
    def test_every_tied_stream_chunk(self, selection):
        cfg = TrainConfig(ablation="STGNN" if selection else "BGNN+I", **self.cfg)
        g = tied_stream(cfg.batch_size)
        rng = None if selection else np.random.default_rng(4)
        table = TopMTable.build(g, cfg.m, rng=rng)
        params, feats = self.model(g.num_nodes)
        n_chunks = 0
        for cols, _ in chunks_with_negatives(g, cfg, delta=0.3):
            assert_same_gradients(_capture_chunk(*cols, table), params, feats)
            n_chunks += 1
        assert n_chunks == 4

    def test_hub_heavy_batch(self):
        # node 0 takes part in nine events of ten, so it fills most
        # candidate lists and most neighbour rows scatter into one bin
        rng = np.random.default_rng(6)
        events = []
        for k in range(600):
            u, v = rng.choice(np.arange(1, 30), size=2, replace=False)
            events.append(Event(0 if k % 10 else int(u), int(v), 0.05 * k))
        g = from_events(events, num_nodes=30)
        cfg = TrainConfig(**{**self.cfg, "batch_size": 256})
        table = TopMTable.build(g, cfg.m)
        positives = positive_samples(g, 0.5)[300:556]
        neg = [draw_negative(g, p, named_rng(1, "neg"), 0.5, 100) for p in positives]
        cols = (
            np.array([p.u for p in positives]),
            np.array([p.v for p in positives]),
            np.array([p.t for p in positives]),
            np.array([p.s_delta for p in positives], dtype=np.float64),
            np.array([-1 if n is None else n.v for n in neg]),
        )
        fb = _capture_chunk(*cols, table)
        hits = np.bincount(fb.nbrs[fb.mask], minlength=30)
        assert hits[0] > 0.2 * fb.mask.sum()  # uniform bins would take 1/30 each
        params, feats = self.model(g.num_nodes)
        assert_same_gradients(fb, params, feats)


class TestScatterRows:
    """Both scatter forms, the flat-index and the per-column one."""

    def test_bitwise_equal_to_add_at(self, rng):
        for n_rows, n_targets in ((1, 1), (50, 3), (400, 40), (0, 5)):
            index = rng.integers(n_targets, size=n_rows)
            rows = rng.normal(size=(n_rows, 6)) * rng.choice([1e-8, 1.0, 1e8], size=(n_rows, 1))
            want = np.zeros((n_targets, 6))
            np.add.at(want, index, rows)
            for got in (
                _scatter_rows(index, rows, n_targets),
                _scatter_columns(index, lambda j: rows[:, j], 6, n_targets),
            ):
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
        positives = positive_samples(g, delta=2.0)
        negs = sample_negatives(g, positives, named_rng(0, "neg"), delta=2.0, tries=50)
        assert negs == []

    def test_negatives_verify_label_zero(self, rng):
        g = random_stream(rng, n_nodes=100, n_events=400)
        delta = 1.0
        positives = positive_samples(g, delta)[:200]
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
        times = _pair_times(g)
        assert not _valid_negative(times, 0, 1, t, None)
        assert _valid_negative(times, 0, 2, t, None)
        assert _valid_negative(times, 0, 3, t, None)
        assert not _valid_negative(times, 0, 0, t, None)

    def test_pair_times_lists_the_row_pair_index(self):
        g = tied_stream(32)
        assert _pair_times(g) == {k: ts.tolist() for k, ts in pair_index(g).items()}

    def test_one_to_one_contract(self, rng):
        g = random_stream(rng, n_nodes=30, n_events=300)
        positives = positive_samples(g, delta=0.5)
        negs = sample_negatives(g, positives, named_rng(2, "neg"), delta=0.5)
        assert len(negs) <= len(positives)


class TestNegativeColumn:
    @pytest.mark.parametrize("delta", [0.5, None])
    def test_matches_per_positive_oracle(self, delta):
        g = random_stream(np.random.default_rng(5), n_nodes=6, n_events=300)
        positives = positive_samples(g, delta)
        got_rng, want_rng = named_rng(1, "train-negatives"), named_rng(1, "train-negatives")
        got = _negative_column(
            _pair_times(g), g.num_nodes, [p.u for p in positives], [p.t for p in positives],
            got_rng, delta, 2,
        )
        want = [draw_negative(g, p, want_rng, delta, 2) for p in positives]
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, [-1 if n is None else n.v for n in want])
        assert np.any(got == -1) and np.any(got >= 0)  # some positives exhaust their tries
        assert got_rng.integers(2**62) == want_rng.integers(2**62)


def assert_positives_match_oracle(g, delta):
    """The positive columns bitwise equal to the per-event oracle."""
    u, v, t, s_delta = build_positive_samples(g, delta)
    want = positive_samples(g, delta)
    assert u.dtype == v.dtype == s_delta.dtype == np.int64 and t.dtype == np.float64
    assert u.tolist() == [p.u for p in want] and v.tolist() == [p.v for p in want]
    assert t.tobytes() == np.array([p.t for p in want]).tobytes()
    assert s_delta.tolist() == [p.s_delta for p in want]


class TestPositives:
    def test_labels_from_window(self):
        g = from_events(
            [Event(0, 1, 0.0), Event(0, 1, 0.5), Event(0, 1, 3.0)], num_nodes=2
        )
        s_delta = build_positive_samples(g, delta=1.0)[3]
        assert s_delta.tolist() == [2, 1, 1]
        assert all(s_delta >= 1)

    def test_window_ablation_flattens_labels(self):
        g = from_events([Event(0, 1, 0.0), Event(0, 1, 0.5)], num_nodes=2)
        s_delta = build_positive_samples(g, delta=None)[3]
        assert s_delta.tolist() == [1, 1]

    def test_chronological_order(self, rng):
        g = random_stream(rng, n_nodes=10, n_events=100)
        ts = build_positive_samples(g, delta=1.0)[2].tolist()
        assert ts == sorted(ts)

    @pytest.mark.parametrize("delta", [1e-9, 0.05, 0.3, 2.0, 1e6, None])
    def test_columns_match_per_event_oracle(self, delta):
        assert_positives_match_oracle(tied_stream(32), delta)
        assert_positives_match_oracle(random_stream(np.random.default_rng(2), n_nodes=8), delta)

    def test_window_ends_on_a_contact_time(self):
        # t + delta lands exactly on a later contact of the pair, and on
        # contacts of other pairs, and ties repeat within a pair
        t = [0.0, 0.0, 0.25, 0.5, 0.5, 0.75, 1.0, 1.0, 1.25]
        pairs = [(0, 1), (0, 1), (1, 2), (0, 1), (2, 0), (0, 1), (0, 1), (1, 2), (0, 2)]
        g = from_events([Event(a, b, x) for (a, b), x in zip(pairs, t)], num_nodes=3)
        for delta in (0.25, 0.5, 0.75, 1.0):
            assert_positives_match_oracle(g, delta)
        assert build_positive_samples(g, 0.5)[3].tolist() == [2, 2, 1, 2, 1, 2, 1, 1, 1]

    def test_empty_graph(self):
        cols = build_positive_samples(from_events([], num_nodes=3), delta=1.0)
        assert [c.shape for c in cols] == [(0,)] * 4


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

        def spy(g, m, rng=None):
            builds.append(rng)
            return build(g, m, rng=rng)

        monkeypatch.setattr(TopMTable, "build", spy)
        g = self.make_stream()
        base = dict(epochs=3, batch_size=32, m=3, d0=8, d1=4, d2=4, seed=2)
        train(g, TrainConfig(**base), delta=1.0)
        assert builds == [None]  # STGNN: one top-m table per run
        builds.clear()
        train(g, TrainConfig(ablation="BGNN+I", **base), delta=1.0)
        assert len(builds) == 3 and builds[0] is not None
        assert all(rng is builds[0] for rng in builds)  # one stream, new draws each epoch

    def test_window_ablation_uses_flat_labels(self):
        g = self.make_stream()
        cfg = TrainConfig(
            epochs=2, batch_size=32, m=3, d0=8, d1=4, d2=4, ablation="BGNN+S"
        )
        result = train(g, cfg, delta=1.0)  # delta still used for negatives
        assert len(result.loss_history) == 2

    def test_selection_ablation_runs(self):
        g = self.make_stream()
        cfg = TrainConfig(
            epochs=2, batch_size=32, m=3, d0=8, d1=4, d2=4, ablation="BGNN+I"
        )
        result = train(g, cfg, delta=1.0)
        assert all(np.isfinite(result.loss_history))

    @pytest.mark.parametrize("selection", [True, False])
    def test_empty_stream_trains_no_batches(self, selection):
        cfg = TrainConfig(epochs=3, m=3, d0=8, d1=4, d2=4, ablation="STGNN" if selection else "BGNN+I")
        result = train(from_events([], num_nodes=4), cfg, delta=1.0)
        assert result.loss_history == [0.0, 0.0, 0.0]
        assert result.skipped_negatives == 0

    def test_nonfinite_gradients_raise_with_finite_params(self, monkeypatch):
        # NaN embeddings score cos 0, so the loss alone would stay finite
        calls = []
        forward_backward_ = training._forward_backward

        def nan_on_second_step(fb, params, feats):
            loss, grads = forward_backward_(fb, params, feats)
            calls.append(loss)
            if len(calls) == 2:
                grads.w1_nbr[0, 0] = np.nan
            return loss, grads

        monkeypatch.setattr(training, "_forward_backward", nan_on_second_step)
        cfg = TrainConfig(epochs=2, batch_size=32, m=3, d0=8, d1=4, d2=4, seed=5)
        with pytest.raises(TrainingDiverged, match="gradients") as exc:
            train(self.make_stream(), cfg, delta=1.0)
        assert len(calls) == 2 and np.isfinite(calls[1])
        assert all(np.isfinite(a).all() for _, a in exc.value.params.arrays())

    def test_window_required_unless_ablated(self):
        g = self.make_stream()
        with pytest.raises(ValueError):
            train(g, TrainConfig(epochs=1), delta=None)

    def test_early_stop_on_plateau(self, monkeypatch):
        g = self.make_stream()
        # lr = tiny makes loss flat; patience cuts the run short
        monkeypatch.setattr(training, "EARLY_STOP_PATIENCE", 5)
        cfg = TrainConfig(epochs=40, batch_size=64, m=3, d0=8, d1=4, d2=4, lr=1e-12)
        result = train(g, cfg, delta=1.0)
        # per-epoch negative resampling jitters the loss, so the plateau
        # can restart a few times, but the run must stop well before 40
        assert 5 <= len(result.loss_history) <= 20


class TestConfigValidation:
    def test_bad_lr(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -0.1])
    def test_bad_lr_named(self, lr):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=lr)

    @pytest.mark.parametrize("field", ["epochs", "d0", "d1", "d2"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_bad_size_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_bad_m(self):
        with pytest.raises(ValueError, match="m "):
            TrainConfig(m=0)

    def test_bad_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)

    @pytest.mark.parametrize(
        "field, value",
        [("batch_size", 64.5), ("epochs", 1.5), ("m", 2.5), ("d1", 8.5), ("m", True), ("lr", "0.01")],
    )
    def test_field_types(self, field, value):
        # each used to pass and then fail inside train, or train with
        # another value
        with pytest.raises(ValueError, match=f"{field} must be of type"):
            TrainConfig(**{field: value})

    def test_unknown_ablation(self):
        with pytest.raises(ValueError, match="ablation must be one of"):
            TrainConfig(ablation="SGNN")

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("name, flags", list(ABLATION_FLAGS.items()))
    def test_ablation_sets_the_switches(self, name, flags):
        cfg = TrainConfig(ablation=name)
        assert (cfg.use_significant_selection, cfg.use_intimate_window) == flags


def test_named_rng_streams_independent():
    a = named_rng(7, "features").random(4)
    b = named_rng(7, "negatives").random(4)
    c = named_rng(7, "features").random(4)
    np.testing.assert_array_equal(a, c)
    assert not np.array_equal(a, b)
