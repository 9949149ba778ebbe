import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stgnn.model
from stgnn.model import (
    NODE_BLOCK,
    ModelParams,
    _FlatBatch,
    _masked_phi,
    checkpoint_config,
    forward_batch,
    forward_node,
    init_params,
    load_checkpoint,
    random_features,
    save_checkpoint,
)
from stgnn.evaluation import node_embeddings
from stgnn.significance import top_m_neighbors
from stgnn.temporal_graph import from_columns
from stgnn.training import TrainConfig, named_rng
from conftest import random_stream, scaled
from reference_model import Event, check_finite, cosine, from_events, phi, pure_top_m, stagg_layer, where_masked_phi
from reference_model import forward_node as reference_forward_node
from reference_model import tree_forward_node


class TestPhi:
    def test_symmetric_scores_zero_beta(self):
        np.testing.assert_allclose(phi([1.0, 1.0], np.zeros(5)), [0.5, 0.5])

    def test_analytic_softmax(self):
        w = phi([1.0, 2.0], np.ones(4))
        np.testing.assert_allclose(w, [0.26894, 0.73106], atol=1e-5)

    def test_single_candidate(self):
        np.testing.assert_allclose(phi([123.4], np.full(3, -2.0)), [1.0])

    def test_sums_to_one_and_shift_invariant(self, rng):
        for _ in range(50):
            k = int(rng.integers(1, 6))
            scores = rng.uniform(0, 50, size=k)
            beta = rng.normal(size=6)
            w = phi(scores, beta)
            assert w.sum() == pytest.approx(1.0, rel=1e-12)
            # shifting every product by a constant leaves the weights alone
            z = scores * beta[:k]
            shifted = np.exp((z + 7.3) - (z + 7.3).max())
            np.testing.assert_allclose(w, shifted / shifted.sum(), rtol=1e-12)

    def test_huge_scores_stable(self):
        w = phi([900.0, 850.0], np.ones(2))
        assert np.all(np.isfinite(w))
        assert w[0] > 0.99

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            phi([], np.ones(3))

    def test_too_many_scores_rejected(self):
        with pytest.raises(ValueError):
            phi([1.0, 2.0, 3.0], np.ones(2))


class TestStaggLayer:
    def test_identity_no_neighbors(self):
        x = np.array([1.0, -2.0, 3.0])
        out = stagg_layer(x, [], [], np.eye(3), np.eye(3), np.zeros(2), activate=False)
        np.testing.assert_array_equal(out, x)

    def test_single_neighbor_passthrough(self):
        nbr = np.array([0.5, 0.25])
        out = stagg_layer(
            np.zeros(2), [nbr], [3.0], np.eye(2), np.eye(2), np.ones(1), activate=False
        )
        np.testing.assert_allclose(out, nbr)

    def test_relu_applied_when_activated(self):
        x = np.array([1.0, -1.0])
        out = stagg_layer(x, [], [], np.eye(2), np.eye(2), np.zeros(1), activate=True)
        np.testing.assert_array_equal(out, [1.0, 0.0])

    def test_matches_straight_line_oracle(self, rng):
        # independent dense evaluation of the layer map
        for _ in range(30):
            d_in, d_out, k = 4, 3, 3
            x = rng.normal(size=d_in)
            nbrs = [rng.normal(size=d_in) for _ in range(k)]
            scores = rng.uniform(0, 5, size=k)
            beta = rng.normal(size=5)
            w_self = rng.normal(size=(d_in, d_out))
            w_nbr = rng.normal(size=(d_in, d_out))

            z = scores * beta[:k]
            e = np.exp(z - z.max())
            weights = e / e.sum()
            expected = x @ w_self
            for i in range(k):
                expected = expected + weights[i] * (nbrs[i] @ w_nbr)
            expected = np.maximum(expected, 0.0)

            got = stagg_layer(x, nbrs, scores, w_self, w_nbr, beta, activate=True)
            np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            stagg_layer(np.zeros(2), [np.zeros(2)], [1.0, 2.0], np.eye(2), np.eye(2),
                        np.ones(2), activate=False)


class TestForwardNode:
    def test_isolated_node_self_path(self, rng):
        g = from_events([Event(0, 1, 0.0)], num_nodes=3)
        feats = random_features(3, 4, rng)
        params = init_params(rng, 4, 3, 2, m=2)
        h = forward_node(g, feats, params, 5.0)[2]
        expected = np.maximum(feats[2] @ params.w1_self, 0.0) @ params.w2_self
        np.testing.assert_allclose(h, expected, rtol=1e-12)

    def test_matches_nested_loop_oracle(self, rng):
        g = random_stream(rng, n_nodes=5, n_events=40)
        feats = random_features(5, 4, rng)
        params = init_params(rng, 4, 3, 3, m=2)
        params.beta = rng.normal(size=2)
        t = g.t_max * 0.9
        m = 2

        def oracle(u):
            def weights(scores):
                z = scores * params.beta[: len(scores)]
                e = np.exp(z - z.max())
                return e / e.sum()

            def h1(node):
                ids, scores = pure_top_m(g, node, t, m)
                acc = feats[node] @ params.w1_self
                if len(ids):
                    w = weights(scores)
                    for wi, vi in zip(w, ids):
                        acc = acc + wi * (feats[vi] @ params.w1_nbr)
                return np.maximum(acc, 0.0)

            ids, scores = pure_top_m(g, u, t, m)
            acc = h1(u) @ params.w2_self
            if len(ids):
                w = weights(scores)
                for wi, vi in zip(w, ids):
                    acc = acc + wi * (h1(vi) @ params.w2_nbr)
            return acc

        rows = forward_node(g, feats, params, t)
        assert rows.shape == (5, 3)
        for u in range(5):
            np.testing.assert_allclose(rows[u], oracle(u), rtol=1e-10)

    def test_each_distinct_node_selected_once(self, rng, monkeypatch):
        # one array pass at the query time gives every node's list, and the
        # dense batch needs no training tree on top of it
        g = random_stream(rng, n_nodes=8, n_events=80)
        feats = random_features(8, 4, rng)
        params = init_params(rng, 4, 3, 3, m=3)
        t = g.t_max * 0.8
        passes = []
        array_pass = stgnn.model.top_m_neighbors

        def counting_pass(*args):
            passes.append(args[1])
            return array_pass(*args)

        def no_tree(*args):
            raise AssertionError("forward_node built a training tree")

        monkeypatch.setattr(stgnn.model, "top_m_neighbors", counting_pass)
        monkeypatch.setattr(stgnn.model, "build_batch", no_tree)
        assert forward_node(g, feats, params, t).shape == (8, 3)
        assert passes == [t]  # one array pass at the query time

    def test_random_list_shared_by_root_and_neighbor(self, rng):
        # every node has more historical neighbors than m, so each draw is
        # a genuine sample, and every node is a root, so each drawn
        # neighbor is a root as well: the reference forward, replaying the
        # drawn rows, must see one list per node
        g = random_stream(rng, n_nodes=8, n_events=200)
        feats = random_features(8, 4, rng)
        params = init_params(rng, 4, 3, 3, m=2)
        params.beta = rng.normal(size=2)
        t = g.t_max
        assert all(len(pure_top_m(g, u, t, 8)[0]) > 2 for u in range(8))
        rows = forward_node(g, feats, params, t, rng=np.random.default_rng(7))
        ids, scores, mask = top_m_neighbors(g, t, 2, rng=np.random.default_rng(7))
        top_ids = top_m_neighbors(g, t, 2)[0]
        assert not np.array_equal(ids, top_ids)  # the draws are not the top-m lists
        replay = lambda g_, node, t_, m_: (ids[node][mask[node]], scores[node][mask[node]])
        for u in range(8):
            np.testing.assert_allclose(
                rows[u], reference_forward_node(g, feats, params, u, t, selector=replay),
                rtol=1e-10,
            )

    def test_bgnn_embeddings_replay_through_reference(self, rng):
        # evaluation's selection-ablated embeddings come from rows drawn
        # with the "eval-selection" stream; replayed, the reference agrees
        g = random_stream(rng, n_nodes=10, n_events=250)
        cfg = TrainConfig(m=2, d0=4, d1=3, d2=3, seed=5, ablation="BGNN+I")
        feats = random_features(10, 4, rng)
        params = init_params(rng, 4, 3, 3, m=2)
        params.beta = rng.normal(size=2)
        t, nodes = g.t_max * 0.9, [1, 4, 6]
        got = node_embeddings(g, params, feats, t, cfg)
        ids, scores, mask = top_m_neighbors(g, t, 2, rng=named_rng(5, "eval-selection"))
        replay = lambda g_, node, t_, m_: (ids[node][mask[node]], scores[node][mask[node]])
        for u in nodes:
            np.testing.assert_allclose(
                got[u], reference_forward_node(g, feats, params, u, t, selector=replay), rtol=1e-10
            )

    def test_membership_stable_past_last_event(self, rng):
        g = random_stream(rng, n_nodes=8, n_events=100)
        t1 = g.t_max + 1.0
        t2 = g.t_max + 5.0
        a_ids, a_scores, a_mask = top_m_neighbors(g, t1, m=4)
        b_ids, b_scores, b_mask = top_m_neighbors(g, t2, m=4)
        np.testing.assert_array_equal(a_ids, b_ids)
        np.testing.assert_array_equal(a_mask, b_mask)
        np.testing.assert_allclose(b_scores[a_mask] / a_scores[a_mask], math.exp(-(t2 - t1)), rtol=1e-9)

    def test_zero_params_zero_embedding(self, rng):
        g = random_stream(rng, n_nodes=6, n_events=50)
        feats = random_features(6, 4, rng)
        params = init_params(rng, 4, 3, 3, m=2).zeros_like()
        np.testing.assert_array_equal(
            forward_node(g, feats, params, g.t_max), np.zeros((6, 3))
        )

    def test_deterministic(self, rng):
        g = random_stream(rng, n_nodes=6, n_events=60)
        feats = random_features(6, 4, rng)
        params = init_params(rng, 4, 3, 3, m=3)
        a = forward_node(g, feats, params, 4.2)
        b = forward_node(g, feats, params, 4.2)
        np.testing.assert_array_equal(a, b)


@settings(derandomize=True, max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    n_nodes=st.integers(2, 12),
    n_events=st.integers(1, 60),
    m=st.integers(1, 5),
    at=st.one_of(st.floats(0.0, 1.2), st.integers(0, 59)),
    scale=st.sampled_from([0.5, 1.0, 4.0]),
    draw=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    subset=st.booleans(),
)
def test_dense_forward_matches_tree_oracle(seed, n_nodes, n_events, m, at, scale, draw, subset):
    # ``at`` is a fraction of the horizon or, as an int, the time of one
    # event (its contact is not yet seen); a subset may repeat nodes; the
    # stream's times are scaled, as a time unit 1 / scale would
    rng = np.random.default_rng(seed)
    g = scaled(random_stream(rng, n_nodes=n_nodes, n_events=n_events), scale)
    feats = random_features(n_nodes, 4, rng)
    params = init_params(rng, 4, 3, 3, m=m)
    params.beta = rng.normal(size=m)
    t = float(g.t[at % n_events]) if isinstance(at, int) else g.t_max * at
    nodes = rng.integers(n_nodes, size=int(rng.integers(1, n_nodes + 1))) if subset else np.arange(n_nodes)
    sel = lambda: None if draw is None else np.random.default_rng(draw)
    dense = forward_node(g, feats, params, t, sel())
    want = tree_forward_node(g, feats, params, nodes, t, sel())
    assert dense.shape == (n_nodes, 3)
    if subset:  # the tree's matrix products run over fewer rows
        np.testing.assert_allclose(dense[nodes], want, rtol=1e-12, atol=0.0)
    else:
        assert dense.tobytes() == want.tobytes()


# products past exp's range and NaN (inf * 0) included, so that rows
# with no valid rank, an infinite maximum or a NaN sum all occur
_phi_values = st.sampled_from([0.0, -0.0, 1.0, -2.5, 700.0, -800.0, 1e200, -1e200, np.inf, -np.inf, 1e-320])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    rows=st.integers(1, 6),
    m=st.integers(1, 5),
    extra=st.integers(0, 2),
    data=st.data(),
)
def test_in_place_phi_matches_where_oracle(rows, m, extra, data):
    # beta may be wider than the rows' ranks; a tree narrower than beta
    # uses its leading ranks
    scores = np.array(data.draw(st.lists(_phi_values, min_size=rows * m, max_size=rows * m))).reshape(rows, m)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=rows * m, max_size=rows * m))).reshape(rows, m)
    beta = np.array(data.draw(st.lists(_phi_values, min_size=m + extra, max_size=m + extra)))
    with np.errstate(all="ignore"):
        got, want = _masked_phi(scores, mask, beta), where_masked_phi(scores, mask, beta)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_nodes", [1, 7, NODE_BLOCK + 1])
@pytest.mark.parametrize("draw", [None, 11])
def test_blocked_forward_node_is_one_dense_batch(n_nodes, draw):
    # one node, fewer nodes than a block, and one node past a block: the
    # blocked layers give the bits of one dense batch over every node,
    # on the top-m lists and on drawn ones
    rng = np.random.default_rng(n_nodes)
    if n_nodes == 1:
        g = from_columns([], [], [], num_nodes=1)
    else:
        g = random_stream(rng, n_nodes=n_nodes, n_events=6 * n_nodes)
    # the model's default widths: a product one row high can round its
    # rows differently from a taller one at these widths
    feats = random_features(n_nodes, 8, rng)
    params = init_params(rng, 8, 16, 16, m=2)
    params.beta = rng.normal(size=2)
    t = g.t_max * 0.9 + 0.1
    sel = lambda: None if draw is None else np.random.default_rng(draw)
    ids, scores, mask = top_m_neighbors(g, t, 2, sel())
    every = np.arange(n_nodes)
    dense = forward_batch(_FlatBatch(every, ids, scores, mask, every, ids), params, feats).h2
    assert forward_node(g, feats, params, t, sel()).tobytes() == dense.tobytes()


class TestCosine:
    def test_aligned_and_opposed(self):
        a = np.array([1.0, 2.0])
        assert cosine(a, a) == pytest.approx(1.0)
        assert cosine(a, -a) == pytest.approx(-1.0)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_analytic(self):
        got = cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert got == pytest.approx(0.70711, abs=1e-5)

    def test_null_vector_guard(self):
        assert cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path, rng):
        params = init_params(rng, 8, 4, 4, m=3)
        params.beta = rng.normal(size=3)
        feats = random_features(10, 8, rng)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, params, feats, seed=77, config={"m": 3, "time_unit": 0.5}, train_digest="ab" * 32)
        loaded, feats2, seed = load_checkpoint(path)
        assert seed == 77
        assert checkpoint_config(path) == ({"m": 3, "time_unit": 0.5}, "ab" * 32)
        np.testing.assert_array_equal(feats, feats2)
        for (_, a), (_, b) in zip(params.arrays(), loaded.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_features_in_range(self, rng):
        feats = random_features(50, 16, rng)
        assert feats.shape == (50, 16)
        assert np.all(feats >= -1.0) and np.all(feats <= 1.0)

    def test_default_dims(self, rng):
        cfg = TrainConfig()  # the training defaults
        p = init_params(rng, cfg.d0, cfg.d1, cfg.d2, cfg.m)
        assert p.w1_self.shape == (128, 16)
        assert p.w2_nbr.shape == (16, 16)
        assert p.beta.shape == (10,)
        check_finite(p)


def test_params_zeros_like_independent(rng):
    p = init_params(rng, 4, 3, 3, m=2)
    z = p.zeros_like()
    before = p.w1_self.copy()
    z.w1_self += 1.0
    np.testing.assert_array_equal(p.w1_self, before)
    assert not np.shares_memory(z.w1_self, p.w1_self)
    assert np.all(z.w2_self == 0.0)


def test_forward_uses_shared_beta_across_layers(rng):
    # perturbing beta must move embeddings of nodes with >= 2 neighbors
    g = from_events(
        [Event(0, 1, 0.0), Event(0, 2, 1.0), Event(1, 2, 1.5)], num_nodes=3
    )
    feats = random_features(3, 4, rng)
    params = init_params(rng, 4, 3, 3, m=2)
    base = forward_node(g, feats, params, 3.0)[0]
    params.beta = params.beta + np.array([1.0, -1.0])
    moved = forward_node(g, feats, params, 3.0)[0]
    assert not np.allclose(base, moved)
