from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stgnn import evaluation
from stgnn.evaluation import (
    SIMILARITIES,
    MetricsReport,
    auc,
    evaluate,
    heuristic_reference,
    mean_average_precision,
    node_embeddings,
    sample_test_negatives,
    score_pair,
)
from stgnn.model import init_params, random_features
from stgnn.temporal_graph import split_train_test
from stgnn.training import TrainConfig, named_rng
from conftest import random_stream, scaled
from reference_model import (
    Event,
    ScoredPair,
    brute_force_ap,
    brute_force_auc,
    columns,
    cosine,
    events_of,
    from_events,
    initial_significance,
    make_pairs,
    pair_history,
    pair_index,
)
from reference_model import heuristic_reference as pairwise_reference
from reference_model import auc as list_auc
from reference_model import mean_average_precision as list_map


class TestScorePair:
    def test_identical_vectors(self):
        h = np.array([1.0, 1.0])
        assert score_pair(h, h, "Cos") == pytest.approx(1.0)
        assert score_pair(h, h, "Had") == pytest.approx(2.0)
        assert score_pair(h, h, "L2") == 0.0  # zero distance ranks highest

    def test_orthogonal_vectors(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert score_pair(a, b, "Cos") == 0.0
        assert score_pair(a, b, "Had") == 0.0
        assert score_pair(a, b, "L2") == pytest.approx(-2.0)  # distance 2, negated

    def test_hadamard_zero_vector(self, rng):
        z = np.zeros(4)
        assert score_pair(z, rng.normal(size=4), "Had") == 0.0

    def test_rows_match_single_pairs(self, rng):
        h_u, h_v = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        h_u[2] = 0.0  # null row: cosine guard
        expected = {
            "Cos": [cosine(a, b) for a, b in zip(h_u, h_v)],
            "Had": [float(a @ b) for a, b in zip(h_u, h_v)],
            "L2": [-float((a - b) @ (a - b)) for a, b in zip(h_u, h_v)],
        }
        for kind, want in expected.items():
            np.testing.assert_allclose(score_pair(h_u, h_v, kind), want, rtol=1e-12)
        assert score_pair(h_u, h_v, "Cos")[2] == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            score_pair(np.ones(2), np.ones(2), "Manhattan")


class TestAuc:
    def test_perfect_separation(self):
        assert auc([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1]) == 1.0

    def test_hand_case(self):
        assert auc([1, 1, 0, 0], [0.9, 0.3, 0.5, 0.1]) == pytest.approx(0.75)

    def test_all_ties(self):
        assert auc([1, 1, 1, 0, 0, 0], [0.5] * 6) == pytest.approx(0.5)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc([1, 1], [0.1, 0.2])

    def test_matches_brute_force(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 60))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            scores = rng.choice([0.1, 0.25, 0.5, 0.75], size=n)  # ties likely
            pairs = make_pairs(scores, labels)
            assert auc(labels, scores) == pytest.approx(brute_force_auc(pairs), abs=1e-12)

    def test_invariant_to_monotone_transform(self, rng):
        labels = rng.integers(0, 2, size=50)
        labels[0], labels[1] = 0, 1
        scores = rng.normal(size=50)
        transformed = np.exp(3.0 * scores) + 5.0
        assert auc(labels, scores) == pytest.approx(auc(labels, transformed), abs=1e-12)

    def test_label_inversion_complements(self, rng):
        scores = rng.permutation(np.arange(40, dtype=float))  # tie-free
        labels = rng.integers(0, 2, size=40)
        labels[:2] = [0, 1]
        assert auc(labels, scores) + auc(1 - labels, scores) == pytest.approx(1.0, abs=1e-12)


class TestMap:
    def test_positives_first(self):
        pairs = make_pairs([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert mean_average_precision(*columns(pairs)) == 1.0

    def test_interleaved(self):
        pairs = make_pairs([0.9, 0.7, 0.5, 0.3], [1, 0, 1, 0])
        assert mean_average_precision(*columns(pairs)) == pytest.approx(
            (1.0 + 2.0 / 3.0) / 2.0, abs=1e-5
        )

    def test_positive_last(self):
        pairs = make_pairs([0.9, 0.7, 0.5], [0, 0, 1])
        assert mean_average_precision(*columns(pairs)) == pytest.approx(1.0 / 3.0)

    def test_no_positive_rejected(self):
        with pytest.raises(ValueError):
            mean_average_precision(*columns(make_pairs([0.5], [0])))

    def test_matches_brute_force(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 60))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                continue
            scores = rng.choice([0.2, 0.4, 0.6], size=n)
            pairs = make_pairs(scores, labels)
            assert mean_average_precision(*columns(pairs)) == pytest.approx(
                brute_force_ap(pairs), abs=1e-12
            )

    def test_per_node_variant(self):
        pairs = [
            ScoredPair(0, 1, 0.9, 1),
            ScoredPair(0, 2, 0.8, 0),
            ScoredPair(3, 4, 0.7, 1),
        ]
        global_map = mean_average_precision(*columns(pairs))
        per_node = mean_average_precision(*columns(pairs), per_node=True)
        assert 0.0 < global_map <= 1.0
        assert 0.0 < per_node <= 1.0

    def test_matches_list_oracle(self):
        """Column AUC and MAP against the ScoredPair oracle on inputs with
        common ties, hub nodes, nodes without a positive, and -0.0 beside
        0.0 among the scores."""
        rng = np.random.default_rng(11)
        grid = np.array([-0.5, -0.0, 0.0, 0.25, 0.5])
        cases = hub_cases = no_pos_cases = signed_zero_cases = 0
        while cases < 300:
            n_nodes = int(rng.integers(2, 20))
            n = int(rng.integers(2, 120))
            u = rng.integers(n_nodes, size=n)
            v = (u + rng.integers(1, n_nodes, size=n)) % n_nodes  # never u
            labels = (rng.random(n) < rng.uniform(0.02, 0.4)).astype(np.int64)
            if labels.sum() in (0, n):
                continue
            scores = rng.choice(grid, size=n)
            pairs = [
                ScoredPair(int(a), int(b), float(x), int(lab))
                for a, b, x, lab in zip(u, v, scores, labels)
            ]
            assert auc(labels, scores) == list_auc(pairs)
            assert mean_average_precision(labels, scores, u, v) == list_map(pairs)
            assert mean_average_precision(labels, scores, u, v, per_node=True) == pytest.approx(
                list_map(pairs, per_node=True), abs=1e-12
            )
            cases += 1
            ends = np.concatenate([u, v])
            hub_cases += np.bincount(ends).max() >= 10
            no_pos_cases += np.setdiff1d(ends, ends[np.tile(labels, 2) == 1]).size > 0
            zeros = scores[scores == 0.0]
            signed_zero_cases += np.signbit(zeros).any() and not np.signbit(zeros).all()
        assert min(hub_cases, no_pos_cases, signed_zero_cases) >= 100

    def test_tie_heavy_matches_list_oracle(self):
        """Scores rounded to a few values tie most pairs, so the ranking
        rests on the (u, v) tie-break: global and per-node MAP are bitwise
        the list oracle's.  Endpoints come in either order and pairs repeat.
        Bitwise per-node equality needs fewer than eight positives per node:
        from eight on, the oracle's np.mean sums a node's precisions
        pairwise and the column form sums them in order."""
        rng = np.random.default_rng(23)
        cases = per_node_bitwise = 0
        while cases < 300:
            n_nodes = int(rng.integers(2, 12))
            n = int(rng.integers(2, 150))
            u = rng.integers(n_nodes, size=n)
            v = (u + rng.integers(1, n_nodes, size=n)) % n_nodes  # never u
            labels = (rng.random(n) < rng.uniform(0.05, 0.4)).astype(np.int64)
            if not labels.any():
                continue
            scores = np.round(rng.normal(size=n) * 1.5) / 4
            pairs = [
                ScoredPair(int(a), int(b), float(x), int(lab))
                for a, b, x, lab in zip(u, v, scores, labels)
            ]
            assert mean_average_precision(labels, scores, u, v) == list_map(pairs)
            got = mean_average_precision(labels, scores, u, v, per_node=True)
            if np.bincount(np.concatenate([u, v])[np.tile(labels, 2) == 1]).max() < 8:
                assert got == list_map(pairs, per_node=True)
                per_node_bitwise += 1
            else:
                assert got == pytest.approx(list_map(pairs, per_node=True), abs=1e-12)
            cases += 1
        assert per_node_bitwise >= 100


class TestHeuristic:
    def test_history_beats_none(self):
        g = from_events([Event(0, 1, 5.0)], num_nodes=4)
        scores = heuristic_reference(g, [0, 2], [1, 3], t0=6.0)
        assert scores[0] > scores[1] == 0.0

    def test_equals_initial_significance(self, rng):
        # the one-pass reference against the per-pair loop; the sums run in
        # another order, hence the tolerance
        g = random_stream(rng, n_nodes=10, n_events=400)
        u, v = np.triu_indices(10, k=1)
        u, v = np.concatenate([u, v[:7]]), np.concatenate([v, u[:7]])  # both orientations
        # the oracle at decay rate lam against the stream with its times scaled by lam
        for t0, lam in ((g.t_max * 0.9, 1.0), (events_of(g)[150].t, 0.3), (g.t_max + 1.0, 2.0), (0.0, 1.0)):
            got = heuristic_reference(scaled(g, lam), u, v, t0 * lam)
            want = pairwise_reference(g, u, v, t0, lam=lam)
            assert (got > 0).tolist() == (want > 0).tolist()
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert heuristic_reference(g, [], [], 1.0).shape == (0,)
        assert heuristic_reference(from_events([], num_nodes=3), [0], [1], 1.0).tolist() == [0.0]


class TestEvaluate:
    def planted_split(self, seed=0):
        rng = np.random.default_rng(seed)
        events = []
        # two communities; in-community chatter, zero cross talk
        for t in np.cumsum(rng.exponential(0.05, size=500)):
            c = int(rng.integers(2))
            base = 0 if c == 0 else 10
            u, v = rng.choice(10, size=2, replace=False)
            events.append(Event(base + int(u), base + int(v), float(t)))
        g = from_events(events, num_nodes=20)
        return split_train_test(g, 0.75)

    def test_structural_report(self):
        split = self.planted_split()
        cfg = TrainConfig(m=4, d0=16, d1=8, d2=8, seed=3)
        feats = random_features(20, 16, named_rng(3, "features"))
        params = init_params(named_rng(3, "params"), 16, 8, 8, 4)
        report = evaluate(split, params, feats, cfg)
        assert report.n_pos == len(split.test_pairs)
        assert report.n_neg == report.n_pos
        assert set(report.similarity) == {"Cos", "Had", "L2"}
        for d in report.similarity.values():
            assert 0.0 <= d["auc"] <= 1.0
            assert 0.0 <= d["map"] <= 1.0
        assert report.best_auc == max(d["auc"] for d in report.similarity.values())
        assert report.best_map == max(d["map"] for d in report.similarity.values())

    def test_untrained_model_beats_coin_flip_on_communities(self):
        # random params, but history + community structure alone separate
        split = self.planted_split(seed=1)
        cfg = TrainConfig(m=4, d0=16, d1=8, d2=8, seed=4)
        feats = random_features(20, 16, named_rng(4, "features"))
        params = init_params(named_rng(4, "params"), 16, 8, 8, 4)
        report = evaluate(split, params, feats, cfg)
        assert report.best_auc > 0.5

    def test_deterministic_given_seed(self):
        split = self.planted_split(seed=2)
        cfg = TrainConfig(m=4, d0=16, d1=8, d2=8, seed=5)
        feats = random_features(20, 16, named_rng(5, "features"))
        params = init_params(named_rng(5, "params"), 16, 8, 8, 4)
        r1 = evaluate(split, params, feats, cfg)
        r2 = evaluate(split, params, feats, cfg)
        assert r1.to_dict() == r2.to_dict()

    def test_per_node_map_flag(self):
        split = self.planted_split(seed=3)
        cfg = TrainConfig(m=4, d0=16, d1=8, d2=8, seed=6)
        feats = random_features(20, 16, named_rng(6, "features"))
        params = init_params(named_rng(6, "params"), 16, 8, 8, 4)
        report = evaluate(split, params, feats, cfg, per_node_map=True)
        for d in report.similarity.values():
            assert "map_per_node" in d

    @pytest.mark.parametrize("selection", [True, False])
    def test_matches_scored_pair_oracle(self, selection):
        split = self.planted_split(seed=3)
        cfg = TrainConfig(m=4, d0=16, d1=8, d2=8, seed=6, ablation="STGNN" if selection else "BGNN+I")
        feats = random_features(20, 16, named_rng(6, "features"))
        params = init_params(named_rng(6, "params"), 16, 8, 8, 4)
        report = evaluate(split, params, feats, cfg, per_node_map=True)

        # the same held-out pairs as a list of ScoredPair, scored row by row
        positives = split.test_pairs.tolist()
        negatives = sample_test_negatives(split, len(positives), named_rng(6, "eval-negatives")).tolist()
        labeled = [(u, v, 1) for u, v in positives] + [(u, v, 0) for u, v in negatives]
        emb = node_embeddings(split.train, params, feats, split.t_split, cfg)
        h_u = emb[[u for u, _, _ in labeled]]
        h_v = emb[[v for _, v, _ in labeled]]
        for kind in SIMILARITIES:
            scores = score_pair(h_u, h_v, kind).tolist()
            pairs = [ScoredPair(u, v, s, lab) for (u, v, lab), s in zip(labeled, scores)]
            got = report.similarity[kind]
            assert got["auc"] == list_auc(pairs)
            assert got["map"] == list_map(pairs)
            assert got["map_per_node"] == pytest.approx(list_map(pairs, per_node=True), abs=1e-15)
        t0 = split.t_split
        ref = [
            ScoredPair(u, v, initial_significance(pair_history(split.train, u, v, t0), t0), lab)
            for u, v, lab in labeled
        ]
        assert report.reference_auc == list_auc(ref)


def scalar_negatives(g, n: int, rng) -> tuple[list[list[int]], int]:
    """The per-try loop that sample_test_negatives reproduces: two scalar
    draws per try, checked as (u, v) tuples against the row-built pair
    index of the whole stream, within 200 * n + 1000 tries.  Returns the
    pairs and the first try (0-based) that drew a pair accepted earlier,
    or -1."""
    linked, accepted, repeat = set(pair_index(g)), [], -1
    for i in range(200 * n + 1000):
        if len(accepted) == n:
            break
        a, b = int(rng.integers(g.num_nodes)), int(rng.integers(g.num_nodes))
        key = (min(a, b), max(a, b))
        if a != b and key not in linked:
            linked.add(key)
            accepted.append(list(key))
        elif repeat < 0 and list(key) in accepted:
            repeat = i
    if len(accepted) < n:
        raise ValueError("graph too dense")
    return accepted, repeat


@st.composite
def sampling_cases(draw):
    """A stream of 3 to 40 nodes with distinct contact times, a generator
    seed, and n from 0 up to the number of pairs never linked in it; on
    small streams also one more, which spends every try ("dense")."""
    n_nodes = draw(st.integers(3, 8) | st.integers(3, 40))
    node = st.integers(0, n_nodes - 1)
    ends = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]), min_size=2, max_size=150))
    g = from_events([Event(u, v, float(t)) for t, (u, v) in enumerate(ends, 1)], num_nodes=n_nodes)
    free = n_nodes * (n_nodes - 1) // 2 - len(pair_index(g))
    n = [st.integers(0, free), st.just(free)] + [st.just(free + 1)] * (free < 100)
    return g, draw(st.one_of(n)), draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sampling_cases())
def test_block_draws_match_scalar_loop(case):
    """The block sampler returns the scalar loop's pairs in its order, or
    its "dense" error when the tries run out, and leaves the generator
    where the loop leaves it."""
    g, n, seed = case
    split = split_train_test(g, 0.75)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        want, _ = scalar_negatives(g, n, want_rng)
    except ValueError:
        with pytest.raises(ValueError, match="dense"):
            sample_test_negatives(split, n, got_rng)
    else:
        assert sample_test_negatives(split, n, got_rng).tolist() == want
    assert got_rng.integers(2**62) == want_rng.integers(2**62)


class TestNegativeSampling:
    def test_never_linked_anywhere(self, rng):
        g = random_stream(rng, n_nodes=30, n_events=300)
        split = split_train_test(g, 0.75)
        negs = sample_test_negatives(split, 50, named_rng(0, "eval-neg"))
        assert negs.shape == (50, 2) and negs.dtype == np.int64
        negs = [tuple(p) for p in negs.tolist()]
        assert len(set(negs)) == 50
        linked = set(pair_index(split.train)) | {tuple(p) for p in split.test_pairs.tolist()}
        assert linked == set(pair_index(g))
        for u, v in negs:
            assert u < v and (u, v) not in linked

    def test_draws_match_tuple_oracle(self, rng):
        # the same draws, in the same order, as a check of (u, v) tuples
        # against the row-built pair index
        g = random_stream(rng, n_nodes=30, n_events=300)
        split = split_train_test(g, 0.75)
        got_rng, want_rng = named_rng(0, "eval-neg"), named_rng(0, "eval-neg")
        got = sample_test_negatives(split, 80, got_rng)
        taken, want = set(pair_index(g)), []
        while len(want) < 80:
            a, b = int(want_rng.integers(30)), int(want_rng.integers(30))
            key = (min(a, b), max(a, b))
            if a != b and key not in taken:
                taken.add(key)
                want.append(list(key))
        assert got.tolist() == want
        assert got_rng.integers(2**62) == want_rng.integers(2**62)
        assert sample_test_negatives(split, 0, got_rng).shape == (0, 2)

    def test_key_drawn_twice_in_one_block(self):
        # 6 nodes with one linked pair leave 14 free pairs; asking for all
        # of them redraws an accepted pair within the first 64 tries, and
        # the first block holds at least 64, so it sees that key twice
        g = from_events([Event(0, 1, 1.0), Event(0, 1, 2.0)], num_nodes=6)
        split = split_train_test(g, 0.75)
        got_rng, want_rng = named_rng(0, "eval-neg"), named_rng(0, "eval-neg")
        want, repeat = scalar_negatives(g, 14, want_rng)
        assert 0 <= repeat < 64
        assert sample_test_negatives(split, 14, got_rng).tolist() == want
        assert got_rng.integers(2**62) == want_rng.integers(2**62)

    def test_dense_graph_errors(self):
        # complete 4-node interaction history leaves no never-linked pairs
        events = []
        t = 0.0
        for u in range(4):
            for v in range(u + 1, 4):
                t += 1.0
                events.append(Event(u, v, t))
        events.append(Event(0, 1, t + 1.0))
        g = from_events(events, num_nodes=4)
        split = split_train_test(g, 0.9)
        with pytest.raises(ValueError, match="dense"):
            sample_test_negatives(split, 3, named_rng(0, "x"))


# node counts whose ids need uint8, uint16 and uint32 sort keys
KEY_WIDTHS = (200, 5000, 70_000)


@st.composite
def ranking_cases(draw):
    """A split over one of KEY_WIDTHS nodes whose held-out pairs join a
    few hub nodes, the largest id always among them, and per similarity
    one score per held-out pair: tie-heavy, with -0.0 beside 0.0."""
    n_nodes = draw(st.sampled_from(KEY_WIDTHS))
    hubs = draw(st.lists(st.integers(0, n_nodes - 2), min_size=2, max_size=12, unique=True)) + [n_nodes - 1]
    hub = st.sampled_from(hubs)
    k = draw(st.integers(0, 60))
    late = [(hubs[0], n_nodes - 1)] + draw(st.lists(st.tuples(hub, hub), min_size=k, max_size=k))
    late = [(u, v) for u, v in late if u != v]
    events = [Event(hubs[0], hubs[1], 1.0)] + [Event(u, v, 10.0 + i) for i, (u, v) in enumerate(late)]
    split = split_train_test(from_events(events, num_nodes=n_nodes), 0.5)
    n = 2 * split.test_pairs.shape[0]  # the positives, then as many negatives
    score = st.sampled_from([-0.5, -0.0, 0.0, 0.25, 0.5]) | st.floats(-1.0, 1.0)
    scores = {kind: draw(st.lists(score, min_size=n, max_size=n)) for kind in SIMILARITIES}
    return split, scores


@settings(derandomize=True, max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ranking_cases())
def test_evaluate_ranks_like_the_list_oracle(case):
    """``evaluate`` ranks each similarity's scores once for AUC, MAP and
    per-node MAP; each equals the ScoredPair oracle on the same pairs.
    Per-node MAP is bitwise the oracle's below eight positives per node
    (see test_tie_heavy_matches_list_oracle)."""
    split, scores = case
    cfg = TrainConfig(m=2, d0=4, d1=4, d2=4, seed=9)
    feats = random_features(split.train.num_nodes, 4, named_rng(9, "features"))
    params = init_params(named_rng(9, "params"), 4, 4, 4, 2)
    with mock.patch.object(evaluation, "score_pair", lambda h_u, h_v, kind: np.asarray(scores[kind])):
        report = evaluate(split, params, feats, cfg, per_node_map=True)

    positives = split.test_pairs.tolist()
    negatives = sample_test_negatives(split, len(positives), named_rng(9, "eval-negatives")).tolist()
    labeled = [(u, v, 1) for u, v in positives] + [(u, v, 0) for u, v in negatives]
    positives_per_node = np.bincount([x for u, v, lab in labeled if lab for x in (u, v)])
    for kind in SIMILARITIES:
        pairs = [ScoredPair(u, v, s, lab) for (u, v, lab), s in zip(labeled, scores[kind])]
        got = report.similarity[kind]
        assert got["auc"] == list_auc(pairs)
        assert got["map"] == list_map(pairs)
        if positives_per_node.max() < 8:
            assert got["map_per_node"] == list_map(pairs, per_node=True)
        else:
            assert got["map_per_node"] == pytest.approx(list_map(pairs, per_node=True), abs=1e-12)


class TestNanScores:
    """A NaN score has no rank: every metric raises before ranking."""

    def test_auc_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            auc([1, 0, 0], [0.5, np.nan, 0.1])

    @pytest.mark.parametrize("per_node", [False, True])
    def test_map_raises(self, per_node):
        with pytest.raises(ValueError, match="NaN"):
            mean_average_precision([1, 0], [np.nan, 0.1], [0, 1], [2, 3], per_node=per_node)

    def test_evaluate_raises(self, rng):
        split = split_train_test(random_stream(rng, n_nodes=10, n_events=60), 0.75)
        cfg = TrainConfig(m=2, d0=4, d1=4, d2=4, seed=3)
        feats = random_features(10, 4, named_rng(3, "features"))
        params = init_params(named_rng(3, "params"), 4, 4, 4, 2)
        nan_scores = lambda h_u, h_v, kind: np.full(h_u.shape[0], np.nan)
        with mock.patch.object(evaluation, "score_pair", nan_scores), pytest.raises(ValueError, match="NaN"):
            evaluate(split, params, feats, cfg)
