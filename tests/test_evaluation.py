import numpy as np
import pytest

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
from conftest import random_stream
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
        for t0, lam in ((g.t_max * 0.9, 1.0), (events_of(g)[150].t, 0.3), (g.t_max + 1.0, 2.0), (0.0, 1.0)):
            got = heuristic_reference(g, u, v, t0, lam=lam)
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
        assert set(report.per_similarity) == {"Cos", "Had", "L2"}
        for d in report.per_similarity.values():
            assert 0.0 <= d["auc"] <= 1.0
            assert 0.0 <= d["map"] <= 1.0
        assert report.best_auc == max(d["auc"] for d in report.per_similarity.values())
        assert report.best_map == max(d["map"] for d in report.per_similarity.values())

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
        for d in report.per_similarity.values():
            assert "map_per_node" in d

    @pytest.mark.parametrize("selection", [True, False])
    def test_matches_scored_pair_oracle(self, selection):
        split = self.planted_split(seed=3)
        cfg = TrainConfig(m=4, d0=16, d1=8, d2=8, seed=6, use_significant_selection=selection)
        feats = random_features(20, 16, named_rng(6, "features"))
        params = init_params(named_rng(6, "params"), 16, 8, 8, 4)
        report = evaluate(split, params, feats, cfg, per_node_map=True)

        # the same held-out pairs as a list of ScoredPair, scored row by row
        positives = split.test_pairs.tolist()
        negatives = sample_test_negatives(split, len(positives), named_rng(6, "eval-negatives")).tolist()
        labeled = [(u, v, 1) for u, v in positives] + [(u, v, 0) for u, v in negatives]
        involved = sorted({x for u, v, _ in labeled for x in (u, v)})
        emb = node_embeddings(split.train, params, feats, involved, split.t_split, cfg)
        h_u = emb[np.searchsorted(involved, [u for u, _, _ in labeled])]
        h_v = emb[np.searchsorted(involved, [v for _, v, _ in labeled])]
        for kind in SIMILARITIES:
            scores = score_pair(h_u, h_v, kind).tolist()
            pairs = [ScoredPair(u, v, s, lab) for (u, v, lab), s in zip(labeled, scores)]
            got = report.per_similarity[kind]
            assert got["auc"] == list_auc(pairs)
            assert got["map"] == list_map(pairs)
            assert got["map_per_node"] == pytest.approx(list_map(pairs, per_node=True), abs=1e-15)
        t0 = split.t_split
        ref = [
            ScoredPair(u, v, initial_significance(pair_history(split.train, u, v, t0), t0, lam=cfg.lam), lab)
            for u, v, lab in labeled
        ]
        assert report.reference_auc == list_auc(ref)


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
