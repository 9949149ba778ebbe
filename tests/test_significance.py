import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stgnn.significance import (
    SignificanceIndex,
    TopMTable,
    pair_significance,
    top_m_neighbors,
)
from stgnn.temporal_graph import pair_keys
from stgnn.training import build_positive_samples
from conftest import index_pair_score, random_stream, scaled, table_list, tied_stream
from reference_model import (
    Event,
    entry_sort_top_m_neighbors,
    events_of,
    from_events,
    initial_significance,
    m_smallest_keys,
    pair_history,
    pure_top_m,
    significance_label,
    sweep_table,
)


def row(g, u, t, m, rng=None):
    """Node u's list from one array pass, cut to its valid slots."""
    ids, scores, mask = top_m_neighbors(g, t, m, rng)
    return ids[u][mask[u]], scores[u][mask[u]]


def assert_uniform(counts, builds, m, k):
    """Each of k candidates drawn with probability m / k per build, within
    4.5 binomial standard deviations (two-sided p < 1e-5 per candidate)."""
    p = m / k
    bound = 4.5 * np.sqrt(builds * p * (1 - p))
    assert counts.sum() == m * builds
    assert np.all(np.abs(counts - builds * p) <= bound), counts


def coarse_tied_stream(rng):
    """A random stream on a coarse time grid: most event times are shared."""
    g = random_stream(rng, n_nodes=12, n_events=400)
    return from_events([Event(e.u, e.v, round(e.t, 1)) for e in events_of(g)], num_nodes=12)


def long_gap_stream(rng):
    """A random stream broken by two gaps of 800 time units, across which
    every decayed score underflows to 0 (exp(-800) is below the smallest
    double)."""
    events = events_of(random_stream(rng, n_nodes=12, n_events=400))
    return from_events([Event(e.u, e.v, e.t + 800.0 * (3 * i // 400)) for i, e in enumerate(events)], num_nodes=12)


def named_stream(name, rng):
    """The tied, coarse-tie or long-gap stream."""
    return {"tied": lambda: tied_stream(32), "coarse": lambda: coarse_tied_stream(rng),
            "long-gap": lambda: long_gap_stream(rng)}[name]()


def assert_same_table(got, want):
    for name in ("m", "times", "keys", "row_t", "ids", "scores", "lens"):
        a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def uneven_star():
    """Node 0 with k = 6 neighbors of unequal significance by t = 3."""
    events = [Event(0, v, 0.1 * i) for i, v in enumerate([1, 1, 1, 2, 2, 3, 4, 5, 6, 6, 6, 6])]
    return from_events(events + [Event(0, 3, 2.0), Event(1, 2, 2.0)], num_nodes=7)


class TestInitialSignificance:
    def test_empty_history(self):
        assert initial_significance([], 10.0) == 0.0

    def test_analytic_two_events(self):
        t = 7.0
        got = initial_significance([t - 1.0, t - 2.0], t)
        assert got == pytest.approx(math.exp(-1) + math.exp(-2), abs=1e-12)
        assert got == pytest.approx(0.50321, abs=1e-5)

    def test_future_event_rejected(self):
        with pytest.raises(ValueError):
            initial_significance([1.0, 5.0], 5.0)

    def test_bounded_by_event_count(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 30))
            t = 100.0
            hist = np.sort(rng.uniform(0, t - 1e-9, size=n))
            s = initial_significance(hist, t)
            assert 0.0 <= s <= n

    def test_near_coincident_events_approach_count(self):
        t = 5.0
        hist = [t - 1e-12] * 7
        assert initial_significance(hist, t) == pytest.approx(7.0, rel=1e-9)

    def test_decay_decomposition(self, rng):
        # s(t) = exp(-lam (t - t')) * s(t') for t' between last event and t
        for _ in range(100):
            hist = np.sort(rng.uniform(0, 10, size=int(rng.integers(1, 20))))
            t_mid = float(rng.uniform(hist[-1] + 1e-9, 12.0))
            t = float(rng.uniform(t_mid, 15.0))
            lam = float(rng.uniform(0.2, 3.0))
            direct = initial_significance(hist, t, lam)
            stepped = math.exp(-lam * (t - t_mid)) * initial_significance(hist, t_mid, lam)
            assert direct == pytest.approx(stepped, rel=1e-12)

    def test_monotone_decay_without_new_events(self):
        hist = [0.0, 1.0, 2.0]
        s = [initial_significance(hist, t) for t in (2.5, 3.0, 5.0, 9.0)]
        assert all(b < a for a, b in zip(s, s[1:]))


class TestPairSignificance:
    """``pair_significance``: every pair's score and log score at one time."""

    @pytest.mark.parametrize("stream", ["random", "tied", "coarse"])
    def test_scores_match_streaming_index(self, stream, rng):
        # at event times (ties with the query time left out) and after the last event
        g = random_stream(rng) if stream == "random" else named_stream(stream, rng)
        times = np.unique(g.t)
        for t in [*times[1 :: max(1, times.shape[0] // 8)].tolist(), g.t_max + 1.0]:
            index = SignificanceIndex(g.num_nodes)
            for e in events_of(g):
                if e.t < t:
                    index.add_event(e.u, e.v, e.t)
            pairs, scores, logs = pair_significance(g, t)
            before = g.t < t
            keys = g.pair_key[pairs]
            assert keys.tolist() == np.unique(pair_keys(g.src[before], g.dst[before], g.num_nodes)).tolist()
            u, v = np.divmod(keys, g.num_nodes)
            want = [index_pair_score(index, a, b, t) for a, b in zip(u.tolist(), v.tolist())]
            np.testing.assert_allclose(scores, want, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(np.exp(logs), scores, rtol=1e-12, atol=0.0)

    def test_underflowed_scores_keep_finite_logs_ordered_by_recency(self, rng):
        # past each gap of 800 every older score is 0, and the log scores,
        # log s - (t - t_last) with 1 <= s <= 400, rank the pairs by the part of
        # the stream they were last seen in
        g = long_gap_stream(rng)
        times = np.unique(g.t)
        gap_ends = times[1:][np.diff(times) > 100.0]
        for t in [gap_ends[0] + 1.0, gap_ends[1] + 1.0, g.t_max + 2000.0]:
            pairs, scores, logs = pair_significance(g, t)
            assert np.isfinite(logs).all()
            u, v = np.divmod(g.pair_key[pairs], g.num_nodes)
            history = [pair_history(g, a, b, t) for a, b in zip(u.tolist(), v.tolist())]
            want = [math.log(np.exp(h - h[-1]).sum()) - (t - h[-1]) for h in history]
            np.testing.assert_allclose(logs, want, rtol=1e-12, atol=0.0)
            part = np.searchsorted(gap_ends, [h[-1] for h in history], side="right")
            underflowed = scores == 0.0
            assert underflowed.any()
            assert np.all(part[underflowed] < part[~underflowed].min(initial=3))
            by_log = np.argsort(-logs, kind="stable")
            assert np.all(np.diff(part[by_log]) <= 0)


class TestTopM:
    """The array pass ``top_m_neighbors``: every node's list at one time."""

    def test_single_neighbor_any_capacity(self):
        g = from_events([Event(0, 1, 0.0)], num_nodes=3)
        ids, _ = row(g, 0, 1.0, m=5)
        assert ids.tolist() == [1]

    def test_recency_beats_stale_frequency(self):
        # one recent contact outranks five ten-units-old ones
        t = 20.0
        events = [Event(0, 1, t - 0.1)] + [Event(0, 2, t - 10.0 - i * 1e-6) for i in range(5)]
        g = from_events(events, num_nodes=3)
        ids, scores = row(g, 0, t, m=2)
        assert ids.tolist() == [1, 2]
        assert scores[0] == pytest.approx(math.exp(-0.1), rel=1e-9)
        assert scores[1] == pytest.approx(5 * math.exp(-10.0), rel=1e-4)

    def test_matches_brute_force(self, rng):
        g = random_stream(rng, n_nodes=15, n_events=500)
        for _ in range(100):
            u = int(rng.integers(15))
            t = float(rng.uniform(0, g.t_max * 1.05))
            scored = []
            for v in range(15):
                if v == u:
                    continue
                hist = [e.t for e in events_of(g) if {e.u, e.v} == {u, v} and e.t < t]
                if hist:
                    scored.append((v, initial_significance(hist, t)))
            scored.sort(key=lambda x: (-x[1], x[0]))
            want = [v for v, _ in scored[:5]]
            assert row(g, u, t, m=5)[0].tolist() == want
            assert pure_top_m(g, u, t, m=5)[0].tolist() == want

    def test_isolated_node_empty(self):
        g = from_events([Event(0, 1, 0.0)], num_nodes=4)
        ids, scores, mask = top_m_neighbors(g, 1.0, m=3)
        assert ids.shape == scores.shape == mask.shape == (4, 3)
        assert not mask[2:].any() and not ids[2:].any() and not scores[2:].any()
        ids, scores, mask = top_m_neighbors(from_events([], num_nodes=2), 1.0, m=3)
        assert ids.shape == (2, 3) and not mask.any()

    def test_permutation_invariance(self, rng):
        events = [
            Event(int(u), int(v), float(t))
            for u, v, t in zip(
                rng.integers(0, 8, 60), rng.integers(8, 16, 60), rng.uniform(0, 10, 60)
            )
        ]
        g1 = from_events(list(events), num_nodes=16)
        perm = list(events)
        rng.shuffle(perm)
        g2 = from_events(perm, num_nodes=16)
        a_ids, a_scores, a_mask = top_m_neighbors(g1, 11.0, m=4)
        b_ids, b_scores, b_mask = top_m_neighbors(g2, 11.0, m=4)
        np.testing.assert_array_equal(a_ids, b_ids)
        np.testing.assert_array_equal(a_mask, b_mask)
        np.testing.assert_allclose(a_scores, b_scores, rtol=1e-15)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_pure_oracle(self, seed):
        rng = np.random.default_rng(seed)
        g = random_stream(rng, n_nodes=12, n_events=250)
        # three nodes that never interact
        g = from_events(events_of(g), num_nodes=15)
        t_event = events_of(g)[150].t
        # the oracle at decay rate 0.7 against the stream with its times scaled by 0.7
        g_07 = scaled(g, 0.7)
        for t in (t_event, float(rng.uniform(0, g.t_max)), g.t_max + 2.0, 0.0):
            for m in (1, 3, 30):
                ids, scores, mask = top_m_neighbors(g_07, t * 0.7, m)
                assert ids.shape == scores.shape == mask.shape == (15, m)
                for u in range(15):
                    ref_ids, ref_scores = pure_top_m(g, u, t, m, lam=0.7)
                    k = ref_ids.shape[0]
                    assert mask[u].tolist() == [True] * k + [False] * (m - k)
                    assert ids[u, :k].tolist() == ref_ids.tolist()
                    np.testing.assert_allclose(scores[u, :k], ref_scores, rtol=1e-12, atol=0.0)
                    assert not ids[u, k:].any() and not scores[u, k:].any()
                assert not mask[12:].any()

    @pytest.mark.parametrize("n_nodes", [200, 5000, 70_000])
    def test_wide_ids_match_pure_oracle(self, n_nodes):
        # node ids on uint8, uint16 and uint32 sort keys; contacts share
        # timestamps, so equal scores fall back to the neighbor id order
        rng = np.random.default_rng(n_nodes)
        nodes = np.r_[rng.choice(n_nodes - 1, size=15, replace=False), n_nodes - 1]
        events = [
            Event(int(u), int(v), float(rng.integers(5)))
            for u, v in (rng.choice(nodes, size=2, replace=False) for _ in range(120))
        ]
        g = from_events(events, num_nodes=n_nodes)
        for t, m in ((2.0, 3), (5.0, 4), (5.0, 16)):
            ids, scores, mask = top_m_neighbors(g, t, m)
            for u in nodes.tolist():
                ref_ids, ref_scores = pure_top_m(g, u, t, m)
                k = ref_ids.shape[0]
                assert mask[u].tolist() == [True] * k + [False] * (m - k)
                assert ids[u, :k].tolist() == ref_ids.tolist()
                np.testing.assert_allclose(scores[u, :k], ref_scores, rtol=1e-12, atol=0.0)
            assert mask.sum() == sum(pure_top_m(g, u, t, m)[0].shape[0] for u in nodes.tolist())

    def test_query_at_event_time_is_strictly_before(self):
        g = from_events(
            [Event(0, 1, 1.0), Event(0, 2, 2.0), Event(2, 0, 2.0), Event(0, 1, 2.0)],
            num_nodes=3,
        )
        ids, scores = row(g, 0, 2.0, m=3)
        assert ids.tolist() == [1]
        np.testing.assert_allclose(scores, [math.exp(-1.0)], rtol=1e-15)
        assert row(g, 2, 2.0, m=3)[0].size == 0


class TestRandomRows:
    """``top_m_neighbors`` with an rng: each row a uniform draw of up to m
    of the node's candidates, drawn in node order by the rule of
    ``m_smallest_keys``."""

    def test_rows_are_ranked_subsets_of_the_oracle(self, rng):
        g = random_stream(rng, n_nodes=12, n_events=400)
        m, n, drawn = 3, g.num_nodes, 0
        for t in (events_of(g)[200].t, g.t_max + 1.0):
            ids, scores, mask = top_m_neighbors(g, t, m, rng=np.random.default_rng(5))
            for u in range(n):
                ref_ids, ref_scores = pure_top_m(g, u, t, m=n)
                a, s, ok = ids[u][mask[u]], scores[u][mask[u]], mask[u]
                assert ok.tolist() == sorted(ok.tolist(), reverse=True)
                assert a.shape[0] == min(m, ref_ids.shape[0])
                assert set(a.tolist()) <= set(ref_ids.tolist())
                assert all(s[i] > s[i + 1] or (s[i] == s[i + 1] and a[i] < a[i + 1]) for i in range(len(a) - 1))
                by_id = dict(zip(ref_ids.tolist(), ref_scores.tolist()))
                np.testing.assert_allclose(s, [by_id[x] for x in a.tolist()], rtol=1e-12, atol=0.0)
                drawn += ref_ids.shape[0] > m
        assert drawn > 10

    def test_draws_follow_node_order(self, rng):
        g = random_stream(rng, n_nodes=10, n_events=300)
        t, m = g.t_max, 2
        ids, _, mask = top_m_neighbors(g, t, m, rng=np.random.default_rng(3))
        gen = np.random.default_rng(3)
        for u in range(10):
            want, _ = m_smallest_keys(*pure_top_m(g, u, t, m=10), m, gen)
            assert ids[u][mask[u]].tolist() == want

    def test_draws_are_uniform(self):
        g = uneven_star()
        m, k, builds = 2, 6, 600
        counts = np.zeros(7)
        for seed in range(builds):
            counts[row(g, 0, 3.0, m, rng=np.random.default_rng(seed))[0]] += 1
        assert counts[0] == 0
        assert_uniform(counts[1:], builds, m, k)

    def test_equal_seeds_give_equal_arrays(self, rng):
        g = random_stream(rng, n_nodes=12, n_events=300)
        a = top_m_neighbors(g, g.t_max, 3, rng=np.random.default_rng(9))
        b = top_m_neighbors(g, g.t_max, 3, rng=np.random.default_rng(9))
        for x, y in zip(a, b):
            assert x.tobytes() == y.tobytes()
        gen = np.random.default_rng(9)
        first, second = top_m_neighbors(g, g.t_max, 3, rng=gen), top_m_neighbors(g, g.t_max, 3, rng=gen)
        assert first[0].tobytes() == a[0].tobytes()
        assert not np.array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[2], second[2])


def labels(g, delta):
    """The label column of build_positive_samples."""
    return build_positive_samples(g, delta)[3].tolist()


class TestLabel:
    """The forward-window label of each event, from the label column of
    stgnn.training.build_positive_samples and the per-pair oracle."""

    def test_interval_counting(self):
        t, delta = 10.0, 4.0
        g = from_events(
            [Event(0, 1, t), Event(0, 1, t + 0.5 * delta), Event(0, 1, t + 2 * delta)]
        )
        assert labels(g, delta)[0] == 2
        assert significance_label(g, 0, 1, t, delta) == 2

    def test_empty_window(self):
        g = from_events([Event(0, 1, 0.0)], num_nodes=3)
        assert significance_label(g, 0, 2, 5.0, 1.0) == 0

    def test_six_versus_one_scenario(self):
        # dense pair gets label 6, casual pair label 1, same anchor time
        t, delta = 10.0, 5.0
        events = [Event(0, 1, t + i * 0.5) for i in range(6)]
        events.append(Event(0, 2, t))
        events.append(Event(0, 2, t + delta + 1.0))  # outside the window
        g = from_events(events, num_nodes=3)
        assert labels(g, delta)[:2] == [6, 1]  # the two events at t, (0, 1) first
        assert significance_label(g, 0, 1, t, delta) == 6
        assert significance_label(g, 0, 2, t, delta) == 1

    def test_anchor_inclusive_end_exclusive(self):
        g = from_events([Event(0, 1, 1.0), Event(0, 1, 3.0)])
        assert labels(g, 2.0)[0] == 1  # t+delta exactly excluded
        assert labels(g, 2.5)[0] == 2
        assert significance_label(g, 0, 1, 1.0, 2.0) == 1
        assert significance_label(g, 0, 1, 1.0, 2.5) == 2

    def test_nonpositive_window_rejected(self):
        g = from_events([Event(0, 1, 0.0)])
        for delta in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="window size"):
                build_positive_samples(g, delta)
        with pytest.raises(ValueError):
            significance_label(g, 0, 1, 0.0, 0.0)


class TestTopMTable:
    def test_matches_pure_route_with_ties(self, rng):
        g = random_stream(rng, n_nodes=20, n_events=1500)
        # force simultaneous events into the stream
        events = events_of(g)
        events += [Event(0, 1, 5.0), Event(0, 1, 5.0), Event(2, 0, 5.0)]
        g = from_events(events, num_nodes=20)

        table = TopMTable.build(g, 6)
        probes = 0
        i, evs = 0, events_of(g)
        while i < len(evs):
            j, t = i, evs[i].t
            while j < len(evs) and evs[j].t == t:
                j += 1
            if rng.random() < 0.1:
                u = int(rng.integers(20))
                ids, scores = table_list(table, u, t)
                ref_ids, ref_scores = pure_top_m(g, u, t, 6)
                assert list(ids) == ref_ids.tolist()
                np.testing.assert_allclose(scores, ref_scores, rtol=1e-9)
                probes += 1
            i = j
        assert probes > 20

    @pytest.mark.parametrize("m_max", [1024, 7])
    @pytest.mark.parametrize("stream", ["tied", "coarse", "long-gap"])
    def test_matches_list_sweep_bitwise(self, stream, m_max, rng):
        # m_max = 1024 is above every node's candidate count, so no row is cut
        g = scaled(named_stream(stream, rng), 0.7)
        for m in (1, 3, m_max):
            table = TopMTable.build(g, m)
            assert_same_table(table, sweep_table(g, m))
        if stream == "long-gap":  # stored rows hold underflowed scores
            assert (table.scores[np.arange(m) < table.lens[:, None]] == 0.0).any()

    def test_rescale_is_exact(self):
        g = from_events([Event(0, 1, 0.0), Event(0, 2, 1.0)], num_nodes=3)
        table = TopMTable.build(g, 2)
        ids1, s1 = table_list(table, 0, 2.0)
        ids2, s2 = table_list(table, 0, 4.0)
        np.testing.assert_array_equal(ids1, ids2)
        np.testing.assert_allclose(s2, s1 * math.exp(-2.0), rtol=1e-15)

    def test_query_at_event_time_is_strictly_before(self):
        g = from_events(
            [Event(0, 1, 1.0), Event(0, 2, 2.0), Event(2, 0, 2.0), Event(0, 1, 2.0)],
            num_nodes=3,
        )
        table = TopMTable.build(g, 3)
        ids, scores = table_list(table, 0, 2.0)
        assert ids.tolist() == [1]
        np.testing.assert_allclose(scores, [math.exp(-1.0)], rtol=1e-15)
        ids, scores = table_list(table, 2, 2.0)
        assert ids.size == 0
        ids, scores = table_list(table, 0, 3.0)
        assert ids.tolist() == [2, 1]
        np.testing.assert_allclose(
            scores, [2 * math.exp(-1.0), math.exp(-1.0) + math.exp(-2.0)], rtol=1e-15
        )

    def test_query_before_first_event_is_empty(self):
        g = from_events([Event(0, 1, 1.0), Event(2, 3, 0.5)], num_nodes=5)
        table = TopMTable.build(g, 2)
        ids, scores, mask = table.lookup([0, 1, 4, 2], [0.5, 1.0, 9.0, 0.4])
        assert not mask.any()
        assert not ids.any() and not scores.any()

    def test_query_after_last_event(self, rng):
        g = random_stream(rng, n_nodes=10, n_events=200)
        table = TopMTable.build(g, 4)
        t = g.t_max + 3.0
        for u in range(10):
            ids, scores = table_list(table, u, t)
            ref_ids, ref_scores = pure_top_m(g, u, t, 4)
            assert ids.tolist() == ref_ids.tolist()
            np.testing.assert_allclose(scores, ref_scores, rtol=1e-12)

    def test_ties_beyond_capacity_keep_smaller_ids(self):
        g = from_events([Event(0, v, 1.0) for v in (5, 3, 4, 1, 2)], num_nodes=6)
        table = TopMTable.build(g, 3)
        ids, scores = table_list(table, 0, 2.0)
        assert ids.tolist() == [1, 2, 3]
        np.testing.assert_array_equal(scores, np.full(3, math.exp(-1.0)))

    def test_underflowed_score_keeps_its_slot(self):
        g = from_events([Event(0, 1, 0.0), Event(0, 2, 1.0)], num_nodes=3)
        table = TopMTable.build(g, 2)
        ids, scores, mask = table.lookup([0], [2000.0])
        assert mask.tolist() == [[True, True]]
        # the order just after t = 1, which the pure route's log-domain tie rule keeps
        assert ids.tolist() == [[2, 1]]
        np.testing.assert_array_equal(scores, 0.0)
        assert pure_top_m(g, 0, 2000.0, 2)[0].tolist() == [2, 1]

    def test_long_gap_probe(self):
        # scores at t = 2000 underflow to 0; the log scores rank 3, 2, 1
        events = [Event(0, 1, 0.0), Event(0, 1, 1.0), Event(0, 1, 2.0), Event(0, 2, 5.0), Event(0, 3, 10.0)]
        g = from_events(events, num_nodes=4)
        ids, scores, mask = TopMTable.build(g, 2).lookup([0], [2000.0])
        assert ids.tolist() == [[3, 2]] and mask.all() and not scores.any()
        assert row(g, 0, 2000.0, m=2)[0].tolist() == [3, 2]
        assert pure_top_m(g, 0, 2000.0, 2)[0].tolist() == [3, 2]

    def test_long_gap_stream_matches_pure_route(self, rng):
        # across each gap every score underflows; a row that stored no
        # underflowed score keeps the pure route's order after it
        g, m = long_gap_stream(rng), 3
        table = TopMTable.build(g, m)
        times = np.unique(g.t)
        gaps = np.flatnonzero(np.diff(times) > 100.0)
        assert gaps.shape[0] == 2
        n, checked, underflowed = g.num_nodes, 0, 0
        for t in [*(times[gaps] + 400.0).tolist(), g.t_max + 2000.0, *times[::10].tolist()]:
            ids, scores, mask = top_m_neighbors(g, t, m)
            t_ids, t_scores, t_mask = table.lookup(np.arange(n), np.full(n, t))
            rows = np.searchsorted(table.keys, np.arange(n) * (times.shape[0] + 1) + np.searchsorted(times, t), "right") - 1
            for u in range(n):
                ref_ids, ref_scores = pure_top_m(g, u, t, m)
                k = ref_ids.shape[0]
                assert ids[u, :k].tolist() == ref_ids.tolist() and mask[u].sum() == k
                np.testing.assert_allclose(scores[u, :k], ref_scores, rtol=1e-12, atol=0.0)
                r = rows[u]
                if (table.scores[r, : table.lens[r]] == 0.0).any():
                    continue  # already underflowed at u's last event: the case left open
                assert t_ids[u][t_mask[u]].tolist() == ref_ids.tolist()
                np.testing.assert_allclose(t_scores[u][t_mask[u]], ref_scores, rtol=1e-9, atol=0.0)
                checked += 1
                underflowed += bool((t_scores[u][t_mask[u]] == 0.0).any())
        assert checked > 400 and underflowed > 20

    def test_batched_rows_match_single_queries(self, rng):
        # random times, then both ends of some events at their exact event
        # times, then repeats of earlier queries, identical in (node, t)
        g = random_stream(rng, n_nodes=12, n_events=300)
        table = TopMTable.build(g, 3)
        at = rng.integers(g.num_events, size=25)
        nodes = np.concatenate([rng.integers(12, size=50), g.src[at], g.dst[at]])
        ts = np.concatenate([rng.uniform(-0.5, g.t_max + 1.0, size=50), g.t[at], g.t[at]])
        again = rng.integers(nodes.shape[0], size=40)
        nodes, ts = np.concatenate([nodes, nodes[again]]), np.concatenate([ts, ts[again]])
        ids, scores, mask = table.lookup(nodes, ts)
        for i in range(nodes.shape[0]):
            one = table.lookup(nodes[i : i + 1], ts[i : i + 1])
            assert ids[i].tobytes() == one[0][0].tobytes()
            assert scores[i].tobytes() == one[1][0].tobytes()
            assert mask[i].tobytes() == one[2][0].tobytes()
        # a query at an event time does not see that time's contacts: it
        # reads the list that a query just before that time reads
        before = table.lookup(g.src[at], np.nextafter(g.t[at], -np.inf))
        np.testing.assert_array_equal(ids[50:75], before[0])
        np.testing.assert_array_equal(mask[50:75], before[2])

    def test_rejects_bad_input(self):
        g = from_events([Event(0, 1, 0.0)], num_nodes=2)
        with pytest.raises(ValueError):
            TopMTable.build(g, 0)

    def test_empty_stream_builds_one_empty_row_per_node(self):
        table = TopMTable.build(from_events([], num_nodes=3), 2)
        assert table.keys.tolist() == [0, 1, 2] and not table.lens.any()
        assert (table.row_t == -np.inf).all()
        ids, scores, mask = table.lookup([0, 2, 1], [-5.0, 0.0, 1e9])
        assert not ids.any() and not scores.any() and not mask.any()
        assert not np.signbit(scores).any()


class TestRandomTable:
    """A TopMTable built with an rng: each row a uniform draw of the node's
    candidates just after one of its event times."""

    @pytest.mark.parametrize("stream", ["tied", "coarse"])
    def test_rows_are_ranked_subsets_of_the_pure_route(self, stream, rng):
        g = tied_stream(32) if stream == "tied" else coarse_tied_stream(rng)
        m, n = 3, g.num_nodes
        assert len(set(g.t.tolist())) < g.num_events  # exact-time ties
        table = TopMTable.build(g, m, rng=np.random.default_rng(5))
        times = sorted(set(g.t.tolist()))[::3] + [g.t_max + 1.0]
        nodes, ts = np.repeat(np.arange(n), len(times)), np.tile(times, n)
        ids, scores, mask = table.lookup(nodes, ts)
        drawn = 0
        for u, t, a, s, ok in zip(nodes.tolist(), ts.tolist(), ids, scores, mask):
            ref_ids, ref_scores = pure_top_m(g, u, t, m=n)
            a, s = a[ok], s[ok]
            assert ok.tolist() == sorted(ok.tolist(), reverse=True)
            assert a.shape[0] == min(m, ref_ids.shape[0])
            assert set(a.tolist()) <= set(ref_ids.tolist())
            assert all(s[i] > s[i + 1] or (s[i] == s[i + 1] and a[i] < a[i + 1]) for i in range(len(a) - 1))
            by_id = dict(zip(ref_ids.tolist(), ref_scores.tolist()))
            np.testing.assert_allclose(s, [by_id[x] for x in a.tolist()], rtol=1e-9)
            drawn += ref_ids.shape[0] > m
        assert drawn > 50

    def test_draws_are_uniform(self):
        g = uneven_star()
        m, k, builds = 2, 6, 600
        counts = np.zeros(7)
        for seed in range(builds):
            table = TopMTable.build(g, m, rng=np.random.default_rng(seed))
            counts[table_list(table, 0, 3.0)[0]] += 1
        assert counts[0] == 0
        assert_uniform(counts[1:], builds, m, k)

    @pytest.mark.parametrize("stream", ["tied", "coarse", "long-gap"])
    def test_matches_list_sweep_bitwise(self, stream, rng):
        # every row the m smallest of one key per candidate, in first-contact order
        g = named_stream(stream, rng)
        for m in (1, 3):
            got_rng, want_rng = np.random.default_rng(m), np.random.default_rng(m)
            assert_same_table(TopMTable.build(g, m, rng=got_rng), sweep_table(g, m, rng=want_rng))
            assert got_rng.random() == want_rng.random()

    def test_equal_seeds_build_equal_tables(self, rng):
        g = random_stream(rng, n_nodes=12, n_events=300)
        a = TopMTable.build(g, 3, rng=np.random.default_rng(9))
        b = TopMTable.build(g, 3, rng=np.random.default_rng(9))
        for name in ("times", "keys", "row_t", "ids", "scores", "lens"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        gen = np.random.default_rng(9)
        first, second = TopMTable.build(g, 3, rng=gen), TopMTable.build(g, 3, rng=gen)
        assert first.ids.tobytes() == a.ids.tobytes()
        assert not np.array_equal(first.ids, second.ids)
        np.testing.assert_array_equal(first.lens, second.lens)


class TestStreamingIndex:

    def test_pair_score_matches_direct(self):
        # every event's pair score, read before any contact of its time group
        # is added, and just after the group, counting the contacts at t as a
        # table row does: sum_i exp(-(t - t_i)) over t_i <= t
        for g in (coarse_tied_stream(np.random.default_rng(6)), tied_stream(32)):
            idx = SignificanceIndex(g.num_nodes)
            for _, group in itertools.groupby(events_of(g), key=lambda e: e.t):
                group = list(group)
                for e in group:
                    s_stream = index_pair_score(idx, e.u, e.v, e.t)
                    s_direct = initial_significance(pair_history(g, e.u, e.v, e.t), e.t)
                    assert s_stream == pytest.approx(s_direct, rel=1e-9, abs=1e-300)
                for e in group:
                    idx.add_event(e.u, e.v, e.t)
                for e in group:
                    s_stream = index_pair_score(idx, e.u, e.v, e.t)
                    held = pair_history(g, e.u, e.v, np.nextafter(e.t, np.inf))
                    s_direct = float(np.exp(-(e.t - held)).sum())
                    assert s_stream == pytest.approx(s_direct, rel=1e-9, abs=1e-300)

    def test_rejects_time_travel(self):
        idx = SignificanceIndex(4)
        idx.add_event(0, 1, 5.0)
        with pytest.raises(ValueError):
            idx.add_event(1, 2, 4.0)
        with pytest.raises(ValueError):
            idx.neighbor_scores(0, 4.0)

    def test_top_m_counts_contacts_at_the_query_time(self):
        g = from_events([Event(0, 1, 1.0), Event(0, 2, 2.0), Event(2, 0, 2.0)], num_nodes=3)
        idx = SignificanceIndex(3)
        for e in events_of(g):
            idx.add_event(e.u, e.v, e.t)
        ids, scores = idx.top_m(0, 2.0, 2)
        assert ids.tolist() == [2, 1]
        np.testing.assert_allclose(scores, [2.0, math.exp(-1.0)], rtol=1e-15)
        ids, scores = idx.top_m(0, 3.0, 2)
        ref_ids, ref_scores = pure_top_m(g, 0, 3.0, 2)
        assert ids.tolist() == ref_ids.tolist()
        np.testing.assert_allclose(scores, ref_scores, rtol=1e-15)
        with pytest.raises(ValueError):
            idx.top_m(0, 1.5, 2)

    def test_random_m_counts_contacts_at_the_query_time(self, rng):
        g = from_events([Event(0, 1, 1.0), Event(0, 2, 2.0), Event(2, 0, 2.0)], num_nodes=3)
        idx = SignificanceIndex(3)
        for e in events_of(g):
            idx.add_event(e.u, e.v, e.t)
        ids, scores = idx.random_m(0, 2.0, 2, rng)
        assert ids.tolist() == [2, 1]
        np.testing.assert_allclose(scores, [2.0, math.exp(-1.0)], rtol=1e-15)
        ids, scores = idx.random_m(0, 3.0, 2, rng)
        ref_ids, ref_scores = pure_top_m(g, 0, 3.0, 2)
        assert ids.tolist() == ref_ids.tolist()
        np.testing.assert_allclose(scores, ref_scores, rtol=1e-15)
        with pytest.raises(ValueError):
            idx.random_m(0, 1.5, 2, rng)

    def test_neighbor_ids_are_read_only(self):
        idx = SignificanceIndex(3)
        idx.add_event(0, 1, 1.0)
        ids, _ = idx.neighbor_scores(0, 1.0)
        with pytest.raises(ValueError):
            ids[0] = 2
        idx.add_event(0, 2, 2.0)  # the next slot of the same storage
        assert idx.neighbor_scores(0, 2.0)[0].tolist() == [1, 2]

    def test_random_m_subset_ordered(self, rng):
        idx = SignificanceIndex(30)
        for v in range(1, 25):
            idx.add_event(0, v, float(v) * 0.01)
        ids, scores = idx.random_m(0, 1.0, 5, rng)
        assert ids.shape[0] == 5
        assert all(scores[i] >= scores[i + 1] for i in range(4))
        assert set(ids).issubset(set(range(1, 25)))


@st.composite
def draw_cases(draw):
    """A stream on a grid of six times (repeat contacts and shared times
    common), a capacity m and a seed."""
    n = draw(st.integers(3, 8))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    rows = draw(st.lists(st.tuples(pair, st.integers(0, 5)), min_size=12, max_size=80))
    g = from_events([Event(u, v, float(t)) for (u, v), t in rows], num_nodes=n)
    return g, draw(st.integers(1, 3)), draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(draw_cases())
def test_draws_keep_the_m_smallest_keys(case):
    """``random_m`` and ``top_m_neighbors`` with an rng against the list
    oracle ``m_smallest_keys``: random_m keys a node's candidates in
    first-contact order, the array pass in ranked order, and both draw
    the nodes in id order from one generator."""
    g, m, seed = case
    n, t = g.num_nodes, g.t_max + 1.0
    idx, seen = SignificanceIndex(n), [dict() for _ in range(n)]
    for e in events_of(g):
        idx.add_event(e.u, e.v, e.t)
        seen[e.u].setdefault(e.v)
        seen[e.v].setdefault(e.u)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for u in range(n):
        by_id = dict(zip(*(a.tolist() for a in pure_top_m(g, u, t, m=n))))
        ids, scores = idx.random_m(u, t, m, got_rng)
        want_ids, want_scores = m_smallest_keys(list(seen[u]), [by_id[v] for v in seen[u]], m, want_rng)
        assert ids.tolist() == want_ids
        np.testing.assert_allclose(scores, want_scores, rtol=1e-12, atol=0.0)
    assert got_rng.random() == want_rng.random()

    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ids, scores, mask = top_m_neighbors(g, t, m, rng=got_rng)
    for u in range(n):
        ref_ids, ref_scores = pure_top_m(g, u, t, m=n)
        want_ids, want_scores = m_smallest_keys(ref_ids.tolist(), ref_scores.tolist(), m, want_rng)
        k = len(want_ids)
        assert mask[u].tolist() == [True] * k + [False] * (m - k)
        assert ids[u, :k].tolist() == want_ids
        np.testing.assert_allclose(scores[u, :k], want_scores, rtol=1e-12, atol=0.0)
        assert not ids[u, k:].any() and not scores[u, k:].any()
    assert got_rng.random() == want_rng.random()


@st.composite
def ranking_cases(draw):
    """A stream on a few node ids spread over 200, 5,000 or 70,000 nodes,
    the largest id among them with a contact at t = 0, so that the live
    ids narrow to uint8, uint16 or uint32 and most nodes are isolated.
    Its times lie on a grid broken by a gap of 800 units: contacts at
    shared times give pairs whose scores and log scores both tie, and
    across the gap scores underflow to an exact 0 while their log scores
    differ.  Plus a query time, a capacity m and a seed."""
    n = draw(st.sampled_from([200, 5_000, 70_000]))
    ids = [n - 1, *draw(st.lists(st.integers(0, n - 2), min_size=2, max_size=9, unique=True))]
    grid = st.sampled_from([0.0, 1.0, 2.0, 3.0, 800.0, 801.0, 802.0])
    pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda p: p[0] != p[1])
    rows = [((n - 1, ids[1]), 0.0), *draw(st.lists(st.tuples(pair, grid), max_size=60))]
    g = from_events([Event(u, v, t) for (u, v), t in rows], num_nodes=n)
    t = draw(st.sampled_from([0.5, 2.0, 3.5, 801.0, 802.5, 1700.0]))
    return g, t, draw(st.integers(1, 4)), draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ranking_cases())
def test_top_m_neighbors_matches_entry_sort(case):
    """``top_m_neighbors``, which ranks each pair once, against the oracle
    that sorts every directed entry on four keys: bitwise equal ids,
    scores and mask, and with equal seeds the same draws and the same
    generator end state."""
    g, t, m, seed = case
    for draw in (False, True):
        got_rng, want_rng = (np.random.default_rng(seed), np.random.default_rng(seed)) if draw else (None, None)
        got = top_m_neighbors(g, t, m, got_rng)
        want = entry_sort_top_m_neighbors(g, t, m, want_rng)
        for name, a, b in zip(("ids", "scores", "mask"), got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
        if draw:
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
