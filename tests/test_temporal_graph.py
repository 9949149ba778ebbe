import logging

import numpy as np
import pytest

from stgnn.temporal_graph import (
    EdgeListParseError,
    Event,
    from_events,
    load_edge_list,
    split_train_test,
    write_edge_list,
    write_node_map,
)
from conftest import random_stream


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLoadEdgeList:
    def test_three_line_file(self, tmp_path):
        p = write_lines(tmp_path / "e.txt", ["1 2 0.0", "2 3 1.0", "1 2 2.0"])
        g = load_edge_list(p)
        assert g.num_nodes == 3
        assert g.num_events == 3
        np.testing.assert_array_equal(g.pair_index[(0, 1)], [0.0, 2.0])

    def test_duplicate_rows_are_repeat_contacts(self, tmp_path):
        p = write_lines(tmp_path / "e.txt", ["1 2 0.0", "2 3 1.0", "1 2 2.0", "1 2 0.0"])
        g = load_edge_list(p)
        assert g.num_events == 4
        np.testing.assert_array_equal(g.pair_index[(0, 1)], [0.0, 0.0, 2.0])

    def test_comma_separated_and_comments(self, tmp_path):
        p = write_lines(tmp_path / "e.txt", ["# header", "% more", "1,2,3.5", "4 5 1.0"])
        g = load_edge_list(p)
        assert g.num_events == 2

    def test_time_unit_rescale_and_shift(self, tmp_path):
        p = write_lines(tmp_path / "e.txt", ["0 1 86400", "1 2 172800"])
        g = load_edge_list(p, time_unit=86400.0)
        assert [e.t for e in g.events] == [0.0, 1.0]

    def test_malformed_row_reports_line_number(self, tmp_path):
        p = write_lines(tmp_path / "e.txt", ["1 2 0.0", "oops"])
        with pytest.raises(EdgeListParseError, match=":2:"):
            load_edge_list(p)

    def test_bad_timestamp_reports_line_number(self, tmp_path):
        p = write_lines(tmp_path / "e.txt", ["1 2 zero"])
        with pytest.raises(EdgeListParseError, match=":1:"):
            load_edge_list(p)

    def test_non_finite_timestamp_reports_line_number(self, tmp_path):
        for bad in ("nan", "inf", "-inf"):
            p = write_lines(tmp_path / "e.txt", ["1 2 0.0", f"0 3 {bad}"])
            with pytest.raises(EdgeListParseError, match=f":2: non-finite timestamp '{bad}'"):
                load_edge_list(p)

    def test_empty_file_rejected(self, tmp_path):
        p = write_lines(tmp_path / "e.txt", ["# only a comment"])
        with pytest.raises(EdgeListParseError, match="no events"):
            load_edge_list(p)

    def test_self_loops_dropped_with_warning(self, tmp_path, caplog):
        p = write_lines(tmp_path / "e.txt", ["1 1 0.0", "1 2 1.0", "2 2 2.0"])
        with caplog.at_level(logging.WARNING):
            g = load_edge_list(p)
        assert g.num_events == 1
        assert "2 self-loop" in caplog.text

    def test_numeric_labels_sort_numerically(self, tmp_path):
        p = write_lines(tmp_path / "e.txt", ["10 2 0.0", "2 3 1.0"])
        g = load_edge_list(p)
        assert g.raw_ids == ["2", "3", "10"]

    def test_node_map_csv(self, tmp_path):
        p = write_lines(tmp_path / "e.txt", ["7 3 0.0"])
        g = load_edge_list(p)
        out = tmp_path / "map.csv"
        write_node_map(g, out)
        assert out.read_text() == "dense_id,original_id\n0,3\n1,7\n"


class TestIndices:
    def test_index_consistency_against_event_scan(self, rng):
        g = random_stream(rng, n_nodes=15, n_events=1000)
        by_pair = {}
        for u, v, t in g.events:
            by_pair.setdefault((min(u, v), max(u, v)), []).append(t)
        assert set(by_pair) == set(g.pair_index)
        for k, ts in by_pair.items():
            np.testing.assert_array_equal(np.sort(ts), g.pair_index[k])
        total = sum(len(ts) for ts in g.pair_index.values())
        assert total == g.num_events
        for ts in g.pair_index.values():
            assert np.all(np.diff(ts) >= 0)

    def test_roundtrip_reserialize(self, tmp_path, rng):
        raw = random_stream(rng, n_nodes=10, n_events=200)
        p0 = tmp_path / "raw.txt"
        write_edge_list(raw, p0)
        g = load_edge_list(p0)  # normalized: min t = 0
        p = tmp_path / "round.txt"
        write_edge_list(g, p)
        g2 = load_edge_list(p)
        assert set(g.pair_index) == set(g2.pair_index)
        for k in g.pair_index:
            np.testing.assert_array_equal(g.pair_index[k], g2.pair_index[k])


class TestPairHistory:
    def test_strict_inequality(self):
        g = from_events([Event(0, 1, 0.0), Event(0, 1, 2.0), Event(0, 1, 5.0)])
        np.testing.assert_array_equal(g.pair_history(0, 1, 5.0), [0.0, 2.0])

    def test_no_prior_events(self):
        g = from_events([Event(0, 1, 1.0)])
        assert g.pair_history(0, 1, 0.0).size == 0
        assert g.pair_history(0, 2, 10.0).size == 0  # unknown pair

    def test_same_node_rejected(self):
        g = from_events([Event(0, 1, 1.0)])
        with pytest.raises(ValueError):
            g.pair_history(1, 1, 2.0)

    def test_matches_linear_scan(self, rng):
        g = random_stream(rng, n_nodes=10, n_events=400)
        for _ in range(100):
            u, v = rng.choice(10, size=2, replace=False)
            t = float(rng.uniform(0, g.t_max * 1.1))
            expected = sorted(
                e.t for e in g.events if {e.u, e.v} == {int(u), int(v)} and e.t < t
            )
            np.testing.assert_array_equal(g.pair_history(int(u), int(v), t), expected)

    def test_prefix_monotonicity(self, small_graph, rng):
        g = small_graph
        for _ in range(50):
            u, v = rng.choice(12, size=2, replace=False)
            t1, t2 = sorted(rng.uniform(0, g.t_max, size=2))
            h1 = g.pair_history(int(u), int(v), float(t1))
            h2 = g.pair_history(int(u), int(v), float(t2))
            np.testing.assert_array_equal(h1, h2[: h1.size])


class TestSplit:
    def test_split_arithmetic(self):
        g = from_events([Event(0, 1, 0.0), Event(1, 2, 1.0), Event(2, 3, 2.0), Event(3, 4, 3.0)],
                        num_nodes=5)
        split = split_train_test(g, ratio=0.75)
        assert split.t_split == pytest.approx(2.25)
        assert [e.t for e in split.train.events] == [0.0, 1.0, 2.0]
        assert split.test_pairs == {(3, 4): 3.0}

    def test_single_pair_dedup(self):
        g = from_events([Event(0, 1, float(t)) for t in range(8)])
        split = split_train_test(g, ratio=0.75)
        assert len(split.test_pairs) == 1

    def test_brute_force_event_count(self, rng):
        g = random_stream(rng, n_nodes=25, n_events=1000)
        split = split_train_test(g, ratio=0.75)
        expected = sum(1 for e in g.events if e.t <= split.t_split)
        assert split.train.num_events == expected
        expected_pairs = {
            (min(e.u, e.v), max(e.u, e.v)) for e in g.events if e.t > split.t_split
        }
        assert set(split.test_pairs) == expected_pairs

    def test_empty_sides_rejected(self):
        g = from_events([Event(0, 1, 1.0)])
        with pytest.raises(ValueError):
            split_train_test(g, ratio=0.5)

    def test_bad_ratio(self, small_graph):
        with pytest.raises(ValueError):
            split_train_test(small_graph, ratio=1.0)
