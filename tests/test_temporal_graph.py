import logging
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stgnn.synthetic import generate_synthetic
from stgnn.temporal_graph import (
    EdgeListParseError,
    load_edge_list,
    split_train_test,
    write_node_map,
)
from conftest import random_stream
from reference_model import (
    Event,
    csr_pair_times,
    events_of,
    from_events,
    load_edge_list_rows,
    pair_history,
    row_pair_index,
    split_rows,
)


def assert_graph_equals_rows(g, events):
    """The graph's columns and CSR pair index bitwise equal to time-sorted
    Event rows and the pair index built from them row by row."""
    assert g.src.dtype == g.dst.dtype == g.pair_key.dtype == g.pair_ptr.dtype == np.int64
    assert g.t.dtype == g.pair_t.dtype == np.float64
    assert g.src.tolist() == [e.u for e in events]
    assert g.dst.tolist() == [e.v for e in events]
    assert g.t.tobytes() == np.array([e.t for e in events], dtype=np.float64).tobytes()
    assert g.num_events == len(events)
    index = row_pair_index(events)
    pairs = sorted(index)
    assert g.pair_ends().tolist() == [list(k) for k in pairs]
    assert g.pair_key.tolist() == [a * g.num_nodes + b for a, b in pairs]
    assert g.pair_ptr.tolist() == np.cumsum([0] + [len(index[k]) for k in pairs]).tolist()
    want_t = np.concatenate([np.empty(0)] + [index[k] for k in pairs])
    assert g.pair_t.tobytes() == want_t.tobytes()


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def write_edge_list(g, path) -> None:
    """Serialize a graph back to "u v t" rows (dense ids, repr timestamps)."""
    with open(path, "w", encoding="utf-8") as fh:
        for u, v, t in zip(g.src.tolist(), g.dst.tolist(), g.t.tolist()):
            fh.write(f"{u} {v} {t!r}\n")


class TestLoadEdgeList:
    def test_three_line_file(self, tmp_path):
        p = write_lines(tmp_path / "e.txt", ["1 2 0.0", "2 3 1.0", "1 2 2.0"])
        g = load_edge_list(p)
        assert g.num_nodes == 3
        assert g.num_events == 3
        np.testing.assert_array_equal(csr_pair_times(g, 0, 1), [0.0, 2.0])
        np.testing.assert_array_equal(csr_pair_times(g, 2, 1), [1.0])

    def test_duplicate_rows_are_repeat_contacts(self, tmp_path):
        p = write_lines(tmp_path / "e.txt", ["1 2 0.0", "2 3 1.0", "1 2 2.0", "1 2 0.0"])
        g = load_edge_list(p)
        assert g.num_events == 4
        np.testing.assert_array_equal(csr_pair_times(g, 0, 1), [0.0, 0.0, 2.0])

    def test_comma_separated_and_comments(self, tmp_path):
        p = write_lines(tmp_path / "e.txt", ["# header", "% more", "1,2,3.5", "4 5 1.0"])
        g = load_edge_list(p)
        assert g.num_events == 2

    def test_time_unit_rescale_and_shift(self, tmp_path):
        p = write_lines(tmp_path / "e.txt", ["0 1 86400", "1 2 172800"])
        g = load_edge_list(p, time_unit=86400.0)
        assert g.t.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("time_unit", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_time_unit_names_the_flag(self, tmp_path, time_unit):
        p = write_lines(tmp_path / "e.txt", ["0 1 86400", "1 2 172800"])
        with pytest.raises(ValueError, match="--time-unit"):
            load_edge_list(p, time_unit=time_unit)

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

    @pytest.mark.parametrize(
        "rows, time_unit",
        [(["0 1 1e300", "1 2 2e300", "0 2 3e300"], 1e-10), (["0 1 -1.7e308", "1 2 1.7e308"], 1.0)],
    )
    def test_times_overflowing_at_the_time_unit_rejected(self, tmp_path, rows, time_unit):
        # these used to load as t = [nan, nan, nan] and [0, inf], and fail at the split
        p = write_lines(tmp_path / "e.txt", rows)
        message = f"{p}: timestamps overflow at time unit {time_unit} (--time-unit)"
        with pytest.raises(EdgeListParseError, match=re.escape(message)):
            load_edge_list(p, time_unit=time_unit)

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

    def test_zero_padded_labels_sort_by_value_then_label(self, tmp_path):
        # equal values used to keep the label set's hash order on ties
        p = write_lines(tmp_path / "e.txt", ["01 2 0.0", "1 001 1.0", "002 10 2.0", "1 2 3.0"])
        g = load_edge_list(p)
        assert g.raw_ids == ["001", "01", "1", "002", "2", "10"]
        assert g.src.tolist() == [1, 2, 3, 2] and g.dst.tolist() == [4, 0, 5, 4]

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
        for u, v, t in events_of(g):
            by_pair.setdefault((min(u, v), max(u, v)), []).append(t)
        assert sorted(by_pair) == [tuple(p) for p in g.pair_ends().tolist()]
        for k, ts in by_pair.items():
            np.testing.assert_array_equal(np.sort(ts), csr_pair_times(g, *k))
        assert g.pair_ptr[-1] == g.pair_t.shape[0] == g.num_events
        assert np.all(np.diff(g.pair_key) > 0) and np.all(np.diff(g.pair_ptr) > 0)
        for a, b in zip(g.pair_ptr[:-1], g.pair_ptr[1:]):
            assert np.all(np.diff(g.pair_t[a:b]) >= 0)
        assert_graph_equals_rows(g, events_of(g))

    def test_columns_sorted_stably_by_time(self):
        rows = [Event(2, 0, 1.0), Event(0, 1, 0.5), Event(1, 2, 1.0), Event(0, 2, 0.5), Event(0, 2, 1.0)]
        g = from_events(rows, num_nodes=3)
        assert events_of(g) == sorted(rows, key=lambda e: e.t)
        assert_graph_equals_rows(g, sorted(rows, key=lambda e: e.t))

    def test_roundtrip_reserialize(self, tmp_path, rng):
        raw = random_stream(rng, n_nodes=10, n_events=200)
        p0 = tmp_path / "raw.txt"
        write_edge_list(raw, p0)
        g = load_edge_list(p0)  # normalized: min t = 0
        p = tmp_path / "round.txt"
        write_edge_list(g, p)
        g2 = load_edge_list(p)
        for name in ("src", "dst", "t", "pair_key", "pair_ptr", "pair_t"):
            assert getattr(g, name).tobytes() == getattr(g2, name).tobytes(), name
        p2 = tmp_path / "round2.txt"
        write_edge_list(g2, p2)
        assert p2.read_bytes() == p.read_bytes()


class TestPairHistory:
    def test_strict_inequality(self):
        g = from_events([Event(0, 1, 0.0), Event(0, 1, 2.0), Event(0, 1, 5.0)])
        np.testing.assert_array_equal(pair_history(g, 0, 1, 5.0), [0.0, 2.0])

    def test_no_prior_events(self):
        g = from_events([Event(0, 1, 1.0)])
        assert pair_history(g, 0, 1, 0.0).size == 0
        assert pair_history(g, 0, 2, 10.0).size == 0  # unknown pair

    def test_same_node_rejected(self):
        g = from_events([Event(0, 1, 1.0)])
        with pytest.raises(ValueError):
            pair_history(g, 1, 1, 2.0)

    def test_matches_linear_scan(self, rng):
        g = random_stream(rng, n_nodes=10, n_events=400)
        for _ in range(100):
            u, v = rng.choice(10, size=2, replace=False)
            t = float(rng.uniform(0, g.t_max * 1.1))
            expected = sorted(
                e.t for e in events_of(g) if {e.u, e.v} == {int(u), int(v)} and e.t < t
            )
            np.testing.assert_array_equal(pair_history(g, int(u), int(v), t), expected)

    def test_prefix_monotonicity(self, small_graph, rng):
        g = small_graph
        for _ in range(50):
            u, v = rng.choice(12, size=2, replace=False)
            t1, t2 = sorted(rng.uniform(0, g.t_max, size=2))
            h1 = pair_history(g, int(u), int(v), float(t1))
            h2 = pair_history(g, int(u), int(v), float(t2))
            np.testing.assert_array_equal(h1, h2[: h1.size])


class TestSplit:
    def test_split_arithmetic(self):
        g = from_events([Event(0, 1, 0.0), Event(1, 2, 1.0), Event(2, 3, 2.0), Event(3, 4, 3.0)],
                        num_nodes=5)
        split = split_train_test(g, ratio=0.75)
        assert split.t_split == pytest.approx(2.25)
        assert split.train.t.tolist() == [0.0, 1.0, 2.0]
        assert split.test_pairs.dtype == np.int64 and split.test_pairs.tolist() == [[3, 4]]

    def test_single_pair_dedup(self):
        g = from_events([Event(0, 1, float(t)) for t in range(8)])
        split = split_train_test(g, ratio=0.75)
        assert len(split.test_pairs) == 1

    def test_brute_force_event_count(self, rng):
        g = random_stream(rng, n_nodes=25, n_events=1000)
        split = split_train_test(g, ratio=0.75)
        expected = sum(1 for e in events_of(g) if e.t <= split.t_split)
        assert split.train.num_events == expected
        expected_pairs = {
            (min(e.u, e.v), max(e.u, e.v)) for e in events_of(g) if e.t > split.t_split
        }
        assert split.test_pairs.tolist() == [list(p) for p in sorted(expected_pairs)]
        assert_graph_equals_rows(split.train, [e for e in events_of(g) if e.t <= split.t_split])

    def test_empty_sides_rejected(self):
        g = from_events([Event(0, 1, 1.0)])
        with pytest.raises(ValueError):
            split_train_test(g, ratio=0.5)

    def test_bad_ratio(self, small_graph):
        with pytest.raises(ValueError):
            split_train_test(small_graph, ratio=1.0)


@st.composite
def edge_list_files(draw):
    """Edge-list text with integer (some zero-padded) or string labels,
    duplicate rows, self-loops, tied times (0.0 and -0.0 among them),
    commas, no-break and ideographic spaces, extra trailing columns,
    comment lines, LF or CRLF line ends, and rows led by a comma, which
    makes a label "#2" a label rather than the start of a comment."""
    if draw(st.booleans()):
        label = st.sampled_from(["0", "1", "01", "001", "2", "02", "10", "7", "-3"])
    else:
        label = st.sampled_from(["a", "b", "B", "node7", "x_1", "1", "01", "#2"])
    # with no negative time, 0.0 or -0.0 is the earliest, and the first one wins
    low = draw(st.sampled_from([-50, 0]))
    time = st.integers(low // 10, 12).map(float) | st.floats(low, 50.0) | st.sampled_from([0.0, -0.0])
    rows = draw(st.lists(st.tuples(label, label, time), min_size=1, max_size=30))
    rows += draw(st.lists(st.sampled_from(rows), max_size=5))  # duplicate rows
    sep = st.sampled_from([" ", ",", ", ", "\t", "\xa0", "\u3000"])
    lead = st.sampled_from(["", "", ",", " ,"])
    extra = st.sampled_from(["", "", " 1", ",x", "\t0.5 y"])
    lines = [draw(lead) + draw(sep).join([u, v, repr(t)]) + draw(extra) for u, v, t in rows]
    for comment in draw(st.lists(st.sampled_from(["# a comment", "% 1 2 3", ""]), max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), comment)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + end


@settings(derandomize=True, max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(edge_list_files(), st.sampled_from([1.0, 0.3, 86400.0]), st.sampled_from([0.5, 0.75]))
def test_columnar_load_and_split_match_row_oracle(text, time_unit, ratio):
    """The columnar loader and split are bitwise equal to the row loader
    and row split of tests/reference_model.py."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.txt"
        path.write_bytes(text.encode())
        events, labels = load_edge_list_rows(path, time_unit)
        if not events:
            with pytest.raises(EdgeListParseError, match="self-loops"):
                load_edge_list(path, time_unit)
            return
        g = load_edge_list(path, time_unit)
    assert g.raw_ids == labels and g.num_nodes == len(labels)
    assert_graph_equals_rows(g, events)
    assert g.t_max == events[-1].t

    t_split, train, held = split_rows(events, ratio)
    if not train or not held:
        with pytest.raises(ValueError, match="empty"):
            split_train_test(g, ratio)
        return
    split = split_train_test(g, ratio)
    assert float(split.t_split).hex() == t_split.hex()
    assert_graph_equals_rows(split.train, train)
    assert split.train.num_nodes == g.num_nodes and split.train.raw_ids == labels
    assert split.test_pairs.dtype == np.int64 and split.test_pairs.shape == (len(held), 2)
    assert split.test_pairs.tolist() == [list(p) for p in held]


def test_loader_keeps_no_object_per_row(tmp_path):
    """Loading holds machine numbers per row, not Python objects, and
    frees its parse buffers before the graph is built: the traced peak
    stays under 110 bytes per row (a label string and a float per row
    take more than 200, and the buffers kept to the end about 26)."""
    path, _ = generate_synthetic(tmp_path / "s.txt", seed=1, n_background_events=18_600)
    rows = load_edge_list(path).num_events
    assert rows == 20_000
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        load_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / rows < 110
