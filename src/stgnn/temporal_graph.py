"""Continuous-time interaction streams: ingestion, indexing, splitting.

An interaction stream is a multiset of undirected timestamped contacts
(u, v, t).  This module normalizes raw edge lists (dense node ids,
rescaled timestamps) into a columnar graph and performs the
chronological train/test split used for temporal link prediction.

A ``TemporalGraph`` holds the contacts as three aligned columns, ``src``
and ``dst`` (int64) and ``t`` (float64), sorted stably by time, plus a
pair index in CSR form after TGL's temporal CSR (Zhou et al., arXiv
2203.14883): ``pair_key`` lists each unordered pair once as the int64
key min * num_nodes + max, ascending, and pair i's timestamps are
``pair_t[pair_ptr[i]:pair_ptr[i + 1]]``, ascending.  ``from_columns`` is
the one constructor; the loader and the split build through it.

The loader keeps no Python object per row: a row leaves its line as two
references to interned label ids and one time in a typed array, so
reading a file costs a few machine words per row on top of the graph it
builds.
"""

from __future__ import annotations

import hashlib
import logging
import math
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

COMMENT_PREFIXES = ("#", "%")


class EdgeListParseError(ValueError):
    """Raised when an edge-list file cannot be parsed."""


@dataclass
class TemporalGraph:
    """Immutable, time-sorted contact stream with a CSR pair index.

    Attributes:
        num_nodes: node count; ids are dense integers 0..num_nodes-1.
        src, dst, t: (E,) contact columns, sorted stably by timestamp.
        pair_key: (P,) sorted keys min(u, v) * num_nodes + max(u, v).
        pair_ptr: (P + 1,) offsets of each pair's timestamps in pair_t.
        pair_t: (E,) the timestamps grouped by pair, ascending in each.
        raw_ids: original node label per dense id (for report emission).
    """

    num_nodes: int
    src: np.ndarray = field(repr=False)
    dst: np.ndarray = field(repr=False)
    t: np.ndarray = field(repr=False)
    pair_key: np.ndarray = field(repr=False)
    pair_ptr: np.ndarray = field(repr=False)
    pair_t: np.ndarray = field(repr=False)
    raw_ids: list[str] = field(default_factory=list, repr=False)

    @property
    def num_events(self) -> int:
        return self.t.shape[0]

    @property
    def t_max(self) -> float:
        return float(self.t[-1]) if self.t.shape[0] else 0.0

    def pair_ends(self) -> np.ndarray:
        """(P, 2) endpoints of the pairs in pair_key order, smaller first."""
        return np.column_stack(np.divmod(self.pair_key, self.num_nodes))


def pair_keys(u, v, num_nodes: int) -> np.ndarray:
    """The int64 keys min(u, v) * num_nodes + max(u, v) of pairs (u[i], v[i])."""
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    return np.minimum(u, v) * num_nodes + np.maximum(u, v)


def narrow_ids(ids) -> np.ndarray:
    """Integer ids on the narrowest integer type that holds them.

    A stable sort gives the same permutation on any integer type, and
    numpy runs it as a radix sort on keys of 16 bits or fewer, so every
    stable sort keyed on node ids sorts them narrowed.
    """
    ids = np.asarray(ids)
    if not ids.size:
        return ids
    return ids.astype(np.result_type(np.min_scalar_type(ids.min()), np.min_scalar_type(ids.max())))


def run_starts(ascending) -> np.ndarray:
    """Mask of the entries of an ascending 1-D array that differ from the
    one before: the first entry of each run of equal values.

    ``a[run_starts(a)]`` is ``np.unique(a)`` without another sort, and
    ``np.cumsum(run_starts(a)) - 1`` each entry's rank among those values.
    """
    a = np.asarray(ascending)
    first = np.empty(a.shape[0], dtype=bool)
    first[:1] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return first


def from_columns(src, dst, t, num_nodes: int | None = None, raw_ids: list[str] | None = None) -> TemporalGraph:
    """Build a TemporalGraph from contact columns with dense node ids.

    The contacts are sorted stably by timestamp, and the pair index is
    one stable argsort of their pair keys.
    """
    t = np.asarray(t, dtype=np.float64)
    order = np.argsort(t, kind="stable")
    src = np.asarray(src, dtype=np.int64)[order]
    dst = np.asarray(dst, dtype=np.int64)[order]
    t = t[order]
    if num_nodes is None:
        num_nodes = 1 + int(max(src.max(), dst.max())) if t.shape[0] else 0
    if raw_ids is None:
        raw_ids = [str(i) for i in range(num_nodes)]
    key = pair_keys(src, dst, num_nodes)
    by_pair = np.argsort(key, kind="stable")  # time order within each pair
    key = key[by_pair]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    ptr = np.append(first, key.shape[0])
    return TemporalGraph(num_nodes, src, dst, t, key[first], ptr, t[by_pair], raw_ids)


def stream_digest(g: TemporalGraph) -> str:
    """SHA-256 of the node count and the src, dst and t columns: two
    streams hash alike when they hold the same contacts in the same order."""
    h = hashlib.sha256(np.int64(g.num_nodes).tobytes())
    for col in (g.src, g.dst, g.t):
        h.update(col.tobytes())
    return h.hexdigest()


def check_time_unit(time_unit: float) -> None:
    """Reject a time unit that is not finite and positive, naming the flag."""
    if not (math.isfinite(time_unit) and time_unit > 0):
        raise ValueError(f"time_unit (--time-unit) must be positive and finite, got {time_unit}")


def load_edge_list(path, time_unit: float = 1.0) -> TemporalGraph:
    """Parse a plain-text edge list of "u v t" rows into a TemporalGraph.

    Rows may be whitespace- or comma-separated; lines starting with '#'
    or '%' are comments.  Raw timestamps are divided by ``time_unit``
    (e.g. 86400 maps seconds to days) and shifted so the earliest row,
    self-loops included, is at t = 0.  Node labels are remapped to dense
    ids (numeric sort when every label is an integer, with the label
    string breaking ties such as "1" and "01"; lexicographic otherwise);
    the mapping is kept on the graph for report emission.  Self-loops
    are dropped with a counted warning; duplicate rows are kept as
    distinct repeat contacts.  A path that cannot be opened raises a
    ValueError naming it, bytes that are not UTF-8 raise one naming the
    first line that holds them, and times that overflow once rescaled
    raise one naming the time unit.

    The rows are read line by line, and no object of a row outlives its
    line: each label is interned once, as an id in order of first
    appearance, a row's two ids are references to those shared ids, and
    its time goes to an ``array("d")``.  One permutation then maps the
    first-seen ids to the sorted label order.
    """
    check_time_unit(time_unit)
    first_id: defaultdict[str, int] = defaultdict()
    first_id.default_factory = first_id.__len__  # a new label takes the next id
    # u, v of each row: references to the dict's id objects, one pointer
    # each as in an array("q"), but a list appends them faster
    ends: list[int] = []
    times = array("d")
    add_end, add_time = ends.append, times.append
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot open dataset {path}: {exc.strerror}") from None
    with fh, _naming_undecodable_line(path):
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith(COMMENT_PREFIXES):
                continue
            parts = stripped.replace(",", " ").split()
            if len(parts) < 3:
                raise EdgeListParseError(f"{path}:{lineno}: expected 'u v t', got {line!r}")
            try:
                t_raw = float(parts[2])
            except ValueError as exc:
                raise EdgeListParseError(f"{path}:{lineno}: bad timestamp {parts[2]!r}") from exc
            if not math.isfinite(t_raw):
                raise EdgeListParseError(f"{path}:{lineno}: non-finite timestamp {parts[2]!r}")
            add_end(first_id[parts[0]])
            add_end(first_id[parts[1]])
            add_time(t_raw)
    del add_end, add_time  # bound to ends and times, they would keep both alive past their dels
    if not times:
        raise EdgeListParseError(f"{path}: no events found")

    if all(_is_int(lab) for lab in first_id):
        ordered = sorted(first_id, key=lambda lab: (int(lab), lab))
    else:
        ordered = sorted(first_id)
    dense = np.empty(len(ordered), dtype=np.int64)  # the dense id of each first-seen id
    dense[[first_id[lab] for lab in ordered]] = np.arange(len(ordered))
    # labels of their own: the parsed ones would pin the parse's freed memory
    raw_ids = [lab.encode().decode() for lab in ordered]
    u, v = dense[np.array(ends, dtype=np.int64).reshape(-1, 2).T]
    del ends
    t = np.frombuffer(times, dtype=np.float64)
    # the first of the earliest rows, as min() of the rows would pick it (0.0 or -0.0)
    t_min = times[int(np.argmax(t == t.min()))]
    with np.errstate(over="ignore", invalid="ignore"):
        t = t / time_unit
        t -= t_min / time_unit
    del times
    if not np.isfinite(t).all():
        raise EdgeListParseError(f"{path}: timestamps overflow at time unit {time_unit} (--time-unit)")

    keep = u != v
    n_self = t.shape[0] - int(np.count_nonzero(keep))
    if n_self:
        logger.warning("%s: dropped %d self-loop row(s)", path, n_self)
    if n_self == t.shape[0]:
        raise EdgeListParseError(f"{path}: all rows were self-loops")
    if n_self:
        u, v, t = u[keep], v[keep], t[keep]
    return from_columns(u, v, t, num_nodes=len(raw_ids), raw_ids=raw_ids)


@contextmanager
def _naming_undecodable_line(path):
    """Turn a UTF-8 decode error in the block into an EdgeListParseError
    naming path and its first line that does not decode, the lines split
    as a text-mode read splits them."""
    try:
        yield
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
        for lineno, raw in enumerate(lines, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise EdgeListParseError(
                    f"{path}:{lineno}: not UTF-8 text (byte {raw[exc.start]:#04x}: {exc.reason})"
                ) from None
        raise


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def write_node_map(g: TemporalGraph, path) -> None:
    """Emit the dense-id -> original-label table as CSV."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("dense_id,original_id\n")
        for i, lab in enumerate(g.raw_ids):
            fh.write(f"{i},{lab}\n")


@dataclass
class DataSplit:
    """Chronological split: training stream plus aggregated test pairs.

    ``test_pairs`` holds, as (P, 2) int64 endpoints (smaller first)
    sorted by pair, each unordered pair that interacts after ``t_split``.
    """

    t_split: float
    train: TemporalGraph
    test_pairs: np.ndarray


def split_train_test(g: TemporalGraph, ratio: float = 0.75) -> DataSplit:
    """Split at t_split = ratio * t_max: train keeps t <= t_split, the rest
    is aggregated into a static set of test pairs.

    Pairs already seen in training remain valid test positives (repeat
    ties).  Raises if either side would be empty.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
    if g.num_events == 0:
        raise ValueError("cannot split an empty graph")
    t_split = ratio * g.t_max
    n_train = int(np.searchsorted(g.t, t_split, side="right"))
    # a pair interacts after t_split exactly when its last contact does
    late = g.pair_t[g.pair_ptr[1:] - 1] > t_split
    if n_train == 0:
        raise ValueError("split leaves an empty training window")
    if not late.any():
        raise ValueError("split leaves an empty test window")
    train = from_columns(g.src[:n_train], g.dst[:n_train], g.t[:n_train], g.num_nodes, list(g.raw_ids))
    return DataSplit(t_split=t_split, train=train, test_pairs=g.pair_ends()[late])
