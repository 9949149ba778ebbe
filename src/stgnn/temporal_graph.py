"""Continuous-time interaction streams: ingestion, indexing, splitting.

An interaction stream is a multiset of undirected timestamped contacts
(u, v, t).  This module normalizes raw edge lists (dense node ids,
rescaled timestamps), builds a per-pair timestamp index, and performs the chronological train/test split used for temporal link
prediction.
"""

from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

logger = logging.getLogger(__name__)

COMMENT_PREFIXES = ("#", "%")


class Event(NamedTuple):
    """One undirected contact between nodes ``u`` and ``v`` at time ``t``."""

    u: int
    v: int
    t: float


class EdgeListParseError(ValueError):
    """Raised when an edge-list file cannot be parsed."""


def _pair_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass
class TemporalGraph:
    """Immutable, time-sorted contact stream with a pair index.

    Attributes:
        num_nodes: node count; ids are dense integers 0..num_nodes-1.
        events: list of Event sorted by timestamp (stable).
        pair_index: (min(u,v), max(u,v)) -> sorted numpy array of timestamps.
        raw_ids: original node label per dense id (for report emission).
    """

    num_nodes: int
    events: list[Event]
    pair_index: dict[tuple[int, int], np.ndarray] = field(repr=False)
    raw_ids: list[str] = field(default_factory=list, repr=False)

    @property
    def num_events(self) -> int:
        return len(self.events)

    @property
    def t_max(self) -> float:
        return self.events[-1].t if self.events else 0.0

    def pair_history(self, u: int, v: int, t: float) -> np.ndarray:
        """All timestamps of (u, v) contacts strictly before ``t``.

        Unknown pairs yield an empty array.
        """
        if u == v:
            raise ValueError("pair history requires two distinct nodes")
        ts = self.pair_index.get(_pair_key(u, v))
        if ts is None:
            return np.empty(0, dtype=np.float64)
        return ts[: bisect.bisect_left(ts, t)]

    def count_in_window(self, u: int, v: int, t0: float, t1: float) -> int:
        """Number of (u, v) contacts with timestamp in [t0, t1)."""
        ts = self.pair_index.get(_pair_key(u, v))
        if ts is None:
            return 0
        return int(np.searchsorted(ts, t1, side="left") - np.searchsorted(ts, t0, side="left"))


def _pair_index(events: list[Event]) -> dict[tuple[int, int], np.ndarray]:
    by_pair: dict[tuple[int, int], list[float]] = {}
    for u, v, t in events:
        by_pair.setdefault(_pair_key(u, v), []).append(t)
    return {k: np.asarray(ts, dtype=np.float64) for k, ts in by_pair.items()}


def from_events(events: list[Event], num_nodes: int | None = None, raw_ids: list[str] | None = None) -> TemporalGraph:
    """Build a TemporalGraph from already-normalized events.

    Events are sorted stably by timestamp; node ids must already be dense.
    """
    events = sorted(events, key=lambda e: e.t)
    if num_nodes is None:
        num_nodes = 1 + max(max(e.u, e.v) for e in events) if events else 0
    if raw_ids is None:
        raw_ids = [str(i) for i in range(num_nodes)]
    return TemporalGraph(num_nodes, events, _pair_index(events), raw_ids)


def load_edge_list(path, time_unit: float = 1.0) -> TemporalGraph:
    """Parse a plain-text edge list of "u v t" rows into a TemporalGraph.

    Rows may be whitespace- or comma-separated; lines starting with '#'
    or '%' are comments.  Raw timestamps are divided by ``time_unit``
    (e.g. 86400 maps seconds to days) and shifted so the earliest contact
    is at t = 0.  Node labels are remapped to dense ids (numeric sort when
    every label is an integer, lexicographic otherwise); the mapping is
    kept on the graph for report emission.  Self-loops are dropped with a
    counted warning; duplicate rows are kept as distinct repeat contacts.
    """
    if time_unit <= 0:
        raise ValueError(f"time_unit must be positive, got {time_unit}")
    rows: list[tuple[str, str, float]] = []
    with open(path, "r", encoding="utf-8") as fh:
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
            rows.append((parts[0], parts[1], t_raw))
    if not rows:
        raise EdgeListParseError(f"{path}: no events found")

    labels = {lab for u, v, _ in rows for lab in (u, v)}
    all_int = all(_is_int(lab) for lab in labels)
    ordered = sorted(labels, key=int) if all_int else sorted(labels)
    remap = {lab: i for i, lab in enumerate(ordered)}

    n_self = 0
    t_min = min(t for _, _, t in rows) / time_unit
    events: list[Event] = []
    for u_lab, v_lab, t_raw in rows:
        u, v = remap[u_lab], remap[v_lab]
        if u == v:
            n_self += 1
            continue
        events.append(Event(u, v, t_raw / time_unit - t_min))
    if n_self:
        logger.warning("%s: dropped %d self-loop row(s)", path, n_self)
    if not events:
        raise EdgeListParseError(f"{path}: all rows were self-loops")
    return from_events(events, num_nodes=len(ordered), raw_ids=list(ordered))


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def write_edge_list(g: TemporalGraph, path) -> None:
    """Serialize a graph back to "u v t" rows (dense ids, repr timestamps)."""
    with open(path, "w", encoding="utf-8") as fh:
        for u, v, t in g.events:
            fh.write(f"{u} {v} {t!r}\n")


def write_node_map(g: TemporalGraph, path) -> None:
    """Emit the dense-id -> original-label table as CSV."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("dense_id,original_id\n")
        for i, lab in enumerate(g.raw_ids):
            fh.write(f"{i},{lab}\n")


@dataclass
class DataSplit:
    """Chronological split: training stream plus aggregated test pairs.

    ``test_pairs`` maps each unordered pair that interacts after
    ``t_split`` to its first post-split timestamp.
    """

    t_split: float
    train: TemporalGraph
    test_pairs: dict[tuple[int, int], float]


def split_train_test(g: TemporalGraph, ratio: float = 0.75) -> DataSplit:
    """Split at t_split = ratio * t_max: train keeps t <= t_split, the rest
    is aggregated into a static set of test pairs.

    Pairs already seen in training remain valid test positives (repeat
    ties).  Raises if either side would be empty.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
    if not g.events:
        raise ValueError("cannot split an empty graph")
    t_split = ratio * g.t_max
    train_events = [e for e in g.events if e.t <= t_split]
    test_pairs: dict[tuple[int, int], float] = {}
    for u, v, t in g.events:
        if t > t_split:
            test_pairs.setdefault(_pair_key(u, v), t)
    if not train_events:
        raise ValueError("split leaves an empty training window")
    if not test_pairs:
        raise ValueError("split leaves an empty test window")
    train = TemporalGraph(g.num_nodes, train_events, _pair_index(train_events), list(g.raw_ids))
    return DataSplit(t_split=t_split, train=train, test_pairs=test_pairs)
