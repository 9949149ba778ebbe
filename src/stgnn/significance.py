"""Decayed interaction significance and significant-neighbor selection.

The significance of a node pair at time t is the exponentially decayed
count of their past contacts, sum_i exp(-(t - t_i)): a contact one time
unit old weighs exp(-1), so the time unit the stream is loaded in (the
``--time-unit`` of stgnn.cli) sets how fast significance decays.  Each
node's neighbors are ranked by this score and only the top m are kept
for aggregation.  (The forward-window labels of the training events are
counted in stgnn.training.build_positive_samples.)  A pair's state is
t_last, the last of its contacts counted, and s = sum_i exp(-(t_last -
t_i)) >= 1: at t its score is s * exp(-(t - t_last)) and its log score
log s - (t - t_last), finite where the score underflows to 0.

Candidate lists reach the model as zero-padded (k, m) arrays ``ids``,
``scores`` and ``mask``, counting only contacts strictly before the query
time, each row score-descending with exact ties going to the larger log
score, then the smaller id.  Two routes produce them:

* ``top_m_neighbors`` gives every node's list at one time t from every
  pair's state at t (``pair_significance``, one pass over the graph's
  CSR pair index).  A pair's state is the same from both ends, so it
  ranks the pairs once, by score and log score descending with ties left
  in pair-key order, and then groups both ends of every ranked pair by
  node with one stable sort: within a node, key order is neighbor-id
  order.  Evaluation embeds every node at one time, so its
  (num_nodes, m) rows are the candidate lists of one dense forward pass
  as they stand.
* ``SignificanceIndex`` sweeps events chronologically and keeps each
  neighbor's state up to date in O(1) per contact.  One sweep of it over
  the training stream's time-sorted columns builds a ``TopMTable`` from
  its lists at each event time, ranked there by score and id, and the
  table answers the batched queries of the training trees at their
  samples' times: a node's candidate set changes only at its own events,
  and between them every score decays by the same factor, so that order
  is the order by log score while no stored score has underflowed.

Given an ``rng``, both routes replace each list by a uniform draw of up
to m candidates (the selection-ablated variants).  The draw rule: a node
with more than m candidates gives each one ``rng.random`` key, in
candidate order (ranked in ``top_m_neighbors``, first contact first in
``SignificanceIndex``), and keeps the m with the smallest keys, the
earlier candidate on equal keys; a node with at most m keeps them all
and draws no key.  The kept candidates are ranked like any list, so that
the rank corrections stay aligned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stgnn.temporal_graph import TemporalGraph, narrow_ids, run_starts

def _rank_order(ids: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Indices sorting by score descending, neighbor id ascending on ties."""
    return np.lexsort((ids, -scores))


def pair_significance(g: TemporalGraph, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR ids of the pairs of g with a contact strictly before t,
    ascending (so in pair-key order), and each one's score and log score
    at t: those contacts head the pair's CSR run, so one ``reduceat``
    counts them, which locates t_last, and a second sums s."""
    past = g.pair_t < t
    count = np.add.reduceat(past, g.pair_ptr[:-1])
    live = np.flatnonzero(count)
    count = count[live]
    t_last = g.pair_t[g.pair_ptr[live] + count - 1]
    s = np.add.reduceat(np.exp(g.pair_t[past] - np.repeat(t_last, count)), np.cumsum(count) - count)
    age = t - t_last
    return live, s * np.exp(-age), np.log(s) - age


def top_m_neighbors(
    g: TemporalGraph, t: float, m: int, rng: np.random.Generator | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every node's m most significant neighbors at time t, as
    (num_nodes, m) ids, scores and mask; row u is node u's list.

    A neighbor qualifies once it has at least one contact with u strictly
    before t; isolated nodes get an empty row.  With ``rng`` each row is
    instead a uniform draw from all of the node's candidates in their
    ranked order, the nodes drawn in id order: one ``rng.random`` call
    gives every key of the nodes with more than m candidates.

    The P live pairs are ranked once, by one stable sort on score and log
    score descending, which leaves ties in pair-key order.  Each ranked
    pair then gives its two directed entries, side by side, and one stable
    sort by node on the narrowed ids (``narrow_ids``; up to 65,536 nodes a
    radix sort) groups them: each node's entries keep the pair ranking,
    and since key order is neighbor-id order within a node, a row is
    ranked by score, log score and neighbor id.
    """
    if m < 1:
        raise ValueError(f"capacity must be at least 1, got {m}")
    pairs, sums, logs = pair_significance(g, t)
    # the pairs ranked once, exact score ties by log score; ties left in key order, which is
    # neighbor-id order within each node
    by_rank = np.lexsort((-logs, -sums))
    n = g.num_nodes
    ends = narrow_ids(np.column_stack(np.divmod(g.pair_key[pairs[by_rank]], n)))
    # each pair from both ends, interleaved, so that grouping by node keeps the pair ranking
    node, nbr, score = ends.reshape(-1), ends[:, ::-1].reshape(-1), np.repeat(sums[by_rank], 2)
    order = np.argsort(node, kind="stable")
    node, nbr, score = node[order], nbr[order], score[order]
    deg = np.bincount(node, minlength=n)
    start = np.cumsum(deg) - deg
    rank = np.arange(node.shape[0]) - start[node]
    if rng is not None:
        # each drawn node keeps its m smallest keys, every other node all its entries
        drawn = np.repeat(deg > m, deg)
        key = np.zeros(node.shape[0])
        key[drawn] = rng.random(np.count_nonzero(drawn))
        picked = np.empty_like(drawn)
        picked[np.lexsort((key, node))] = rank < m
        node, nbr, score = node[picked], nbr[picked], score[picked]
        deg = np.minimum(deg, m)
        start = np.cumsum(deg) - deg
        rank = np.arange(node.shape[0]) - start[node]
    keep = rank < m
    ids = np.zeros((n, m), dtype=np.int64)
    scores = np.zeros((n, m), dtype=np.float64)
    ids[node[keep], rank[keep]] = nbr[keep]
    scores[node[keep], rank[keep]] = score[keep]
    mask = np.arange(m) < np.minimum(deg, m)[:, None]
    return ids, scores, mask


class SignificanceIndex:
    """Streaming significance scores over a chronological event sweep.

    Events are inserted in non-decreasing time order and queries must not
    run behind the insertion frontier.  Per neighbor the index stores its
    state over every contact held: a contact at t sets s to
    s * exp(-(t - t_last)) + 1 and t_last to t, one at t_last included
    (its decay factor is exactly 1).
    The candidate lists (``neighbor_scores``, ``top_m``, ``random_m``)
    count every contact held, so a query at a time t ahead of the frontier
    sees the contacts strictly before t.

    Each node's neighbors sit in slots in first-contact order, in per-node
    numpy arrays of ids, score and last contact time that double when
    full, so that a query computes every score from views.

    ``TopMTable.build`` sweeps it and stores each node's ``top_m`` list,
    or a ``random_m`` draw, at each of the node's event times.
    """

    def __init__(self, num_nodes: int):
        self.t_frontier = -np.inf
        self._slot: list[dict[int, int]] = [dict() for _ in range(num_nodes)]
        self._nbr: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * num_nodes
        self._score: list[np.ndarray] = [np.empty(0)] * num_nodes
        self._last_t: list[np.ndarray] = [np.empty(0)] * num_nodes

    def add_event(self, u: int, v: int, t: float) -> None:
        """Record a contact; time must not run backwards."""
        if t < self.t_frontier:
            raise ValueError(f"events must arrive in time order ({t} < {self.t_frontier})")
        self.t_frontier = t
        self._add_directed(u, v, t)
        self._add_directed(v, u, t)

    def _add_directed(self, u: int, v: int, t: float) -> None:
        slots = self._slot[u]
        slot = slots.get(v)
        if slot is None:
            slots[v] = k = len(slots)
            if k == self._nbr[u].shape[0]:
                self._grow(u, k)
            self._nbr[u][k] = v
            self._score[u][k] = 1.0
            self._last_t[u][k] = t
            return
        score, last_t = self._score[u], self._last_t[u]
        score[slot] = score.item(slot) * float(np.exp(-(t - last_t.item(slot)))) + 1.0
        last_t[slot] = t

    def _grow(self, u: int, k: int) -> None:
        cap = max(2 * k, 4)
        for arrays in (self._nbr, self._score, self._last_t):
            grown = np.empty(cap, dtype=arrays[u].dtype)
            grown[:k] = arrays[u]
            arrays[u] = grown

    def neighbor_scores(self, u: int, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Neighbors of u with their scores at time t, counting every
        contact the index holds, those at exactly t included.

        The ids are a read-only view of the index's storage, in slot order.
        """
        if t < self.t_frontier:
            raise ValueError(f"query at t={t} behind insertion frontier {self.t_frontier}")
        k = len(self._slot[u])
        ids = self._nbr[u][:k]
        ids.flags.writeable = False
        return ids, self._score[u][:k] * np.exp(-(t - self._last_t[u][:k]))

    def top_m(self, u: int, t: float, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Ids and scores of u's m most significant neighbors at time t,
        counting every contact the index holds (those at t included).

        At the insertion frontier this is the list any later query sees
        until u's next contact, up to the common decay factor; it is the
        row ``TopMTable.build`` stores.
        """
        ids, scores = self.neighbor_scores(u, t)
        order = _rank_order(ids, scores)[:m]
        return ids[order], scores[order]

    def random_m(
        self, u: int, t: float, m: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Up to m neighbors drawn uniformly (not ranked) at time t,
        their keys in slot order, counting every contact the index holds
        as ``top_m`` does, and returned ranked.  It is the row of a table
        built with an ``rng``."""
        ids, scores = self.neighbor_scores(u, t)
        if ids.size > m:
            pick = rng.random(ids.size).argsort(kind="stable")[:m]
            ids, scores = ids[pick], scores[pick]
        order = _rank_order(ids, scores)
        return ids[order], scores[order]


@dataclass(frozen=True)
class TopMTable:
    """Every node's candidate list before its first event and just after
    each of its event times.

    Row r holds ``lens[r]`` neighbors of one node and their scores at
    ``row_t[r]``, counting the contacts at that time: the m most
    significant ones or, in a table built with an ``rng``, a uniform draw
    of up to m of them, ranked the same way.  Rows are sorted by the int64
    key node * (T + 1) + slot, for the T distinct event ``times``: slot 0
    is the node's empty row (row_t -inf, length 0), slot k + 1 its row
    after time rank k.  A query (u, t) reads u's last row strictly before
    t and rescales its scores by exp(-(t - row_t)), 0 for the empty row:
    u's candidates change only at u's own events, and between them every
    score decays by the same factor.  So the rows are exact (a drawn row
    is a uniform subset of the pure route's candidates), in the pure
    route's order also where rescaled scores underflow, except where a
    score had already underflowed at u's own last event: that row keeps
    the id order it had there.
    """

    m: int
    times: np.ndarray   # (T,) distinct event times, ascending
    keys: np.ndarray    # (rows,) node * (T + 1) + slot, ascending
    row_t: np.ndarray   # (rows,) -inf for the empty rows
    ids: np.ndarray     # (rows, m) zero-padded
    scores: np.ndarray  # (rows, m) zero-padded
    lens: np.ndarray    # (rows,)

    @classmethod
    def build(
        cls, g: TemporalGraph, m: int, rng: np.random.Generator | None = None
    ) -> "TopMTable":
        """One chronological sweep of a SignificanceIndex over g's events.

        Each event row is the index's ``top_m`` list, or with ``rng`` its
        ``random_m`` draw; within one event time the rows are drawn in
        node order.  The sweep writes each row into the table as it makes
        it; a stream with no events gives each node its empty row only.
        """
        if m < 1:
            raise ValueError(f"capacity must be at least 1, got {m}")
        index = SignificanceIndex(g.num_nodes)
        # g.t is ascending: its distinct times and each event's time rank in one comparison pass
        new_time = run_starts(g.t)
        times, rank = g.t[new_time], np.cumsum(new_time) - 1
        stride = times.shape[0] + 1
        empty = np.arange(g.num_nodes) * stride
        keys = np.sort(np.concatenate([empty, g.src * stride + rank + 1, g.dst * stride + rank + 1]))
        keys = keys[run_starts(keys)]
        slot = keys % stride
        # the empty rows come first, then the sweep makes the rows in (time rank, node) order
        sweep = np.argsort(slot, kind="stable")
        row_nodes = (keys[sweep] // stride).tolist()
        row_ends = np.cumsum(np.bincount(slot, minlength=stride)).tolist()
        event_ends = np.cumsum(np.bincount(rank, minlength=stride - 1)).tolist()
        n_rows = keys.shape[0]
        ids = np.zeros((n_rows, m), dtype=np.int64)
        scores = np.zeros((n_rows, m), dtype=np.float64)
        lens = np.zeros(n_rows, dtype=np.int64)
        src, dst, t = g.src.tolist(), g.dst.tolist(), g.t.tolist()
        lo, r0 = 0, row_ends[0]
        for hi, r1 in zip(event_ends, row_ends[1:]):
            for u, v, ti in zip(src[lo:hi], dst[lo:hi], t[lo:hi]):
                index.add_event(u, v, ti)
            tf = index.t_frontier
            for r, u in zip(sweep[r0:r1].tolist(), row_nodes[r0:r1]):
                a, b = index.top_m(u, tf, m) if rng is None else index.random_m(u, tf, m, rng)
                k = a.shape[0]
                ids[r, :k], scores[r, :k], lens[r] = a, b, k
            lo, r0 = hi, r1
        return cls(m, times, keys, np.r_[-np.inf, times][slot], ids, scores, lens)

    def lookup(self, nodes, ts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Candidate lists of nodes[i] at ts[i], as (k, m) ids, scores and
        mask, each a row of its node rescaled; the mask comes from the
        stored list lengths, so a score that underflows to 0 keeps its
        slot.  The query keys are searched in ascending order, so that each
        binary search starts at the previous one's hit."""
        nodes = np.asarray(nodes, dtype=np.int64)
        ts = np.asarray(ts, dtype=np.float64)
        key = nodes * (self.times.shape[0] + 1) + np.searchsorted(self.times, ts)
        order = np.argsort(key)
        row = np.empty_like(key)
        row[order] = np.searchsorted(self.keys, key[order], side="right") - 1
        ids = np.take(self.ids, row, axis=0)
        scores = np.take(self.scores, row, axis=0)
        scores *= np.exp(-(ts - np.take(self.row_t, row)))[:, None]
        mask = np.arange(self.m) < np.take(self.lens, row)[:, None]
        return ids, scores, mask
