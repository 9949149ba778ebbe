"""Decayed interaction significance and significant-neighbor selection.

The significance of a node pair at time t is the exponentially decayed
count of their past contacts, sum_i exp(-lambda * (t - t_i)).  Each
node's neighbors are ranked by this score and only the top m are kept
for aggregation.  (The forward-window labels of the training events are
counted in stgnn.training.build_positive_samples.)

Candidate lists reach the model as zero-padded (k, m) arrays ``ids``,
``scores`` and ``mask``, each row score-descending with the smaller id first on
ties, counting only contacts strictly before the query time.  Two
routes produce them:

* ``top_m_neighbors`` gives every node's list at one time t in a single
  array pass over the graph's CSR pair index (``pair_significance``;
  evaluation embeds at one fixed time).
* ``SignificanceIndex`` sweeps events chronologically and keeps each
  neighbor's score up to date in O(1) per contact.  One sweep of it over
  the training stream's time-sorted columns builds a ``TopMTable`` from
  its lists at each event time, and the table answers any batch of
  training-time queries: a node's candidate set changes only at its own
  events, and between them every score decays by the same factor.

Given an ``rng``, both routes replace each list by a uniform draw of up
to m candidates (the selection-ablated variants): each candidate of a node
with more than m gets one ``rng.random`` key and the m smallest keys are
kept (``sample_m``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stgnn.temporal_graph import TemporalGraph, narrow_ids

DEFAULT_DECAY = 1.0


def _rank_order(ids: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Indices sorting by score descending, neighbor id ascending on ties."""
    return np.lexsort((ids, -scores))


def sample_m(
    ids: np.ndarray, scores: np.ndarray, m: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Up to m candidates drawn uniformly without replacement, ranked.

    Used by the selection-ablated model variants.  With more than m
    candidates, each gets one ``rng.random`` key, in the order given, and
    the m with the smallest keys are kept (the earlier candidate on equal
    keys): a uniform draw without replacement.  The subset is returned
    score-descending so downstream rank corrections stay aligned.
    """
    if ids.size > m:
        pick = rng.random(ids.size).argsort(kind="stable")[:m]
        ids, scores = ids[pick], scores[pick]
    order = _rank_order(ids, scores)
    return ids[order], scores[order]


def pair_significance(g: TemporalGraph, t: float, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The CSR ids of the pairs of g with a contact strictly before t,
    ascending (so in pair-key order), and each one's decayed contact
    count at t."""
    past = g.pair_t < t
    n_pairs = g.pair_key.shape[0]
    pair = np.repeat(np.arange(n_pairs), np.diff(g.pair_ptr))[past]
    sums = np.bincount(pair, weights=np.exp(-lam * (t - g.pair_t[past])), minlength=n_pairs)
    live = np.flatnonzero(np.bincount(pair, minlength=n_pairs))
    return live, sums[live]


def top_m_neighbors(
    g: TemporalGraph, t: float, m: int, lam: float = DEFAULT_DECAY, rng: np.random.Generator | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every node's m most significant neighbors at time t, as
    (num_nodes, m) ids, scores and mask; row u is node u's list.

    A neighbor qualifies once it has at least one contact with u strictly
    before t; isolated nodes get an empty row.  With ``rng`` each row is
    instead a ``sample_m`` draw from all of the node's candidates in their
    ranked order, the nodes drawn in id order: one ``rng.random`` call
    gives every key of the nodes with more than m candidates.

    The lists come from one stable sort of every (node, neighbor) entry by
    node, score descending and neighbor id, with the ids narrowed
    (``narrow_ids``): up to 65,536 nodes the id keys sort as radix sorts.
    """
    if m < 1:
        raise ValueError(f"capacity must be at least 1, got {m}")
    if not lam > 0:
        raise ValueError(f"decay rate must be positive, got {lam}")
    pairs, sums = pair_significance(g, t, lam)
    ends = narrow_ids(g.pair_ends()[pairs])
    # each pair from both ends, ranked within each node
    node, nbr, score = ends.T.reshape(-1), ends[:, ::-1].T.reshape(-1), np.tile(sums, 2)
    order = np.lexsort((nbr, -score, node))
    node, nbr, score = node[order], nbr[order], score[order]
    n = g.num_nodes
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
    run behind the insertion frontier.  Per neighbor the index stores the
    score decayed to the last contact time, split into the part strictly
    before that time and the count at exactly that time, and the last
    contact time.  The candidate lists (``neighbor_scores``, ``top_m``,
    ``random_m``) count every contact held, so a query at a time t ahead
    of the frontier sees the contacts strictly before t.

    Each node's neighbors sit in slots in first-contact order, in per-node
    numpy arrays of ids, s_strict, n_last and last contact time that double
    when full, so that a query computes every score from views.

    ``TopMTable.build`` sweeps it and stores each node's ``top_m`` list,
    or a ``random_m`` draw, at each of the node's event times.
    """

    def __init__(self, num_nodes: int, lam: float = DEFAULT_DECAY):
        if not lam > 0:
            raise ValueError(f"decay rate must be positive, got {lam}")
        self.num_nodes = num_nodes
        self.lam = lam
        self.t_frontier = -np.inf
        self._slot: list[dict[int, int]] = [dict() for _ in range(num_nodes)]
        self._nbr: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * num_nodes
        self._s_strict: list[np.ndarray] = [np.empty(0)] * num_nodes
        self._n_last: list[np.ndarray] = [np.empty(0)] * num_nodes
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
            self._s_strict[u][k] = 0.0
            self._n_last[u][k] = 1.0
            self._last_t[u][k] = t
            return
        s_strict, n_last, last_t = self._s_strict[u], self._n_last[u], self._last_t[u]
        last = last_t.item(slot)
        if t == last:
            n_last[slot] += 1.0
        else:
            decay = float(np.exp(-self.lam * (t - last)))
            s_strict[slot] = (s_strict.item(slot) + n_last.item(slot)) * decay
            n_last[slot] = 1.0
            last_t[slot] = t

    def _grow(self, u: int, k: int) -> None:
        cap = max(2 * k, 4)
        for arrays in (self._nbr, self._s_strict, self._n_last, self._last_t):
            grown = np.empty(cap, dtype=arrays[u].dtype)
            grown[:k] = arrays[u]
            arrays[u] = grown

    def _check_query_time(self, t: float) -> None:
        if t < self.t_frontier:
            raise ValueError(
                f"query at t={t} behind insertion frontier {self.t_frontier}"
            )

    def neighbor_scores(self, u: int, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Neighbors of u with their scores at time t, counting every
        contact the index holds, those at exactly t included.

        The ids are a read-only view of the index's storage, in slot order.
        """
        self._check_query_time(t)
        k = len(self._slot[u])
        ids = self._nbr[u][:k]
        ids.flags.writeable = False
        s_strict, n_last, last_t = self._s_strict[u][:k], self._n_last[u][:k], self._last_t[u][:k]
        return ids, (s_strict + n_last) * np.exp(-self.lam * (t - last_t))

    def top_m(self, u: int, t: float, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Ids and scores of u's m most significant neighbors at time t,
        counting every contact the index holds (those at t included).

        At the insertion frontier this is the list any later query sees
        until u's next contact, up to the common decay factor; it is the
        row ``TopMTable.build`` stores.  Nothing is cached.
        """
        ids, scores = self.neighbor_scores(u, t)
        order = _rank_order(ids, scores)[:m]
        return ids[order], scores[order]

    def random_m(
        self, u: int, t: float, m: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Up to m neighbors drawn uniformly (not ranked) at time t,
        counting every contact the index holds as ``top_m`` does; see
        ``sample_m``.  It is the row of a table built with an ``rng``."""
        return sample_m(*self.neighbor_scores(u, t), m, rng)


@dataclass(frozen=True)
class TopMTable:
    """Every node's candidate list just after each of its event times.

    Row r holds ``lens[r]`` neighbors of one node and their scores at
    ``row_t[r]``, counting the contacts at that time: the m most
    significant ones or, in a table built with an ``rng``, a uniform draw
    of up to m of them, new in each build and ranked the same way.  Rows
    are sorted by the int64 key node * len(times) + time rank, where
    ``times`` are the distinct event times; ``first[u]`` is u's first row,
    or where its rows would start if it has none.  A query (u, t) reads
    u's last row strictly before t and rescales its scores by exp(-lam *
    (t - row_t)): u's candidates change only at u's own events, and between
    them every score decays by the same factor.  The rows are therefore
    exact (a drawn row is a uniform subset of the pure route's candidates,
    with their exact scores) while no score underflows.  Once the
    rescaled scores reach 0, a row keeps its order from row_t, where the
    pure route falls back to id order over the zero scores.
    """

    m: int
    lam: float
    times: np.ndarray   # (T,) distinct event times, ascending
    keys: np.ndarray    # (rows,) node * T + time rank, ascending
    row_t: np.ndarray   # (rows,)
    ids: np.ndarray     # (rows, m) zero-padded
    scores: np.ndarray  # (rows, m) zero-padded
    lens: np.ndarray    # (rows,)
    first: np.ndarray   # (num_nodes,) each node's first row

    @classmethod
    def build(
        cls, g: TemporalGraph, m: int, lam: float = DEFAULT_DECAY, rng: np.random.Generator | None = None
    ) -> "TopMTable":
        """One chronological sweep of a SignificanceIndex over g's events.

        Each row is the index's ``top_m`` list, or with ``rng`` its
        ``random_m`` draw; within one event time the rows are drawn in
        node order.  The sweep writes each row into the table as it makes
        it.
        """
        if m < 1:
            raise ValueError(f"capacity must be at least 1, got {m}")
        if g.num_events == 0:
            raise ValueError("a top-m table needs at least one event")
        index = SignificanceIndex(g.num_nodes, lam=lam)
        times, rank = np.unique(g.t, return_inverse=True)
        n_t = times.shape[0]
        keys = np.unique(np.concatenate([g.src, g.dst]) * n_t + np.tile(rank, 2))
        first = np.searchsorted(keys, np.arange(g.num_nodes, dtype=np.int64) * n_t)
        key_rank = keys % n_t
        # the sweep makes the rows in (time rank, node) order
        sweep = np.argsort(key_rank, kind="stable")
        row_nodes = (keys[sweep] // n_t).tolist()
        row_ends = np.cumsum(np.bincount(key_rank, minlength=n_t)).tolist()
        event_ends = np.cumsum(np.bincount(rank, minlength=n_t)).tolist()
        n_rows = keys.shape[0]
        ids = np.zeros((n_rows, m), dtype=np.int64)
        scores = np.zeros((n_rows, m), dtype=np.float64)
        lens = np.zeros(n_rows, dtype=np.int64)
        src, dst, t = g.src.tolist(), g.dst.tolist(), g.t.tolist()
        lo = r0 = 0
        for hi, r1 in zip(event_ends, row_ends):
            for u, v, ti in zip(src[lo:hi], dst[lo:hi], t[lo:hi]):
                index.add_event(u, v, ti)
            tf = index.t_frontier
            for r, u in zip(sweep[r0:r1].tolist(), row_nodes[r0:r1]):
                a, b = index.top_m(u, tf, m) if rng is None else index.random_m(u, tf, m, rng)
                k = a.shape[0]
                ids[r, :k], scores[r, :k], lens[r] = a, b, k
            lo, r0 = hi, r1
        return cls(m, lam, times, keys, times[key_rank], ids, scores, lens, first)

    def lookup(self, nodes, ts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Candidate lists of nodes[i] at ts[i], as (k, m) ids, scores and
        mask, zero-padded; the mask comes from the stored list lengths, so
        a score that underflows to 0 keeps its slot."""
        nodes = np.asarray(nodes, dtype=np.int64)
        ts = np.asarray(ts, dtype=np.float64)
        n_t = self.times.shape[0]
        row = np.searchsorted(self.keys, nodes * n_t + np.searchsorted(self.times, ts)) - 1
        found = row >= np.take(self.first, nodes)  # u has an event-time group strictly before t
        row = np.where(found, row, 0)
        decay = np.exp(-self.lam * np.where(found, ts - np.take(self.row_t, row), 0.0))
        # stored rows are zero past their length: only the queries with no row need zeroing
        ids = np.take(self.ids, row, axis=0)
        scores = np.take(self.scores, row, axis=0)
        scores *= decay[:, None]
        missing = np.flatnonzero(~found)
        ids[missing], scores[missing] = 0, 0.0
        mask = np.arange(self.m) < np.where(found, np.take(self.lens, row), 0)[:, None]
        return ids, scores, mask
