"""Decayed interaction significance and significant-neighbor selection.

The significance of a node pair at time t is the exponentially decayed
count of their past contacts, sum_i exp(-lambda * (t - t_i)).  Each
node's neighbors are ranked by this score and only the top m are kept
for aggregation.  A forward window [t, t + delta) turns each event into
a graded label: the number of contacts the pair produces inside it.

A candidate list is a pair of arrays ``(ids: int64[k], scores:
float64[k])``, score-descending with the smaller id first on ties.  Both
routes return it: the pure ``top_m_neighbors`` queries an immutable
TemporalGraph (evaluation embeds at one fixed time, and tests pin the
streaming route against it), and ``SignificanceIndex`` sweeps events
chronologically and rescales scores lazily (training queries every event
time, at O(degree) per event instead of a full recomputation).
``sample_m`` draws the uniform subset that the selection-ablated
variants use on either route.
"""

from __future__ import annotations

import bisect

import numpy as np

from stgnn.temporal_graph import TemporalGraph

DEFAULT_DECAY = 1.0


def initial_significance(history, t: float, lam: float = DEFAULT_DECAY) -> float:
    """Decayed contact count sum_i exp(-lam * (t - t_i)) over past events.

    Every historical timestamp must precede ``t`` strictly; an empty
    history scores 0.
    """
    if lam <= 0:
        raise ValueError(f"decay rate must be positive, got {lam}")
    h = np.asarray(history, dtype=np.float64)
    if h.size == 0:
        return 0.0
    if h.max() >= t:
        raise ValueError(f"history contains timestamps at or after t={t}")
    return float(np.exp(-lam * (t - h)).sum())


def _rank_order(ids: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Indices sorting by score descending, neighbor id ascending on ties."""
    return np.lexsort((ids, -scores))


def sample_m(
    ids: np.ndarray, scores: np.ndarray, m: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Up to m candidates drawn uniformly without replacement, ranked.

    Used by the selection-ablated model variants.  The sampled subset is
    returned score-descending so downstream rank corrections stay
    aligned.
    """
    if ids.size > m:
        pick = rng.choice(ids.size, size=m, replace=False)
        ids, scores = ids[pick], scores[pick]
    order = _rank_order(ids, scores)
    return ids[order], scores[order]


def top_m_neighbors(
    g: TemporalGraph, u: int, t: float, m: int, lam: float = DEFAULT_DECAY
) -> tuple[np.ndarray, np.ndarray]:
    """Ids and scores of u's m most significant neighbors at time t.

    A neighbor qualifies once it has at least one contact with u strictly
    before t.  Isolated nodes yield empty arrays.
    """
    if m < 1:
        raise ValueError(f"capacity must be at least 1, got {m}")
    ids: list[int] = []
    scores: list[float] = []
    for v, ts in g.neighbors(u).items():
        hist = ts[: bisect.bisect_left(ts, t)]
        if hist.shape[0] == 0:
            continue
        ids.append(v)
        scores.append(float(np.exp(-lam * (t - hist)).sum()))
    ids_a = np.asarray(ids, dtype=np.int64)
    sc_a = np.asarray(scores, dtype=np.float64)
    order = _rank_order(ids_a, sc_a)[:m]
    return ids_a[order], sc_a[order]


def significance_label(g: TemporalGraph, u: int, v: int, t: float, delta: float) -> int:
    """Contacts of (u, v) inside the window [t, t + delta).

    The anchor event at exactly t counts toward its own label, so real
    events always label >= 1.
    """
    if delta <= 0:
        raise ValueError(f"window size must be positive, got {delta}")
    return g.count_in_window(u, v, t, t + delta)


class SignificanceIndex:
    """Streaming significance scores over a chronological event sweep.

    Events are inserted in non-decreasing time order and queries must not
    run behind the insertion frontier.  Per neighbor the index stores the
    score decayed to the last contact time, split into the part strictly
    before that time and the count at exactly that time, so queries at a
    timestamp that exactly matches pending contacts still see the strict
    "before t" semantics of the pure route.

    Scores at a later time are the stored ones rescaled by a common
    exp(-lam * dt) factor, which also preserves the ranking; top-m lists
    are therefore cached per node and invalidated only when the node
    gains an event.
    """

    def __init__(self, num_nodes: int, lam: float = DEFAULT_DECAY):
        if lam <= 0:
            raise ValueError(f"decay rate must be positive, got {lam}")
        self.num_nodes = num_nodes
        self.lam = lam
        self.t_frontier = -np.inf
        self._slot: list[dict[int, int]] = [dict() for _ in range(num_nodes)]
        self._nbr: list[list[int]] = [[] for _ in range(num_nodes)]
        self._s_strict: list[list[float]] = [[] for _ in range(num_nodes)]
        self._n_last: list[list[float]] = [[] for _ in range(num_nodes)]
        self._n_total: list[list[float]] = [[] for _ in range(num_nodes)]
        self._last_t: list[list[float]] = [[] for _ in range(num_nodes)]
        self._version = [0] * num_nodes
        # node -> (version, m, t_ref, ids, scores_at_t_ref)
        self._topm_cache: dict[int, tuple[int, int, float, np.ndarray, np.ndarray]] = {}

    def add_event(self, u: int, v: int, t: float) -> None:
        """Record a contact; time must not run backwards."""
        if t < self.t_frontier:
            raise ValueError(f"events must arrive in time order ({t} < {self.t_frontier})")
        self.t_frontier = t
        self._add_directed(u, v, t)
        self._add_directed(v, u, t)
        self._version[u] += 1
        self._version[v] += 1

    def _add_directed(self, u: int, v: int, t: float) -> None:
        slots = self._slot[u]
        slot = slots.get(v)
        if slot is None:
            slots[v] = len(self._nbr[u])
            self._nbr[u].append(v)
            self._s_strict[u].append(0.0)
            self._n_last[u].append(1.0)
            self._n_total[u].append(1.0)
            self._last_t[u].append(t)
            return
        self._n_total[u][slot] += 1.0
        last = self._last_t[u][slot]
        if t == last:
            self._n_last[u][slot] += 1.0
        else:
            decay = float(np.exp(-self.lam * (t - last)))
            self._s_strict[u][slot] = (self._s_strict[u][slot] + self._n_last[u][slot]) * decay
            self._n_last[u][slot] = 1.0
            self._last_t[u][slot] = t

    def _check_query_time(self, t: float) -> None:
        if t < self.t_frontier:
            raise ValueError(
                f"query at t={t} behind insertion frontier {self.t_frontier}"
            )

    def neighbor_scores(self, u: int, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Historical neighbors of u with scores at time t (strict).

        Neighbors whose every recorded contact sits at exactly t are not
        yet historical and are omitted, mirroring the pure route.
        """
        self._check_query_time(t)
        ids = np.asarray(self._nbr[u], dtype=np.int64)
        if ids.size == 0:
            return ids, np.empty(0, dtype=np.float64)
        s_strict = np.asarray(self._s_strict[u], dtype=np.float64)
        n_last = np.asarray(self._n_last[u], dtype=np.float64)
        n_total = np.asarray(self._n_total[u], dtype=np.float64)
        last_t = np.asarray(self._last_t[u], dtype=np.float64)
        at_t = last_t == t
        scores = (s_strict + n_last) * np.exp(-self.lam * (t - last_t))
        scores[at_t] = s_strict[at_t]
        qualified = ~at_t | (n_total > n_last)
        return ids[qualified], scores[qualified]

    def score(self, u: int, v: int, t: float) -> float:
        """Streaming counterpart of initial_significance for one pair."""
        self._check_query_time(t)
        slot = self._slot[u].get(v)
        if slot is None:
            return 0.0
        last = self._last_t[u][slot]
        if last == t:
            return self._s_strict[u][slot] if self._n_total[u][slot] > self._n_last[u][slot] else 0.0
        return (self._s_strict[u][slot] + self._n_last[u][slot]) * float(
            np.exp(-self.lam * (t - last))
        )

    def top_m(self, u: int, t: float, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Ids and scores of u's m most significant neighbors at time t.

        Returns arrays of length <= m, score-descending with id tie-break,
        matching top_m_neighbors on the equivalent graph.
        """
        self._check_query_time(t)
        cached = self._topm_cache.get(u)
        if cached is not None:
            version, cm, t_ref, ids, scores = cached
            if version == self._version[u] and cm == m:
                if t == t_ref:
                    return ids.copy(), scores.copy()
                return ids.copy(), scores * float(np.exp(-self.lam * (t - t_ref)))
        ids_all, scores_all = self.neighbor_scores(u, t)
        order = _rank_order(ids_all, scores_all)[:m]
        ids, scores = ids_all[order], scores_all[order]
        self._topm_cache[u] = (self._version[u], m, t, ids, scores)
        return ids.copy(), scores.copy()

    def random_m(
        self, u: int, t: float, m: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Uniformly sampled (not ranked) historical neighbors at time t;
        see ``sample_m``."""
        ids_all, scores_all = self.neighbor_scores(u, t)
        return sample_m(ids_all, scores_all, m, rng)
