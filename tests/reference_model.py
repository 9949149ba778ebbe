"""Reference implementations the tests pin the program against.

* The row form of a contact stream: ``Event`` rows, ``from_events`` and
  ``events_of`` to cross between rows and the columnar graph, the
  row-built pair index (the oracle for the CSR pair index), the row
  loader ``load_edge_list_rows`` and row split ``split_rows`` (the oracle
  for the columnar loader and split), and per-pair ``pair_history``,
  ``count_in_window`` and ``significance_label``, with ``TrainSample``
  and ``positive_samples`` (the oracle for the label column of
  ``stgnn.training.build_positive_samples``).
* ``pure_top_m``, one node's candidate list at one time, ranked from the
  node's pair histories: the oracle for the array pass
  ``stgnn.significance.top_m_neighbors``, the top-m table and the
  streaming index.
* ``entry_sort_top_m_neighbors``, the array pass that sorts every
  directed (node, neighbor) entry on four keys: the bitwise oracle for
  ``stgnn.significance.top_m_neighbors``, which ranks each pair once.
* ``m_smallest_keys``, one uniform draw of up to m candidates from a list
  (one random key per candidate, the m smallest kept): the oracle for the
  uniform draws of ``stgnn.significance``.
* ``ListSignificanceIndex`` and ``sweep_table``, the streaming index with
  its state in Python lists and the table filled row by row during its
  sweep: the bitwise oracle for ``SignificanceIndex`` and
  ``TopMTable.build``.
* A per-node recursive forward pass, the oracle for the batched one: the
  readable form of the two-layer aggregation, where one call embeds one
  node by recursing through its candidate lists, and each layer is a
  plain loop over neighbor vectors.  ``stgnn.model`` computes the same
  embedding batched over a flattened tree.
* ``tree_forward_node``, the embeddings of chosen nodes at one time
  through a training tree (``stgnn.model.build_batch`` over a table
  whose lookup indexes one ``top_m_neighbors`` pass): the oracle for the
  dense ``stgnn.model.forward_node``, which embeds every node at once.
* ``where_masked_phi``, the batched softmax of ``phi`` written with one
  new array per step: the bitwise oracle for the in-place
  ``stgnn.model._masked_phi``.
* The scalar per-sample loss and ``cosine``, the oracle for the batched
  loss.
* ``BatchTree``, the dict-based tree builder that builds one entry at a
  time, the oracle for the array builder ``stgnn.model.build_batch``.
* The batch loss and its gradients over a tree built from ``pure_top_m``
  queries on an immutable graph, used by the gradient checks (training
  itself uses the top-m table).
* ``draw_negative``, one negative per positive drawn against the
  graph's numpy pair timestamps, and ``sample_negatives`` over a list of
  positives: the oracle for the negative column of ``stgnn.training``.
* ``forward_backward``, the batch loss and gradients with one flat-index
  ``scatter_rows`` per scatter and the layer-1 neighbour rows built eight
  columns at a time: the oracle for the scatters of
  ``stgnn.training._forward_backward``.
* ``check_finite`` over a parameter set.
* ``initial_significance``, the decayed contact count of one pair
  history, and the per-pair ``heuristic_reference`` built on it, the
  oracle for the one-pass reference of ``stgnn.evaluation``.
* The small random instances and the finite-difference helpers of the
  gradient checks.
* ``fit_power_law_filtered``, the cutoff search that filters and sorts
  the sample anew for each candidate cutoff: the oracle for
  ``stgnn.powerlaw.fit_power_law``, which sorts once and reads each tail
  as a suffix.
* ``ScoredPair`` with the list-of-pairs ``auc`` (midranks from an
  ascending sort) and ``mean_average_precision`` (one sort per list),
  the oracle for the column metrics of ``stgnn.evaluation``, which rank
  each score column once; plus brute-force AUC and AP over such lists.
"""

from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from stgnn.model import (
    NORM_EPS,
    ModelParams,
    _FlatBatch,
    build_batch,
    forward_batch,
    init_params,
    random_features,
)
from stgnn.powerlaw import MAX_XMIN_CANDIDATES, DegenerateFitError, PowerLawFit, _alpha_mle, _ks_distance
from stgnn.significance import TopMTable, pair_significance, top_m_neighbors
from stgnn.temporal_graph import COMMENT_PREFIXES, EdgeListParseError, TemporalGraph, from_columns
from stgnn.training import TrainConfig, _forward_backward

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# The row form of a contact stream
# ---------------------------------------------------------------------------


class Event(NamedTuple):
    """One undirected contact between nodes ``u`` and ``v`` at time ``t``."""

    u: int
    v: int
    t: float


def from_events(events, num_nodes: int | None = None, raw_ids: list[str] | None = None) -> TemporalGraph:
    """A columnar graph from a list of Event rows (dense ids)."""
    u, v, t = (list(c) for c in zip(*events)) if events else ([], [], [])
    return from_columns(u, v, t, num_nodes=num_nodes, raw_ids=raw_ids)


def events_of(g: TemporalGraph) -> list[Event]:
    """The graph's contact columns as Event rows, in time order."""
    return [Event(*e) for e in zip(g.src.tolist(), g.dst.tolist(), g.t.tolist())]


def pair_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def row_pair_index(events: list[Event]) -> dict[tuple[int, int], np.ndarray]:
    """(min(u,v), max(u,v)) -> each pair's timestamps in event order, built
    row by row: the oracle for the CSR pair index."""
    by_pair: dict[tuple[int, int], list[float]] = {}
    for u, v, t in events:
        by_pair.setdefault(pair_key(u, v), []).append(t)
    return {k: np.asarray(ts, dtype=np.float64) for k, ts in by_pair.items()}


def pair_index(g: TemporalGraph) -> dict[tuple[int, int], np.ndarray]:
    """The row-built pair index of g's events."""
    return row_pair_index(events_of(g))


def csr_pair_times(g: TemporalGraph, u: int, v: int) -> np.ndarray:
    """The (u, v) timestamps of the graph's CSR pair index; empty for an
    unknown pair."""
    key = min(u, v) * g.num_nodes + max(u, v)
    i = int(np.searchsorted(g.pair_key, key))
    if i == g.pair_key.shape[0] or g.pair_key[i] != key:
        return np.empty(0, dtype=np.float64)
    return g.pair_t[g.pair_ptr[i] : g.pair_ptr[i + 1]]


def pair_history(g: TemporalGraph, u: int, v: int, t: float) -> np.ndarray:
    """All timestamps of (u, v) contacts strictly before ``t``."""
    if u == v:
        raise ValueError("pair history requires two distinct nodes")
    ts = csr_pair_times(g, u, v)
    return ts[: bisect.bisect_left(ts, t)]


def count_in_window(g: TemporalGraph, u: int, v: int, t0: float, t1: float) -> int:
    """Number of (u, v) contacts with timestamp in [t0, t1)."""
    ts = csr_pair_times(g, u, v)
    return int(np.searchsorted(ts, t1, side="left") - np.searchsorted(ts, t0, side="left"))


def significance_label(g: TemporalGraph, u: int, v: int, t: float, delta: float) -> int:
    """Contacts of (u, v) inside the window [t, t + delta): one pair at a
    time, the oracle for the label column of build_positive_samples."""
    if delta <= 0:
        raise ValueError(f"window size must be positive, got {delta}")
    return count_in_window(g, u, v, t, t + delta)


@dataclass(frozen=True)
class TrainSample:
    """One supervision point: a (u, v) pair at time t with its window label."""

    u: int
    v: int
    t: float
    positive: bool
    s_delta: int


def positive_samples(g: TemporalGraph, delta: float | None) -> list[TrainSample]:
    """One positive per event, labeled one event at a time."""
    return [
        TrainSample(u, v, t, True, significance_label(g, u, v, t, delta) if delta is not None else 1)
        for u, v, t in events_of(g)
    ]


def check_finite(params: ModelParams) -> None:
    for name, a in params.arrays():
        if not np.all(np.isfinite(a)):
            raise FloatingPointError(f"non-finite values in {name}")


def load_edge_list_rows(path, time_unit: float = 1.0) -> tuple[list[Event], list[str]]:
    """The row loader: the file's contacts as time-sorted Event rows (self-
    loops dropped) and the labels in dense-id order.  The oracle for the
    columnar ``load_edge_list``."""
    rows: list[tuple[str, str, float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith(COMMENT_PREFIXES):
                continue
            parts = stripped.replace(",", " ").split()
            if len(parts) < 3:
                raise EdgeListParseError(f"{path}:{lineno}: expected 'u v t', got {line!r}")
            t_raw = float(parts[2])
            if not math.isfinite(t_raw):
                raise EdgeListParseError(f"{path}:{lineno}: non-finite timestamp {parts[2]!r}")
            rows.append((parts[0], parts[1], t_raw))
    labels = {lab for u, v, _ in rows for lab in (u, v)}

    def is_int(lab):
        try:
            int(lab)
        except ValueError:
            return False
        return True

    ordered = sorted(labels, key=lambda lab: (int(lab), lab)) if all(map(is_int, labels)) else sorted(labels)
    remap = {lab: i for i, lab in enumerate(ordered)}
    t_min = min(t for _, _, t in rows) / time_unit
    events = [
        Event(remap[a], remap[b], t / time_unit - t_min) for a, b, t in rows if remap[a] != remap[b]
    ]
    return sorted(events, key=lambda e: e.t), ordered


def split_rows(events: list[Event], ratio: float) -> tuple[float, list[Event], list[tuple[int, int]]]:
    """The row split of time-sorted events: t_split, the training events
    and the sorted held-out pairs.  The oracle for ``split_train_test``."""
    t_split = ratio * events[-1].t
    train = [e for e in events if e.t <= t_split]
    return t_split, train, sorted({pair_key(e.u, e.v) for e in events if e.t > t_split})


def pure_top_m(
    g: TemporalGraph, u: int, t: float, m: int, lam: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Ids and scores of u's m most significant neighbors at time t,
    score-descending; exact score ties go to the larger log score
    log sum_i exp(-lam (t_last - t_i)) - lam (t - t_last), with t_last the
    pair's last contact before t, which stays finite where the score
    underflows, then to the smaller id.

    A neighbor qualifies once it has at least one contact with u strictly
    before t.  Isolated nodes yield empty arrays.
    """
    if m < 1:
        raise ValueError(f"capacity must be at least 1, got {m}")
    if not lam > 0:
        raise ValueError(f"decay rate must be positive, got {lam}")
    ranked: list[tuple[float, float, int]] = []
    ptr = g.pair_ptr.tolist()
    for i, (a, b) in enumerate(g.pair_ends().tolist()):
        if u in (a, b):
            ts = g.pair_t[ptr[i] : ptr[i + 1]]
            hist = ts[: bisect.bisect_left(ts, t)]
            if hist.shape[0]:
                t_last = float(hist[-1])
                log_score = math.log(float(np.exp(-lam * (t_last - hist)).sum())) - lam * (t - t_last)
                ranked.append((float(np.exp(-lam * (t - hist)).sum()), log_score, b if a == u else a))
    ranked.sort(key=lambda c: (-c[0], -c[1], c[2]))
    ids_a = np.asarray([c[2] for c in ranked[:m]], dtype=np.int64)
    sc_a = np.asarray([c[0] for c in ranked[:m]], dtype=np.float64)
    return ids_a, sc_a


def entry_sort_top_m_neighbors(
    g: TemporalGraph, t: float, m: int, rng: np.random.Generator | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every node's list at time t from one ``lexsort`` of every directed
    (node, neighbor) entry by node, score and log score descending and
    neighbor id: the bitwise oracle for
    ``stgnn.significance.top_m_neighbors``, which ranks each undirected
    pair once and groups the ranked entries by node.  With ``rng`` the
    same entries, in the same order, get the same keys.
    """
    pairs, sums = pair_significance(g, t)
    past = np.flatnonzero(g.pair_t < t)
    head = np.searchsorted(past, g.pair_ptr[pairs])
    count = np.diff(head, append=past.shape[0])
    t_last = g.pair_t[g.pair_ptr[pairs] + count - 1]
    logs = np.log(np.add.reduceat(np.exp(g.pair_t[past] - np.repeat(t_last, count)), head)) - (t - t_last)
    ends = g.pair_ends()[pairs]
    node, nbr, score = ends.T.reshape(-1), ends[:, ::-1].T.reshape(-1), np.tile(sums, 2)
    order = np.lexsort((nbr, -np.tile(logs, 2), -score, node))
    node, nbr, score = node[order], nbr[order], score[order]
    n = g.num_nodes
    deg = np.bincount(node, minlength=n)
    start = np.cumsum(deg) - deg
    rank = np.arange(node.shape[0]) - start[node]
    if rng is not None:
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


def m_smallest_keys(ids, scores, m: int, rng: np.random.Generator) -> tuple[list[int], list[float]]:
    """Up to m of the candidates (ids[i], scores[i]), given in candidate
    order: with more than m, ``rng.random`` gives one key per candidate
    and the m with the smallest keys are kept, the earlier candidate on
    equal keys.  Returned score-descending with the smaller id first on
    ties.  The list oracle for the uniform draws of
    ``stgnn.significance``: ``SignificanceIndex.random_m``,
    ``top_m_neighbors`` with an rng and a ``TopMTable`` built with one.
    """
    cands = list(zip(list(ids), list(scores)))
    if len(cands) > m:
        keys = rng.random(len(cands)).tolist()
        cands = [cands[i] for i in sorted(range(len(cands)), key=lambda i: (keys[i], i))[:m]]
    cands.sort(key=lambda c: (-c[1], c[0]))
    return [int(c[0]) for c in cands], [float(c[1]) for c in cands]


class ListSignificanceIndex:
    """The streaming significance index with its per-neighbor state in
    Python lists, converted to arrays at each query: the oracle for the
    array-backed ``stgnn.significance.SignificanceIndex``, which runs the
    same recurrence.

    Per neighbor it stores the score at the last contact time, every
    contact held counted, and that time: each contact at t makes the score
    s * exp(-(t - last)) + 1, one at the last time included; a query
    counts every contact held.
    """

    def __init__(self, num_nodes: int):
        self.t_frontier = -np.inf
        self._slot: list[dict[int, int]] = [dict() for _ in range(num_nodes)]
        self._nbr: list[list[int]] = [[] for _ in range(num_nodes)]
        self._score: list[list[float]] = [[] for _ in range(num_nodes)]
        self._last_t: list[list[float]] = [[] for _ in range(num_nodes)]

    def add_event(self, u: int, v: int, t: float) -> None:
        assert t >= self.t_frontier
        self.t_frontier = t
        self._add_directed(u, v, t)
        self._add_directed(v, u, t)

    def _add_directed(self, u: int, v: int, t: float) -> None:
        slots = self._slot[u]
        slot = slots.get(v)
        if slot is None:
            slots[v] = len(self._nbr[u])
            self._nbr[u].append(v)
            self._score[u].append(1.0)
            self._last_t[u].append(t)
            return
        decay = float(np.exp(-(t - self._last_t[u][slot])))
        self._score[u][slot] = self._score[u][slot] * decay + 1.0
        self._last_t[u][slot] = t

    def neighbor_scores(self, u: int, t: float) -> tuple[np.ndarray, np.ndarray]:
        """u's neighbors in first-contact order and their scores at t."""
        assert t >= self.t_frontier
        ids = np.asarray(self._nbr[u], dtype=np.int64)
        score = np.asarray(self._score[u], dtype=np.float64)
        last_t = np.asarray(self._last_t[u], dtype=np.float64)
        return ids, score * np.exp(-(t - last_t))


def sweep_table(g: TemporalGraph, m: int, rng: np.random.Generator | None = None) -> TopMTable:
    """The top-m table filled row by row during one chronological sweep of
    a ``ListSignificanceIndex``: after each event-time group, each touched
    node's list goes straight into its next row, and each node's first row
    is an empty one, read before its first event.  With ``rng`` each row is
    an ``m_smallest_keys`` draw from the node's candidates in first-contact
    order, the rows of one event time drawn in node order.  The oracle for
    ``stgnn.significance.TopMTable.build``.
    """
    index = ListSignificanceIndex(g.num_nodes)
    times, rank = np.unique(g.t, return_inverse=True)
    stride = times.shape[0] + 1
    # each node's empty row in slot 0, then a row after each of its event times
    slots = {(u, 0) for u in range(g.num_nodes)}
    slots.update((u, r + 1) for a, b, r in zip(g.src.tolist(), g.dst.tolist(), rank.tolist()) for u in (a, b))
    keys = np.array(sorted(u * stride + k for u, k in slots), dtype=np.int64)
    # a node's rows are consecutive and in time order: fill them in sweep order, after its empty row
    cursor = (np.searchsorted(keys, np.arange(g.num_nodes, dtype=np.int64) * stride) + 1).tolist()
    ids = np.zeros((keys.shape[0], m), dtype=np.int64)
    scores = np.zeros((keys.shape[0], m), dtype=np.float64)
    lens = np.zeros(keys.shape[0], dtype=np.int64)
    bounds = np.flatnonzero(np.diff(rank)) + 1
    src, dst, t = g.src.tolist(), g.dst.tolist(), g.t.tolist()
    for lo, hi in zip([0, *bounds.tolist()], [*bounds.tolist(), g.num_events]):
        touched = set()
        for u, v, ti in zip(src[lo:hi], dst[lo:hi], t[lo:hi]):
            index.add_event(u, v, ti)
            touched.update((u, v))
        for u in sorted(touched):
            nbr, sc = index.neighbor_scores(u, index.t_frontier)
            if rng is None:
                order = np.lexsort((nbr, -sc))[:m]
                nbr, sc = nbr[order], sc[order]
            else:
                nbr, sc = m_smallest_keys(nbr.tolist(), sc.tolist(), m, rng)
            row = cursor[u]
            cursor[u] += 1
            lens[row] = k = len(nbr)
            ids[row, :k], scores[row, :k] = nbr, sc
    row_t = np.array([-np.inf if k % stride == 0 else times[k % stride - 1] for k in keys.tolist()])
    return TopMTable(m, times, keys, row_t, ids, scores, lens)


def phi(scores, beta) -> np.ndarray:
    """Softmax weights over rank-aligned score * correction products.

    ``scores`` are the top-k significance values in rank order; rank i
    pairs with beta[i].  Computed with max subtraction since raw scores
    can reach the hundreds on high-frequency pairs.
    """
    scores = np.asarray(scores, dtype=np.float64)
    k = scores.shape[0]
    if k == 0:
        raise ValueError("phi over an empty candidate list; skip the neighbor term")
    if k > np.asarray(beta).shape[0]:
        raise ValueError(f"{k} scores exceed the rank-correction capacity {len(beta)}")
    z = scores * np.asarray(beta, dtype=np.float64)[:k]
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def where_masked_phi(scores: np.ndarray, mask: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Row-wise softmax of score * beta over the valid ranks of each row,
    padded ranks at exactly 0, and a row whose weights sum to no positive
    number (none valid, or NaN) divided by 1."""
    z = scores * beta[None, : scores.shape[1]]
    z = np.where(mask, z, -np.inf)
    zmax = np.max(z, axis=1, keepdims=True)
    zmax = np.where(np.isfinite(zmax), zmax, 0.0)
    e = np.where(mask, np.exp(z - zmax), 0.0)
    denom = e.sum(axis=1, keepdims=True)
    return e / np.where(denom > 0.0, denom, 1.0)


def stagg_layer(
    self_in: np.ndarray,
    nbr_ins: list[np.ndarray],
    scores,
    w_self: np.ndarray,
    w_nbr: np.ndarray,
    beta: np.ndarray,
    activate: bool,
) -> np.ndarray:
    """One aggregation layer: self map plus significance-weighted neighbor map.

    With no neighbors the neighbor term is zero.  ``activate`` applies
    ReLU (hidden layer); the output layer runs it with identity.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if len(nbr_ins) != scores.shape[0]:
        raise ValueError(f"{len(nbr_ins)} neighbor inputs vs {scores.shape[0]} scores")
    out = self_in @ w_self
    if nbr_ins:
        weights = phi(scores, beta)
        agg = np.zeros_like(nbr_ins[0])
        for w_i, x_i in zip(weights, nbr_ins):
            agg = agg + w_i * x_i
        out = out + agg @ w_nbr
    return np.maximum(out, 0.0) if activate else out


def forward_node(
    g: TemporalGraph,
    feats: np.ndarray,
    params: ModelParams,
    u: int,
    t: float,
    m: int | None = None,
    lam: float = 1.0,
    selector=None,
) -> np.ndarray:
    """Embedding of node u at time t via the two-layer computation tree.

    Layer-1 states of u and of each of its top-m neighbors are built from
    their own top-m neighbors' raw features; layer 2 fuses u's layer-1
    state with its neighbors'.  All candidate lists are taken at the same
    query time t and share one rank-correction vector.

    ``selector(g, node, t, m)`` overrides neighbor selection (used by the
    selection-ablated variants); it defaults to significance top-m.
    """
    if m is None:
        m = params.m
    if selector is None:
        selector = lambda g_, n_, t_, m_: pure_top_m(g_, n_, t_, m_, lam=lam)

    lists: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def cand(node: int) -> tuple[np.ndarray, np.ndarray]:
        if node not in lists:
            lists[node] = selector(g, node, t, m)
        return lists[node]

    def layer1(node: int) -> np.ndarray:
        ids, scores = cand(node)
        nbr_feats = [feats[v] for v in ids]
        return stagg_layer(
            feats[node], nbr_feats, scores, params.w1_self, params.w1_nbr,
            params.beta, activate=True,
        )

    ids_u, scores_u = cand(u)
    h1 = {node: layer1(node) for node in [u, *ids_u.tolist()]}
    return stagg_layer(
        h1[u],
        [h1[v] for v in ids_u.tolist()],
        scores_u,
        params.w2_self,
        params.w2_nbr,
        params.beta,
        activate=False,
    )


def tree_forward_node(
    g: TemporalGraph,
    feats: np.ndarray,
    params: ModelParams,
    nodes,
    t: float,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Embeddings of ``nodes`` at time t, row i for nodes[i], through the
    training tree: ``build_batch`` over a table whose ``lookup`` indexes
    the rows of one ``top_m_neighbors`` pass at t (drawn with ``rng``,
    as the selection-ablated variants do)."""
    ids, scores, mask = top_m_neighbors(g, float(t), params.m, rng)
    table = SimpleNamespace(m=params.m, lookup=lambda u, _: (ids[u], scores[u], mask[u]))
    nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
    fb, root = build_batch(nodes, np.full(nodes.shape[0], float(t)), table)
    return forward_batch(fb, params, feats).h2[root]


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, 0 when either vector is numerically null."""
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na < NORM_EPS or nb < NORM_EPS:
        return 0.0
    return float(a @ b / (na * nb))


def significance_loss(h_u, h_v, s_delta: int, s_bar: float) -> float:
    """Per-sample loss: positives pull cosine toward 1 scaled by their
    label, negatives hinge the cosine at 0 scaled by the batch mean label."""
    if s_bar <= 0:
        raise ValueError(f"balance factor must be positive, got {s_bar}")
    c = cosine(np.asarray(h_u, dtype=np.float64), np.asarray(h_v, dtype=np.float64))
    if s_delta >= 1:
        return (1.0 - c) * float(s_delta)
    return max(0.0, c) * s_bar


def valid_negative(g: TemporalGraph, u: int, w: int, t: float, delta: float | None) -> bool:
    """w is a negative for u at t when the pair has no contact in
    [t, t + delta), or, with no window, no contact at exactly t."""
    if w == u:
        return False
    end = t + delta if delta is not None else np.nextafter(t, np.inf)
    return count_in_window(g, u, w, t, end) == 0


def draw_negative(
    g: TemporalGraph, pos: TrainSample, rng: np.random.Generator, delta: float | None, tries: int
) -> TrainSample | None:
    for _ in range(tries):
        w = int(rng.integers(g.num_nodes))
        if valid_negative(g, pos.u, w, pos.t, delta):
            return TrainSample(u=pos.u, v=w, t=pos.t, positive=False, s_delta=0)
    return None


def sample_negatives(
    g: TemporalGraph,
    positives: list[TrainSample],
    rng: np.random.Generator,
    delta: float | None = None,
    tries: int = 100,
) -> list[TrainSample]:
    """One negative (u, w, t) per positive (u, v, t), w uniform among nodes
    with no (u, w) contact inside the positive's window.

    Positives whose negatives cannot be found within ``tries`` draws are
    skipped with a warning, so the result can be shorter than the input.
    """
    out = []
    skipped = 0
    for pos in positives:
        neg = draw_negative(g, pos, rng, delta, tries)
        if neg is None:
            skipped += 1
        else:
            out.append(neg)
    if skipped:
        logger.warning("skipped %d positive(s): no valid negative found", skipped)
    return out


def initial_significance(history, t: float, lam: float = 1.0) -> float:
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


def heuristic_reference(g_train: TemporalGraph, u, v, t0: float, lam: float = 1.0) -> np.ndarray:
    """The no-learning reference one pair at a time: the decayed count of
    each pair's contacts strictly before t0."""
    return np.array(
        [
            initial_significance(pair_history(g_train, a, b, t0), t0, lam=lam)
            for a, b in zip(np.asarray(u).tolist(), np.asarray(v).tolist())
        ],
        dtype=np.float64,
    )


class BatchTree:
    """Flattened two-hop computation trees for one batch of roots.

    An *entry* is one (time, node) layer-1 unit: the node plus its
    candidate list.  A *root* is an entry used at layer 2, carrying the
    entry indices of its candidate neighbors.  Training samples reference
    two roots each.  Entries are deduplicated, so every (time, node)
    candidate list is queried once per tree, and positives and their
    attached negatives share the anchor-node subtree.

    ``query(node, t, m)`` returns a node's candidate list as ``(ids,
    scores)`` arrays of length <= m, score-descending.
    """

    def __init__(self, m: int, query):
        self.m = m
        self.query = query
        self._entry_ids: dict[tuple[float, int], int] = {}
        self.owner: list[int] = []
        self.nbr_ids: list[np.ndarray] = []
        self.nbr_scores: list[np.ndarray] = []
        self._root_ids: dict[tuple[float, int], int] = {}
        self.root_entry: list[int] = []
        self.root_nbr_entries: list[np.ndarray] = []
        self.sample_roots: list[tuple[int, int]] = []
        self.sample_positive: list[bool] = []
        self.sample_sdelta: list[float] = []

    def add_entry(self, node: int, t: float) -> int:
        key = (t, node)
        idx = self._entry_ids.get(key)
        if idx is not None:
            return idx
        ids, scores = self.query(node, t, self.m)
        idx = len(self.owner)
        self._entry_ids[key] = idx
        self.owner.append(node)
        self.nbr_ids.append(ids)
        self.nbr_scores.append(scores)
        return idx

    def add_root(self, node: int, t: float) -> int:
        key = (t, node)
        idx = self._root_ids.get(key)
        if idx is not None:
            return idx
        e = self.add_entry(node, t)
        nbr_entries = np.asarray(
            [self.add_entry(int(v), t) for v in self.nbr_ids[e]], dtype=np.int64
        )
        idx = len(self.root_entry)
        self._root_ids[key] = idx
        self.root_entry.append(e)
        self.root_nbr_entries.append(nbr_entries)
        return idx

    def add_sample(self, root_u: int, root_v: int, positive: bool, s_delta: float) -> None:
        self.sample_roots.append((root_u, root_v))
        self.sample_positive.append(positive)
        self.sample_sdelta.append(float(s_delta))

    def finalize(self) -> "_FlatBatch":
        m = self.m
        n_e = len(self.owner)
        n_r = len(self.root_entry)
        owner = np.asarray(self.owner, dtype=np.int64)
        nbrs = np.zeros((n_e, m), dtype=np.int64)
        scores = np.zeros((n_e, m), dtype=np.float64)
        mask = np.zeros((n_e, m), dtype=bool)
        for i, (ids, sc) in enumerate(zip(self.nbr_ids, self.nbr_scores)):
            k = ids.shape[0]
            nbrs[i, :k] = ids
            scores[i, :k] = sc
            mask[i, :k] = True
        root_entry = np.asarray(self.root_entry, dtype=np.int64)
        root_nbrs = np.zeros((n_r, m), dtype=np.int64)
        for i, es in enumerate(self.root_nbr_entries):
            root_nbrs[i, : es.shape[0]] = es
        su = np.asarray([r[0] for r in self.sample_roots], dtype=np.int64)
        sv = np.asarray([r[1] for r in self.sample_roots], dtype=np.int64)
        positive = np.asarray(self.sample_positive, dtype=bool)
        sdelta = np.asarray(self.sample_sdelta, dtype=np.float64)
        pos_sd = sdelta[positive]
        s_bar = float(pos_sd.mean()) if pos_sd.size else 1.0
        weight = np.where(positive, sdelta, s_bar)
        return _FlatBatch(owner, nbrs, scores, mask, root_entry, root_nbrs, su, sv, positive, weight)


def scatter_rows(index: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """(n, d) sums of ``rows`` by target row ``index``, added in input
    order: bitwise the result of ``np.add.at`` into zeros."""
    d = rows.shape[1]
    flat = (index[:, None] * d + np.arange(d)).reshape(-1)
    return np.bincount(flat, weights=rows.reshape(-1), minlength=n * d).reshape(n, d)


def forward_backward(
    fb: _FlatBatch,
    params: ModelParams,
    feats: np.ndarray,
) -> tuple[float, ModelParams]:
    """Mean batch loss and its exact parameter gradients."""
    phi_e, nbr_gather, pre, h1, phi_r, h1_nbr, agg, h2 = forward_batch(fb, params, feats)

    hu, hv = h2[fb.su], h2[fb.sv]
    nu = np.linalg.norm(hu, axis=1)
    nv = np.linalg.norm(hv, axis=1)
    ok = (nu >= NORM_EPS) & (nv >= NORM_EPS)
    denom = np.where(ok, nu * nv, 1.0)
    cos = np.where(ok, np.einsum("sd,sd->s", hu, hv) / denom, 0.0)

    per_sample = np.where(
        fb.positive, (1.0 - cos) * fb.weight, np.maximum(0.0, cos) * fb.weight
    )
    n_samples = per_sample.shape[0]
    loss = float(per_sample.mean())

    # d loss / d cos, including the hinge subgradient (zero at the kink)
    dcos = np.where(fb.positive, -fb.weight, np.where(cos > 0.0, fb.weight, 0.0))
    dcos = np.where(ok, dcos / n_samples, 0.0)

    dhu = dcos[:, None] * (hv / denom[:, None] - cos[:, None] * hu / np.where(ok, nu * nu, 1.0)[:, None])
    dhv = dcos[:, None] * (hu / denom[:, None] - cos[:, None] * hv / np.where(ok, nv * nv, 1.0)[:, None])

    d_h2 = scatter_rows(np.concatenate([fb.su, fb.sv]), np.concatenate([dhu, dhv]), h2.shape[0])

    g_w2_self = h1[fb.root_entry].T @ d_h2
    g_w2_nbr = agg.T @ d_h2

    d_agg = d_h2 @ params.w2_nbr.T  # (R, d1)
    d_h1 = scatter_rows(
        np.concatenate([fb.root_entry, fb.root_nbrs.reshape(-1)]),
        np.concatenate(
            [d_h2 @ params.w2_self.T, (phi_r[:, :, None] * d_agg[:, None, :]).reshape(-1, h1.shape[1])]
        ),
        h1.shape[0],
    )
    mask_r = fb.mask[fb.root_entry]
    d_phi = scatter_rows(
        fb.root_entry, np.einsum("rd,rmd->rm", d_agg, h1_nbr) * mask_r, phi_e.shape[0]
    )

    d_pre = d_h1 * (pre > 0.0)
    n_nodes = feats.shape[0]
    d_xw1s = scatter_rows(fb.owner, d_pre, n_nodes)
    d_phi += np.einsum("ed,emd->em", d_pre, nbr_gather) * fb.mask
    # the (E * m, d1) weighted rows, eight columns at a time to bound memory
    nbr_rows = lambda c: (phi_e[:, :, None] * d_pre[:, None, c : c + 8]).reshape(fb.nbrs.size, -1)
    d_xw1n = np.concatenate(
        [scatter_rows(fb.nbrs.reshape(-1), nbr_rows(c), n_nodes) for c in range(0, pre.shape[1], 8)],
        axis=1,
    )

    inner = np.sum(d_phi * phi_e, axis=1, keepdims=True)
    d_z = phi_e * (d_phi - inner)
    g_beta = np.sum(d_z * fb.scores, axis=0)

    grads = ModelParams(
        w1_self=feats.T @ d_xw1s,
        w1_nbr=feats.T @ d_xw1n,
        w2_self=g_w2_self,
        w2_nbr=g_w2_nbr,
        beta=g_beta,
    )
    return loss, grads


def tree_from_graph(batch: list[TrainSample], g: TemporalGraph, config: TrainConfig) -> _FlatBatch:
    """Build the batch tree with pure (immutable-graph) candidate queries."""
    tree = BatchTree(config.m, partial(pure_top_m, g))
    for s in batch:
        ru = tree.add_root(s.u, s.t)
        rv = tree.add_root(s.v, s.t)
        tree.add_sample(ru, rv, s.positive, s.s_delta)
    return tree.finalize()


def batch_loss(
    batch: list[TrainSample], g: TemporalGraph, feats: np.ndarray, params: ModelParams,
    config: TrainConfig,
) -> float:
    """Mean batch loss under pure candidate queries (gradients discarded)."""
    loss, _ = _forward_backward(tree_from_graph(batch, g, config), params, feats)
    return loss


def backward(
    batch: list[TrainSample], g: TemporalGraph, feats: np.ndarray, params: ModelParams,
    config: TrainConfig,
) -> ModelParams:
    """Exact gradients of the mean batch loss for all five tensors.

    Propagates through the cosine, both aggregation layers, the shared
    softmax rank-weighting (including its Jacobian), and ReLU (zero
    subgradient at the kink).  Frozen input features get no gradient.
    """
    if not batch:
        raise ValueError("backward over an empty batch")
    fb = tree_from_graph(batch, g, config)
    _, grads = _forward_backward(fb, params, feats)
    for name, a in grads.arrays():
        if not np.all(np.isfinite(a)):
            raise FloatingPointError(f"non-finite gradient in {name}")
    return grads


def small_instance(seed, n_nodes=6, n_events=25, d=3, m=2):
    rng = np.random.default_rng(seed)
    events = []
    t = 0.0
    for _ in range(n_events):
        t += float(rng.exponential(0.3))
        u, v = rng.choice(n_nodes, size=2, replace=False)
        events.append(Event(int(u), int(v), t))
    g = from_events(events, num_nodes=n_nodes)
    cfg = TrainConfig(m=m, d0=d, d1=d, d2=d, seed=seed)
    feats = random_features(n_nodes, d, rng)
    params = init_params(rng, d, d, d, m)
    params.beta = rng.normal(0, 0.5, size=m)
    batch = []
    for e in events_of(g)[n_events // 2 : n_events // 2 + 6]:
        batch.append(TrainSample(e.u, e.v, e.t, True, int(rng.integers(1, 5))))
        w = int(rng.choice([x for x in range(n_nodes) if x not in (e.u, e.v)]))
        batch.append(TrainSample(e.u, w, e.t, False, 0))
    return g, feats, params, cfg, batch


def finite_difference(batch, g, feats, params, cfg, h=1e-5):
    grads = params.zeros_like()
    for name, arr in params.arrays():
        garr = getattr(grads, name)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            old = arr[idx]
            arr[idx] = old + h
            lp = batch_loss(batch, g, feats, params, cfg)
            arr[idx] = old - h
            lm = batch_loss(batch, g, feats, params, cfg)
            arr[idx] = old
            garr[idx] = (lp - lm) / (2.0 * h)
    return grads


def kink_margin(batch, g, feats, params, cfg):
    """Distance of the instance from ReLU and hinge kinks."""
    pre = forward_batch(tree_from_graph(batch, g, cfg), params, feats).pre
    margin = float(np.abs(pre).min())
    for s in batch:
        if not s.positive:
            hu = forward_node(g, feats, params, s.u, s.t, m=cfg.m)
            hv = forward_node(g, feats, params, s.v, s.t, m=cfg.m)
            margin = min(margin, abs(cosine(hu, hv)))
    return margin


def max_relative_error(analytic, numeric, floor=1e-3):
    worst = 0.0
    for (_, a), (_, b) in zip(analytic.arrays(), numeric.arrays()):
        denom = np.maximum.reduce([np.abs(a), np.abs(b), np.full_like(a, floor)])
        worst = max(worst, float((np.abs(a - b) / denom).max()))
    return worst


@dataclass(frozen=True)
class ScoredPair:
    u: int
    v: int
    score: float
    label: int


def _avg_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged (midrank), from an ascending sort."""
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    n = s.shape[0]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    ends = np.r_[starts[1:], n]
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
    return ranks


def _average_precision(sorted_labels: np.ndarray) -> float:
    hits = np.cumsum(sorted_labels)
    ranks = np.arange(1, sorted_labels.shape[0] + 1)
    at_pos = sorted_labels == 1
    return float((hits[at_pos] / ranks[at_pos]).mean())


def auc(pairs: list[ScoredPair]) -> float:
    """Probability a random positive outranks a random negative, ties at
    half credit (Mann-Whitney)."""
    labels = np.asarray([p.label for p in pairs], dtype=np.int64)
    scores = np.asarray([p.score for p in pairs], dtype=np.float64)
    n_pos = int(labels.sum())
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative")
    ranks = _avg_ranks(scores)
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _rank_sort(pairs: list[ScoredPair]) -> np.ndarray:
    """Labels sorted by score descending, node-id pair on ties (determinism)."""
    u = np.asarray([p.u for p in pairs], dtype=np.int64)
    v = np.asarray([p.v for p in pairs], dtype=np.int64)
    score = np.asarray([p.score for p in pairs], dtype=np.float64)
    label = np.asarray([p.label for p in pairs], dtype=np.int64)
    return label[np.lexsort((v, u, -score))]


def mean_average_precision(pairs: list[ScoredPair], per_node: bool = False) -> float:
    """Average precision of the ranked candidate list.

    The default is the global AP of the single ranked list.  ``per_node``
    switches to the mean of per-endpoint APs (every pair is listed under
    both endpoints; nodes without positives are skipped).
    """
    if not any(p.label == 1 for p in pairs):
        raise ValueError("MAP needs at least one positive")
    if not per_node:
        return _average_precision(_rank_sort(pairs))
    by_node: dict[int, list[ScoredPair]] = {}
    for p in pairs:
        by_node.setdefault(p.u, []).append(p)
        by_node.setdefault(p.v, []).append(p)
    aps = [
        _average_precision(_rank_sort(group))
        for _, group in sorted(by_node.items())
        if any(q.label == 1 for q in group)
    ]
    return float(np.mean(aps))


def columns(pairs: list[ScoredPair]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(labels, scores, u, v) arrays of a pair list, in the argument order
    of ``stgnn.evaluation.mean_average_precision``."""
    return (
        np.array([p.label for p in pairs], dtype=np.int64),
        np.array([p.score for p in pairs], dtype=np.float64),
        np.array([p.u for p in pairs], dtype=np.int64),
        np.array([p.v for p in pairs], dtype=np.int64),
    )


def brute_force_auc(pairs):
    pos = [p.score for p in pairs if p.label == 1]
    neg = [p.score for p in pairs if p.label == 0]
    total = 0.0
    for a in pos:
        for b in neg:
            total += 1.0 if a > b else (0.5 if a == b else 0.0)
    return total / (len(pos) * len(neg))


def brute_force_ap(pairs):
    ranked = sorted(pairs, key=lambda p: (-p.score, p.u, p.v))
    hits, out = 0, []
    for r, p in enumerate(ranked, start=1):
        if p.label == 1:
            hits += 1
            out.append(hits / r)
    return sum(out) / len(out)


def make_pairs(scores, labels):
    return [ScoredPair(i, i + 1000, float(s), int(l)) for i, (s, l) in enumerate(zip(scores, labels))]


def fit_power_law_filtered(xs) -> PowerLawFit:
    """The xmin search, filtering and sorting the sample per candidate."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0 or np.any(xs <= 0.0) or not np.all(np.isfinite(xs)):
        raise ValueError("samples must be positive finite reals")
    if np.all(xs == xs[0]):
        raise DegenerateFitError("all samples identical; exponent is unidentifiable")

    if xs.size < 10:
        raise ValueError(f"need at least 10 samples to search for xmin, got {xs.size}")
    candidates = np.unique(xs)[:-1]  # largest value leaves an empty tail fit
    if candidates.size == 0:
        raise DegenerateFitError("all samples identical; exponent is unidentifiable")
    if candidates.size > MAX_XMIN_CANDIDATES:
        qs = np.linspace(0.0, 1.0, MAX_XMIN_CANDIDATES)
        idx = np.unique((qs * (candidates.size - 1)).astype(int))
        candidates = candidates[idx]

    best: PowerLawFit | None = None
    for cand in candidates:
        fit = _try_fit_at(xs, float(cand))
        if fit is None:
            continue
        if best is None or fit.ks_distance < best.ks_distance:
            best = fit
    if best is None:
        raise DegenerateFitError("no candidate cutoff admits a finite exponent")
    if not (math.isfinite(best.c) and best.c > 0.0):
        raise DegenerateFitError(
            "the power-law fit of the inter-event times overflowed; supply a window size explicitly"
        )
    return best


def _try_fit_at(xs: np.ndarray, xmin: float) -> PowerLawFit | None:
    tail = np.sort(xs[xs >= xmin])
    if tail.size < 2:
        return None
    alpha = _alpha_mle(tail, xmin)
    if alpha is None:
        return None
    ks = _ks_distance(tail, alpha, xmin)
    try:
        c = (alpha - 1.0) * xmin ** (1.0 - alpha)
    except OverflowError:
        c = math.inf
    return PowerLawFit(alpha=alpha, xmin=xmin, c=c, n_tail=int(tail.size), ks_distance=ks)
