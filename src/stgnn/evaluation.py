"""Held-out scoring for temporal link prediction: AUC, MAP, similarities.

Test positives are the node pairs that interact after the split time,
the split's sorted (P, 2) ``test_pairs``; negatives are uniformly
sampled pairs that never interact anywhere in the data, checked by their
int64 pair keys min * N + max against the graphs' CSR pair keys.  Every
pair is scored under three similarities (cosine, hadamard/dot, negated
squared L2) and the best per metric is reported,
alongside a no-learning reference that ranks pairs by their decayed
historical contact count, each contact weighing exp(-age) with its age
in the training graph's time unit.  Every node is embedded at the split
time by ``forward_node`` over one ``top_m_neighbors`` pass on the
training graph, and the pairs read their endpoints' rows in blocks of
``PAIR_BLOCK``, each block scored under every similarity before the next
is gathered; each score is a reduction over its own pair's row, so the
blocks change no bit of it.  The reference reads the same decayed pair
counts (``significance.pair_significance``, from the CSR pair index).

The negative sampler is specified as a loop: each try draws two scalar
node ids a, b from the generator and accepts the pair unless a == b, it
is linked, or it was accepted before, until n pairs are found or the
budget of ``negative_try_budget(n)`` = 200 * n + 1000 tries is spent
("graph too dense"; ``check_negative_supply`` checks the expected tries
against it before training).  It runs as block draws with the same
result: for a bound below 2**32 (pair keys already need N**2 < 2**63),
``rng.integers(N, size=k)`` yields the values of k scalar calls, so a
block of tries is checked at once (a sorted search against the linked
keys, and ``np.unique`` for each key's first try), and the generator is
then rewound to the block's start and redrawn up to the try that found
the last pair.  The pairs, their order and the generator's end state are
the loop's, so the ``eval-negatives`` stream is unchanged.  A block
holds 9/8 of the tries that the acceptance rate so far predicts for the
pairs still missing, plus 64, within the budget.

The held-out set travels as columns: ``labels`` (1 positive, 0
negative), ``scores``, and the endpoint ids ``u`` and ``v`` are aligned
1-D arrays with one entry per pair.  The pairs are put in (u, v) order
once per evaluation (node ids narrowed, so their keys sort as radix
sorts).  Each similarity's scores, laid out in that order, are then
ranked by one stable sort, which gives one ranking in (-score, u, v)
order, and every metric reads it: AUC takes each tie group's midrank
from its positions in it, global AP reads the labels in it, and per-node
AP groups it by endpoint with one more stable sort.  The (u, v)
tie-break makes every metric deterministic; a NaN score has no rank and
raises.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from stgnn.model import NORM_EPS, ModelParams, forward_node
from stgnn.significance import pair_significance
from stgnn.temporal_graph import DataSplit, TemporalGraph, narrow_ids, pair_keys
from stgnn.training import TrainConfig, named_rng

SIMILARITIES = ("Cos", "Had", "L2")
# pairs per block of scoring: its (block, d2) endpoint gathers stay small
PAIR_BLOCK = 4096


@dataclass
class MetricsReport:
    """AUC and MAP per similarity plus the per-metric best."""

    similarity: dict[str, dict[str, float]]
    best_auc: float
    best_map: float
    best_auc_similarity: str
    best_map_similarity: str
    n_pos: int
    n_neg: int
    reference_auc: float

    def to_dict(self) -> dict:
        return asdict(self)


def score_pair(h_u: np.ndarray, h_v: np.ndarray, kind: str) -> np.ndarray:
    """Ranking scores of pairs under one similarity, row-wise over the
    last axis; higher means more likely to link.  The squared-L2 distance
    is negated so it ranks the same way as the other two.  Cosine is 0
    where either vector is numerically null."""
    if kind == "Cos":
        nu = np.linalg.norm(h_u, axis=-1)
        nv = np.linalg.norm(h_v, axis=-1)
        ok = (nu >= NORM_EPS) & (nv >= NORM_EPS)
        return np.where(ok, np.sum(h_u * h_v, axis=-1) / np.where(ok, nu * nv, 1.0), 0.0)
    if kind == "Had":
        return np.sum(h_u * h_v, axis=-1)
    if kind == "L2":
        d = h_u - h_v
        d *= d
        return -np.sum(d, axis=-1)
    raise ValueError(f"unknown similarity {kind!r}; expected one of {SIMILARITIES}")


def _pair_order(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The order of the pairs by (u, v), the ranking's tie-break, on the
    narrowed ids; ties keep their input order."""
    return np.lexsort((narrow_ids(v), narrow_ids(u)))


def _ranking(scores: np.ndarray, by_pair: np.ndarray | None = None) -> np.ndarray:
    """The order of the ranked list: score descending, then the pair
    order ``by_pair`` (``_pair_order``), by one stable sort of the scores
    laid out in that order.

    Without a pair order the order within a tie is left free, as AUC
    reads each tie group whole.  A NaN score has no place in the list and
    raises.
    """
    if np.isnan(scores).any():
        raise ValueError("a NaN score cannot be ranked")
    if by_pair is None:
        return np.argsort(-scores)
    return by_pair[np.argsort(-scores[by_pair], kind="stable")]


def _ranked_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """AUC of labels and scores in ranking order (score descending).

    The tie group at ranking positions [a, b) holds the ascending ranks
    n - b + 1 .. n - a, so each of its pairs takes the midrank
    n - (a + b - 1) / 2.  Midranks are half-integers, so their sum over
    the positives is exact in any order.
    """
    n = labels.shape[0]
    n_pos = int(labels.sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative")
    starts = np.flatnonzero(np.r_[True, scores[1:] != scores[:-1]])
    ends = np.r_[starts[1:], n]
    midrank = n - 0.5 * (starts + ends - 1)
    pos_rank_sum = float(midrank @ np.add.reduceat(labels, starts))
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _precisions(labels: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Precision at each positive of ranked lists laid end to end:
    ``labels`` in ranking order, and ``start[i]`` where entry i's list
    begins."""
    hits = np.cumsum(labels)
    hits -= (hits - labels)[start]
    at_pos = labels == 1
    return hits[at_pos] / (np.flatnonzero(at_pos) - start[at_pos] + 1)


def _average_precision(labels: np.ndarray) -> float:
    """AP of one list, ``labels`` in ranking order."""
    return float(_precisions(labels, np.zeros(labels.shape[0], dtype=np.int64)).mean())


def _per_node_ap(labels: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Mean of per-endpoint APs in node-id order, of pairs in ranking
    order: every pair is listed under both endpoints, each node's list
    keeps the ranking order, and nodes without a positive are skipped."""
    # a stable sort by node groups the entries and keeps that order in each group
    node = narrow_ids(np.column_stack([u, v]).ravel())
    by_node = np.argsort(node, kind="stable")
    node, lab = node[by_node], np.repeat(labels, 2)[by_node]
    first = np.r_[True, node[1:] != node[:-1]]
    seg = np.cumsum(first) - 1  # the node group of each entry
    precision = _precisions(lab, np.flatnonzero(first)[seg])
    seg = seg[lab == 1]
    n_hit = np.bincount(seg)
    ap_sum = np.bincount(seg, weights=precision)
    return float(np.mean(ap_sum[n_hit > 0] / n_hit[n_hit > 0]))


def auc(labels, scores) -> float:
    """Probability a random positive outranks a random negative, ties at
    half credit (Mann-Whitney).  ``labels`` (1 positive, 0 negative) and
    ``scores`` are aligned 1-D arrays, one entry per pair; a NaN score
    raises."""
    labels = np.asarray(labels, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    order = _ranking(scores)
    return _ranked_auc(labels[order], scores[order])


def mean_average_precision(labels, scores, u, v, per_node: bool = False) -> float:
    """Average precision of the ranked candidate list.

    ``labels``, ``scores`` and the endpoint ids ``u`` and ``v`` are
    aligned 1-D arrays, one entry per pair; the list ranks by score
    descending, then by (u, v), and a NaN score raises.  The default is
    the global AP of that one list.  ``per_node`` switches to the mean of
    per-endpoint APs in node-id order: every pair is listed under both
    endpoints, and nodes without a positive are skipped.  Each node's list
    keeps the global ranking order.
    """
    labels = np.asarray(labels, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if not (labels == 1).any():
        raise ValueError("MAP needs at least one positive")
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    order = _ranking(scores, _pair_order(u, v))
    if not per_node:
        return _average_precision(labels[order])
    return _per_node_ap(labels[order], u[order], v[order])


def negative_try_budget(n: int) -> int:
    """The tries ``sample_test_negatives`` spends at most on n pairs."""
    return 200 * n + 1000


def check_negative_supply(g: TemporalGraph, split: DataSplit) -> None:
    """Raise unless the never-linked pairs can supply one test negative
    per held-out positive, and the sampler expects to find them within its
    try budget; the training and held-out pairs together are the stream's
    pairs.  A try draws two of the N nodes, so with i of the S never-linked
    pairs found it finds a new one with probability 2 (S - i) / N**2."""
    n = g.num_nodes
    supply = n * (n - 1) // 2 - g.pair_key.shape[0]
    n_pos = split.test_pairs.shape[0]
    # the sum over i < n_pos of N**2 / (2 (S - i)), while S >= n_pos
    expected_tries = n**2 / 2 * np.sum(1.0 / np.arange(max(supply - n_pos, 0) + 1, supply + 1))
    if supply < n_pos or expected_tries > negative_try_budget(n_pos):
        raise ValueError(
            f"graph too dense for the evaluation protocol: {supply} never-linked pairs "
            f"cannot supply a negative for each of the {n_pos} held-out pairs"
        )


def sample_test_negatives(split: DataSplit, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly sampled distinct pairs with no contact anywhere in the
    data, as (n, 2) endpoint ids (smaller first) in draw order; drawn in
    blocks, with the pairs and end state of one (a, b) draw per try."""
    num_nodes = split.train.num_nodes
    # every pair key linked in training or held out, and a sentinel above all keys
    linked = np.sort(np.r_[split.train.pair_key, pair_keys(*split.test_pairs.T, num_nodes), num_nodes**2])
    keys, used, budget = np.empty(0, dtype=np.int64), 0, negative_try_budget(n)
    while keys.size < n and used < budget:
        state, need = rng.bit_generator.state, n - keys.size
        k = min(budget - used, need * (used + 1) // (keys.size + 1) * 9 // 8 + 64)
        a, b = rng.integers(num_nodes, size=(k, 2)).T
        key = np.where(a != b, pair_keys(a, b, num_nodes), -1)  # -1: a self-pair
        # each key's first try, kept unless it is linked or was accepted before
        uk, first = np.unique(np.concatenate([keys, key]), return_index=True)
        fresh = (first >= keys.size) & (uk >= 0) & (linked[np.searchsorted(linked, uk)] != uk)
        tries = np.sort(first[fresh])[:need] - keys.size
        keys, used = np.concatenate([keys, key[tries]]), used + k
    if keys.size < n:
        raise ValueError("graph too dense: cannot find enough never-linked pairs")
    if n:  # rewind the last block to just after the try that found the last key
        rng.bit_generator.state = state
        rng.integers(num_nodes, size=2 * (tries[-1] + 1))
    return np.column_stack(np.divmod(keys, num_nodes))


def heuristic_reference(g_train: TemporalGraph, u, v, t0: float) -> np.ndarray:
    """No-learning reference: decayed historical contact count at t0 of
    each pair (u[i], v[i]), over its training contacts strictly before t0."""
    pairs, sums, _ = pair_significance(g_train, t0)
    # the pairs' sorted keys, then a sentinel above every key, which scores 0
    key = np.append(g_train.pair_key[pairs], np.iinfo(np.int64).max)
    sums = np.append(sums, 0.0)
    query = pair_keys(u, v, g_train.num_nodes)
    # the query keys searched in ascending order, so that each search starts at the last hit
    by_key = np.argsort(query)
    at = np.empty(query.shape, dtype=np.intp)
    at[by_key] = np.searchsorted(key, query[by_key])
    return np.where(key[at] == query, sums[at], 0.0)


def node_embeddings(
    g_train: TemporalGraph, params: ModelParams, feats: np.ndarray, t0: float, config: TrainConfig
) -> np.ndarray:
    """Every node's embedding at the evaluation time t0; row u embeds node u.

    Selection-ablated variants keep their uniform neighbor sampling here
    too, fed by a seeded stream so reports stay reproducible.
    """
    rng = None if config.use_significant_selection else named_rng(config.seed, "eval-selection")
    return forward_node(g_train, feats, params, t0, rng=rng)


def evaluate(
    split: DataSplit,
    params: ModelParams,
    feats: np.ndarray,
    config: TrainConfig,
    per_node_map: bool = False,
) -> MetricsReport:
    """Score the held-out window: embeddings at t0 = t_split, all three
    similarities, AUC/MAP each, best per metric, plus the heuristic
    reference AUC on the same pairs.

    The endpoint rows are gathered ``PAIR_BLOCK`` pairs at a time and
    scored under every similarity, so no (pairs, d2) gather is formed;
    the scores are bitwise those of one ``score_pair`` call over all
    pairs."""
    n_pos = split.test_pairs.shape[0]
    negatives = sample_test_negatives(split, n_pos, named_rng(config.seed, "eval-negatives"))
    u, v = np.concatenate([split.test_pairs, negatives]).T
    label = np.repeat([1, 0], [n_pos, negatives.shape[0]])

    emb = node_embeddings(split.train, params, feats, split.t_split, config)
    score = {kind: np.empty(u.shape[0]) for kind in SIMILARITIES}
    for blk in (slice(a, a + PAIR_BLOCK) for a in range(0, u.shape[0], PAIR_BLOCK)):
        h_u, h_v = emb[u[blk]], emb[v[blk]]
        for kind in SIMILARITIES:
            score[kind][blk] = score_pair(h_u, h_v, kind)

    by_pair = _pair_order(u, v)
    per_sim: dict[str, dict[str, float]] = {}
    for kind, scores in score.items():
        order = _ranking(scores, by_pair)  # one ranking for every metric
        lab = label[order]
        per_sim[kind] = {"auc": _ranked_auc(lab, scores[order]), "map": _average_precision(lab)}
        if per_node_map:
            per_sim[kind]["map_per_node"] = _per_node_ap(lab, u[order], v[order])

    best_auc_sim = max(SIMILARITIES, key=lambda k: per_sim[k]["auc"])
    best_map_sim = max(SIMILARITIES, key=lambda k: per_sim[k]["map"])
    ref_scores = heuristic_reference(split.train, u, v, split.t_split)

    return MetricsReport(
        similarity=per_sim,
        best_auc=per_sim[best_auc_sim]["auc"],
        best_map=per_sim[best_map_sim]["map"],
        best_auc_similarity=best_auc_sim,
        best_map_similarity=best_map_sim,
        n_pos=n_pos,
        n_neg=negatives.shape[0],
        reference_auc=auc(label, ref_scores),
    )
