"""Held-out scoring for temporal link prediction: AUC, MAP, similarities.

Test positives are the node pairs that interact after the split time;
negatives are uniformly sampled pairs that never interact anywhere in
the data.  Every pair is scored under three similarities (cosine,
hadamard/dot, negated squared L2) and the best per metric is reported,
alongside a no-learning reference that ranks pairs by their decayed
historical contact count.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from stgnn.model import NORM_EPS, ModelParams, forward_node, random_neighbor_selector
from stgnn.significance import initial_significance
from stgnn.temporal_graph import DataSplit, TemporalGraph, _pair_key
from stgnn.training import TrainConfig, named_rng

SIMILARITIES = ("Cos", "Had", "L2")


@dataclass(frozen=True)
class ScoredPair:
    u: int
    v: int
    score: float
    label: int


@dataclass
class MetricsReport:
    """AUC and MAP per similarity plus the per-metric best."""

    per_similarity: dict[str, dict[str, float]]
    best_auc: float
    best_map: float
    best_auc_similarity: str
    best_map_similarity: str
    n_pos: int
    n_neg: int
    reference_auc: float
    extras: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "similarity": self.per_similarity,
            "best_auc": self.best_auc,
            "best_map": self.best_map,
            "best_auc_similarity": self.best_auc_similarity,
            "best_map_similarity": self.best_map_similarity,
            "n_pos": self.n_pos,
            "n_neg": self.n_neg,
            "reference_auc": self.reference_auc,
            **self.extras,
        }


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


def _avg_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged (midrank)."""
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    n = s.shape[0]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    ends = np.r_[starts[1:], n]
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
    return ranks


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


def _average_precision(sorted_labels: np.ndarray) -> float:
    hits = np.cumsum(sorted_labels)
    ranks = np.arange(1, sorted_labels.shape[0] + 1)
    at_pos = sorted_labels == 1
    return float((hits[at_pos] / ranks[at_pos]).mean())


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


def sample_test_negatives(
    split: DataSplit, n: int, rng: np.random.Generator
) -> list[tuple[int, int]]:
    """Uniformly sampled distinct pairs with no contact anywhere in the data."""
    linked = set(split.train.pair_index.keys()) | set(split.test_pairs.keys())
    num_nodes = split.train.num_nodes
    out: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    budget = 200 * n + 1000
    while len(out) < n and budget > 0:
        budget -= 1
        a = int(rng.integers(num_nodes))
        b = int(rng.integers(num_nodes))
        if a == b:
            continue
        key = _pair_key(a, b)
        if key in linked or key in seen:
            continue
        seen.add(key)
        out.append(key)
    if len(out) < n:
        raise ValueError("graph too dense: cannot find enough never-linked pairs")
    return out


def heuristic_reference(
    g_train: TemporalGraph, pairs: list[tuple[int, int]], t0: float, lam: float = 1.0
) -> list[float]:
    """No-learning reference: decayed historical contact count at t0."""
    return [
        initial_significance(g_train.pair_history(u, v, t0), t0, lam=lam) for u, v in pairs
    ]


def node_embeddings(
    g_train: TemporalGraph,
    params: ModelParams,
    feats: np.ndarray,
    nodes,
    t0: float,
    config: TrainConfig,
) -> np.ndarray:
    """Embed every node once at the evaluation time t0; row i embeds nodes[i].

    Selection-ablated variants keep their uniform neighbor sampling here
    too, fed by a seeded stream so reports stay reproducible.
    """
    selector = None
    if not config.use_significant_selection:
        selector = random_neighbor_selector(named_rng(config.seed, "eval-selection"), lam=config.lam)
    return forward_node(
        g_train, feats, params, nodes, t0, m=config.m, lam=config.lam, selector=selector
    )


def evaluate(
    split: DataSplit,
    params: ModelParams,
    feats: np.ndarray,
    config: TrainConfig,
    per_node_map: bool = False,
) -> MetricsReport:
    """Score the held-out window: embeddings at t0 = t_split, all three
    similarities, AUC/MAP each, best per metric, plus the heuristic
    reference AUC on the same pairs."""
    positives = sorted(split.test_pairs.keys())
    rng = named_rng(config.seed, "eval-negatives")
    negatives = sample_test_negatives(split, len(positives), rng)
    labeled = [(u, v, 1) for u, v in positives] + [(u, v, 0) for u, v in negatives]

    involved = sorted({x for u, v, _ in labeled for x in (u, v)})
    emb = node_embeddings(split.train, params, feats, involved, split.t_split, config)
    h_u = emb[np.searchsorted(involved, [u for u, _, _ in labeled])]
    h_v = emb[np.searchsorted(involved, [v for _, v, _ in labeled])]
    scores = {kind: score_pair(h_u, h_v, kind) for kind in SIMILARITIES}
    del h_u, h_v  # pair-sized; freed before the per-pair lists below raise peak memory

    per_sim: dict[str, dict[str, float]] = {}
    for kind in SIMILARITIES:
        scored = [
            ScoredPair(u, v, s, lab) for (u, v, lab), s in zip(labeled, scores[kind].tolist())
        ]
        per_sim[kind] = {"auc": auc(scored), "map": mean_average_precision(scored)}
        if per_node_map:
            per_sim[kind]["map_per_node"] = mean_average_precision(scored, per_node=True)

    best_auc_sim = max(SIMILARITIES, key=lambda k: per_sim[k]["auc"])
    best_map_sim = max(SIMILARITIES, key=lambda k: per_sim[k]["map"])

    ref_scores = heuristic_reference(
        split.train, [(u, v) for u, v, _ in labeled], split.t_split, lam=config.lam
    )
    ref_pairs = [
        ScoredPair(u, v, s, lab) for (u, v, lab), s in zip(labeled, ref_scores)
    ]

    return MetricsReport(
        per_similarity=per_sim,
        best_auc=per_sim[best_auc_sim]["auc"],
        best_map=per_sim[best_map_sim]["map"],
        best_auc_similarity=best_auc_sim,
        best_map_similarity=best_map_sim,
        n_pos=len(positives),
        n_neg=len(negatives),
        reference_auc=auc(ref_pairs),
    )
