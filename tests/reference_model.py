"""Reference implementations the tests pin the program against.

* A per-node recursive forward pass, the oracle for the batched one: the
  readable form of the two-layer aggregation, where one call embeds one
  node by recursing through its candidate lists, and each layer is a
  plain loop over neighbor vectors.  ``stgnn.model`` computes the same
  embedding batched over a flattened tree.
* The scalar per-sample loss and ``cosine``, the oracle for the batched
  loss.
* The batch loss and its gradients over a tree built from pure
  ``top_m_neighbors`` queries on an immutable graph, used by the
  gradient checks (training itself uses the streaming index).
* ``sample_negatives``, one negative draw per positive.
"""

from __future__ import annotations

import logging
from functools import partial

import numpy as np

from stgnn.model import NORM_EPS, ModelParams, _BatchTree, _FlatBatch
from stgnn.significance import top_m_neighbors
from stgnn.temporal_graph import TemporalGraph
from stgnn.training import TrainConfig, TrainSample, _draw_negative, _forward_backward

logger = logging.getLogger(__name__)


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
        selector = lambda g_, n_, t_, m_: top_m_neighbors(g_, n_, t_, m_, lam=lam)

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
        neg = _draw_negative(g, pos, rng, delta, tries)
        if neg is None:
            skipped += 1
        else:
            out.append(neg)
    if skipped:
        logger.warning("skipped %d positive(s): no valid negative found", skipped)
    return out


def tree_from_graph(batch: list[TrainSample], g: TemporalGraph, config: TrainConfig) -> _FlatBatch:
    """Build the batch tree with pure (immutable-graph) candidate queries."""
    tree = _BatchTree(config.m, partial(top_m_neighbors, g, lam=config.lam))
    for s in batch:
        ru = tree.add_root(s.u, s.t)
        rv = tree.add_root(s.v, s.t)
        tree.add_sample(ru, rv, s.positive, s.s_delta)
    return tree.finalize()


def batch_loss(
    batch: list[TrainSample], g: TemporalGraph, feats: np.ndarray, params: ModelParams,
    config: TrainConfig,
) -> float:
    """Mean batch loss under pure candidate queries (no gradients)."""
    loss, _ = _forward_backward(tree_from_graph(batch, g, config), params, feats, want_grads=False)
    return loss


def backward(
    batch: list[TrainSample], g: TemporalGraph, feats: np.ndarray, params: ModelParams,
    config: TrainConfig, _detach_phi: bool = False,
) -> ModelParams:
    """Exact gradients of the mean batch loss for all five tensors.

    Propagates through the cosine, both aggregation layers, the shared
    softmax rank-weighting (including its Jacobian), and ReLU (zero
    subgradient at the kink).  Frozen input features get no gradient.
    """
    if not batch:
        raise ValueError("backward over an empty batch")
    fb = tree_from_graph(batch, g, config)
    _, grads = _forward_backward(fb, params, feats, detach_phi=_detach_phi)
    for name, a in grads.arrays():
        if not np.all(np.isfinite(a)):
            raise FloatingPointError(f"non-finite gradient in {name}")
    return grads
