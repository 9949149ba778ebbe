"""Per-node recursive forward pass: the test oracle for the batched one.

The readable form of the two-layer aggregation: one call embeds one
node by recursing through its candidate lists, and each layer is a plain
loop over neighbor vectors.  ``stgnn.model`` computes
the same embedding batched over a flattened tree; the tests pin the two
against each other.
"""

from __future__ import annotations

import numpy as np

from stgnn.model import ModelParams
from stgnn.significance import CandidateList, top_m_neighbors
from stgnn.temporal_graph import TemporalGraph


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

    lists: dict[int, CandidateList] = {}

    def cand(node: int) -> CandidateList:
        if node not in lists:
            lists[node] = selector(g, node, t, m)
        return lists[node]

    def layer1(node: int) -> np.ndarray:
        cl = cand(node)
        nbr_feats = [feats[e.neighbor] for e in cl.entries]
        return stagg_layer(
            feats[node], nbr_feats, cl.scores(), params.w1_self, params.w1_nbr,
            params.beta, activate=True,
        )

    cl_u = cand(u)
    h1 = {node: layer1(node) for node in [u, *cl_u.neighbor_ids()]}
    return stagg_layer(
        h1[u],
        [h1[v] for v in cl_u.neighbor_ids()],
        cl_u.scores(),
        params.w2_self,
        params.w2_nbr,
        params.beta,
        activate=False,
    )
