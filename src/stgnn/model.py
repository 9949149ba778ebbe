"""Two-layer significance-weighted aggregation network.

Each layer maps a node's previous-layer state together with the states
of its top-m significant neighbors, the latter combined under softmax
weights derived from the neighbors' significance scores and a learnable
per-rank correction vector.  Layer one starts from frozen random node
features and applies ReLU; the output layer is linear so pair cosines
can span [-1, 1].

Everything here is plain numpy and pure: given (graph, features,
parameters, time) the embedding of a node is deterministic.  The forward
pass exists once, batched over a flattened computation tree
(``forward_batch``): training builds the tree from the nodes of its
mini-batch samples, pairs its roots into loss samples and backpropagates
through the returned activations, and evaluation embeds all of its nodes
at the split time through ``forward_node``.

One builder, ``build_batch``, makes every tree with array operations: it
deduplicates roots and their candidates on (time, node) keys and takes
the candidate lists from a batched ``lookup(nodes, ts) -> (ids, scores,
mask)``.  Training looks them up in a TopMTable of stgnn.significance
(top-m lists for STGNN, uniform draws for the selection-ablated
variants, each keeping the m candidates with the smallest random keys);
``forward_node`` indexes the rows of one ``top_m_neighbors`` pass at its
single query time.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from stgnn.significance import top_m_neighbors
from stgnn.temporal_graph import TemporalGraph

NORM_EPS = 1e-12


@dataclass
class ModelParams:
    """Learnable tensors: two per-layer weight pairs plus the rank correction.

    Shapes: w1_self, w1_nbr (d0, d1); w2_self, w2_nbr (d1, d2); beta (m,).
    The same container doubles as the gradient holder.
    """

    w1_self: np.ndarray
    w1_nbr: np.ndarray
    w2_self: np.ndarray
    w2_nbr: np.ndarray
    beta: np.ndarray

    @property
    def m(self) -> int:
        return self.beta.shape[0]

    def arrays(self) -> list[tuple[str, np.ndarray]]:
        return [(f.name, getattr(self, f.name)) for f in fields(self)]

    def copy(self) -> "ModelParams":
        return ModelParams(**{name: a.copy() for name, a in self.arrays()})

    def zeros_like(self) -> "ModelParams":
        return ModelParams(**{name: np.zeros_like(a) for name, a in self.arrays()})


def init_params(
    rng: np.random.Generator, d0: int = 128, d1: int = 16, d2: int = 16, m: int = 10
) -> ModelParams:
    """Glorot-uniform weight matrices; rank corrections start at zero
    (uniform neighbor weights)."""

    def glorot(fan_in: int, fan_out: int) -> np.ndarray:
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    return ModelParams(
        w1_self=glorot(d0, d1),
        w1_nbr=glorot(d0, d1),
        w2_self=glorot(d1, d2),
        w2_nbr=glorot(d1, d2),
        beta=np.zeros(m, dtype=np.float64),
    )


def random_features(num_nodes: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Frozen input features: uniform in [-1, 1], never trained."""
    return rng.uniform(-1.0, 1.0, size=(num_nodes, dim))


# ---------------------------------------------------------------------------
# Batched computation tree
# ---------------------------------------------------------------------------


@dataclass
class _FlatBatch:
    owner: np.ndarray       # (E,)
    nbrs: np.ndarray        # (E, m) node ids, zero-padded
    scores: np.ndarray      # (E, m)
    mask: np.ndarray        # (E, m) bool
    root_entry: np.ndarray  # (R,)
    root_nbrs: np.ndarray   # (R, m) entry ids, zero-padded
    # the loss samples, set by training: sample j pairs roots su[j] and sv[j]
    su: np.ndarray | None = None        # (S,) root ids
    sv: np.ndarray | None = None        # (S,)
    positive: np.ndarray | None = None  # (S,) bool
    weight: np.ndarray | None = None    # (S,) s_delta for positives, s_bar for negatives


Lookup = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


def _first_unique(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the distinct keys in order of first appearance, and
    the index of each key among them."""
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    return first[order], rank[inverse]


def build_batch(node, t, lookup: Lookup, m: int) -> tuple[_FlatBatch, np.ndarray]:
    """Flattened two-hop computation trees rooted at (node[i], t[i]).

    An *entry* is one (time, node) layer-1 unit: the node plus its
    candidate list.  A *root* is an entry used at layer 2, carrying the
    entry indices of its candidates.  Both are deduplicated on their
    (time, node) key, so each candidate list is looked up once per tree
    and samples sharing an anchor share its subtree.  Roots keep their
    order of first appearance, and entries that of a walk over each root
    followed by its candidates.

    ``lookup(nodes, ts)`` returns zero-padded (k, m) candidate ids,
    scores and mask, score-descending; it is called once for the roots
    and once for the other entries.  Returns the batch, without loss
    samples, and the root index of each input position.
    """
    node = np.asarray(node, dtype=np.int64)
    t = np.asarray(t, dtype=np.float64)
    t_rank = np.unique(t, return_inverse=True)[1].astype(np.int64) << 32
    root_pos, root_of = _first_unique(t_rank + node)
    r_node, r_t, r_rank = node[root_pos], t[root_pos], t_rank[root_pos]
    r_ids, r_scores, r_mask = lookup(r_node, r_t)

    # the walk: each root, then its candidates
    walk = np.column_stack([np.ones(r_node.shape[0], dtype=bool), r_mask])
    w_node = np.column_stack([r_node, r_ids])[walk]
    w_row = np.nonzero(walk)[0]
    entry_pos, entry_of = _first_unique(r_rank[w_row] + w_node)
    owner, e_t = w_node[entry_pos], r_t[w_row[entry_pos]]
    slots = np.zeros(walk.shape, dtype=np.int64)
    slots[walk] = entry_of
    root_entry, root_nbrs = slots[:, 0], slots[:, 1:]

    nbrs = np.zeros((owner.shape[0], m), dtype=np.int64)
    scores = np.zeros((owner.shape[0], m), dtype=np.float64)
    mask = np.zeros((owner.shape[0], m), dtype=bool)
    nbrs[root_entry], scores[root_entry], mask[root_entry] = r_ids, r_scores, r_mask
    rest = np.ones(owner.shape[0], dtype=bool)
    rest[root_entry] = False
    nbrs[rest], scores[rest], mask[rest] = lookup(owner[rest], e_t[rest])
    return _FlatBatch(owner, nbrs, scores, mask, root_entry, root_nbrs), root_of


def _masked_phi(scores: np.ndarray, mask: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax of score * beta over the valid ranks.

    Rank i pairs with beta[i]; a tree narrower than beta uses its leading
    ranks.
    """
    z = scores * beta[None, : scores.shape[1]]
    z = np.where(mask, z, -np.inf)
    zmax = np.max(z, axis=1, keepdims=True)
    zmax = np.where(np.isfinite(zmax), zmax, 0.0)
    e = np.where(mask, np.exp(z - zmax), 0.0)
    denom = e.sum(axis=1, keepdims=True)
    return e / np.where(denom > 0.0, denom, 1.0)


class Activations(NamedTuple):
    """Intermediate tensors of one batched forward pass (E entries, R roots)."""

    phi_e: np.ndarray       # (E, m) neighbor weights of each entry
    nbr_gather: np.ndarray  # (E, m, d1) neighbor-mapped input features
    pre: np.ndarray         # (E, d1) layer-1 pre-activation
    h1: np.ndarray          # (E, d1) layer-1 states
    phi_r: np.ndarray       # (R, m) neighbor weights of each root
    h1_nbr: np.ndarray      # (R, m, d1) layer-1 states of each root's neighbors
    agg: np.ndarray         # (R, d1) weighted neighbor aggregate at layer 2
    h2: np.ndarray          # (R, d2) root embeddings


def forward_batch(fb: _FlatBatch, params: ModelParams, feats: np.ndarray) -> Activations:
    """The two-layer aggregation over every root of a flattened tree.

    Layer one maps each entry's raw features plus its candidates'
    features, weighted by phi over their significance scores, and applies
    ReLU.  Layer two fuses each root's layer-1 state with its candidates'
    layer-1 states under the same weights; it is linear so pair cosines
    can span [-1, 1].  Padded ranks carry zero weight.
    """
    xw1s = feats @ params.w1_self  # (N, d1)
    xw1n = feats @ params.w1_nbr

    phi_e = _masked_phi(fb.scores, fb.mask, params.beta)
    nbr_gather = np.take(xw1n, fb.nbrs, axis=0)
    pre = np.take(xw1s, fb.owner, axis=0) + np.einsum("em,emd->ed", phi_e, nbr_gather)
    h1 = np.maximum(pre, 0.0)

    phi_r = np.take(phi_e, fb.root_entry, axis=0)
    h1_nbr = np.take(h1, fb.root_nbrs, axis=0)
    agg = np.einsum("rm,rmd->rd", phi_r, h1_nbr)
    h2 = np.take(h1, fb.root_entry, axis=0) @ params.w2_self + agg @ params.w2_nbr
    return Activations(phi_e, nbr_gather, pre, h1, phi_r, h1_nbr, agg, h2)


def forward_node(
    g: TemporalGraph,
    feats: np.ndarray,
    params: ModelParams,
    nodes,
    t: float,
    lam: float = 1.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Embeddings of ``nodes`` at time t; row i embeds nodes[i].

    Every candidate list comes from one ``top_m_neighbors`` pass at t
    with m = params.m, so a node's list is the same whether it appears
    as a root, as a neighbor, or both.  ``rng`` draws uniform lists
    instead (the selection-ablated variants): one random key per
    candidate of each node with more than m, the m smallest kept.
    """
    nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
    ids, scores, mask = top_m_neighbors(g, float(t), params.m, lam, rng)
    rows = lambda u, _: (ids[u], scores[u], mask[u])
    fb, root = build_batch(nodes, np.full(nodes.shape[0], float(t)), rows, params.m)
    return forward_batch(fb, params, feats).h2[root]


def save_checkpoint(path, params: ModelParams, feats: np.ndarray, seed: int) -> None:
    """Round-trip-exact dump of the five tensors, features, and seed."""
    np.savez(
        path,
        feats=feats,
        seed=np.asarray(seed, dtype=np.int64),
        **{name: a for name, a in params.arrays()},
    )


def load_checkpoint(path) -> tuple[ModelParams, np.ndarray, int]:
    with np.load(path) as data:
        params = ModelParams(
            w1_self=data["w1_self"],
            w1_nbr=data["w1_nbr"],
            w2_self=data["w2_self"],
            w2_nbr=data["w2_nbr"],
            beta=data["beta"],
        )
        return params, data["feats"], int(data["seed"])
