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
(``forward_batch``): training builds the tree from its mini-batch samples
and backpropagates through the returned activations, and evaluation
embeds all of its nodes at the split time through ``forward_node``.

The tree takes its candidate lists from a query ``(node, t, m) -> (ids,
scores)`` returning the arrays of stgnn.significance: the streaming index
in training, ``top_m_neighbors`` or a selector in evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from typing import NamedTuple

import numpy as np

from stgnn.significance import sample_m, top_m_neighbors
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

    def check_finite(self) -> None:
        for name, a in self.arrays():
            if not np.all(np.isfinite(a)):
                raise FloatingPointError(f"non-finite values in {name}")


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


class _BatchTree:
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


@dataclass
class _FlatBatch:
    owner: np.ndarray       # (E,)
    nbrs: np.ndarray        # (E, m) node ids, zero-padded
    scores: np.ndarray      # (E, m)
    mask: np.ndarray        # (E, m) bool
    root_entry: np.ndarray  # (R,)
    root_nbrs: np.ndarray   # (R, m) entry ids, zero-padded
    su: np.ndarray          # (S,) root ids
    sv: np.ndarray          # (S,)
    positive: np.ndarray    # (S,) bool
    weight: np.ndarray      # (S,) s_delta for positives, s_bar for negatives


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
    nbr_gather = xw1n[fb.nbrs]
    pre = xw1s[fb.owner] + np.einsum("em,emd->ed", phi_e, nbr_gather)
    h1 = np.maximum(pre, 0.0)

    phi_r = phi_e[fb.root_entry]
    h1_nbr = h1[fb.root_nbrs]
    agg = np.einsum("rm,rmd->rd", phi_r, h1_nbr)
    h2 = h1[fb.root_entry] @ params.w2_self + agg @ params.w2_nbr
    return Activations(phi_e, nbr_gather, pre, h1, phi_r, h1_nbr, agg, h2)


def forward_node(
    g: TemporalGraph,
    feats: np.ndarray,
    params: ModelParams,
    nodes,
    t: float,
    m: int | None = None,
    lam: float = 1.0,
    selector=None,
) -> np.ndarray:
    """Embeddings of ``nodes`` at time t; row i embeds nodes[i].

    All roots share one computation tree, so each distinct node's
    candidate list is taken once at the query time t, whether the node
    appears as a root, as a neighbor, or both.

    ``selector(g, node, t, m) -> (ids, scores)`` overrides neighbor
    selection (used by the selection-ablated variants); it defaults to
    significance top-m.
    """
    if m is None:
        m = params.m
    if selector is None:
        selector = partial(top_m_neighbors, lam=lam)
    tree = _BatchTree(m, partial(selector, g))
    roots = [tree.add_root(int(u), t) for u in nodes]
    return forward_batch(tree.finalize(), params, feats).h2[roots]


def random_neighbor_selector(rng: np.random.Generator, lam: float = 1.0):
    """Selector drawing up to m historical neighbors uniformly at random.

    The sampled neighbors keep their true significance scores and are
    ordered score-descending so rank corrections stay aligned.
    """

    def select(g: TemporalGraph, u: int, t: float, m: int) -> tuple[np.ndarray, np.ndarray]:
        ids, scores = top_m_neighbors(g, u, t, m=max(m, g.num_nodes), lam=lam)
        return sample_m(ids, scores, m, rng)

    return select


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
