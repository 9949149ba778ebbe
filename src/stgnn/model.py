"""Two-layer significance-weighted aggregation network.

Each layer maps a node's previous-layer state together with the states
of its top-m significant neighbors, the latter combined under softmax
weights derived from the neighbors' significance scores and a learnable
per-rank correction vector.  Layer one starts from frozen random node
features and applies ReLU; the output layer is linear so pair cosines
can span [-1, 1].

Everything here is plain numpy and pure: given (graph, features,
parameters, time) the embedding of a node is deterministic.  Time enters
only through the significance scores, exp(-age) summed over a pair's
contacts, so the graph's time unit sets how fast they decay.  The forward
pass exists once, as ``layer_one`` and ``layer_two``, which
``forward_batch`` runs over a flattened computation tree.  Training
builds the tree of each mini-batch with ``build_batch``: it
deduplicates the samples' roots and their candidates on (time, node)
keys and takes the candidate lists from a TopMTable of
stgnn.significance (top-m lists for STGNN, uniform draws for the
selection-ablated variants, each keeping the m candidates with the
smallest random keys), then backpropagates through the returned
activations.  Evaluation embeds every node at one time, where the tree
is the node set itself: ``forward_node`` takes one ``top_m_neighbors``
pass as the entries and roots, and runs each layer over blocks of nodes,
bitwise equal to one dense batch.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from stgnn.significance import TopMTable, top_m_neighbors
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


def init_params(rng: np.random.Generator, d0: int, d1: int, d2: int, m: int) -> ModelParams:
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


def _first_unique(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the distinct keys in order of first appearance, and
    the index of each key among them."""
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    return first[order], rank[inverse]


def build_batch(node, t, table: TopMTable) -> tuple[_FlatBatch, np.ndarray]:
    """Flattened two-hop computation trees rooted at (node[i], t[i]).

    An *entry* is one (time, node) layer-1 unit: the node plus its
    candidate list.  A *root* is an entry used at layer 2, carrying the
    entry indices of its candidates.  Both are deduplicated on their
    (time, node) key, so each candidate list is looked up once per tree
    and samples sharing an anchor share its subtree.  Roots keep their
    order of first appearance, and entries that of a walk over each root
    followed by its candidates.

    The candidate lists are ``table.lookup`` rows, (k, table.m) and
    score-descending: one lookup gives the roots' lists, which make the
    walk, and one more gives every entry's, the roots' again among them
    (a lookup depends only on its (node, time)).  Returns the batch,
    without loss samples, and the root index of each input position.
    """
    node = np.asarray(node, dtype=np.int64)
    t = np.asarray(t, dtype=np.float64)
    t_rank = np.unique(t, return_inverse=True)[1].astype(np.int64) << 32
    root_pos, root_of = _first_unique(t_rank + node)
    r_node, r_t, r_rank = node[root_pos], t[root_pos], t_rank[root_pos]
    r_ids, _, r_mask = table.lookup(r_node, r_t)

    # the walk: each root, then its candidates
    walk = np.column_stack([np.ones(r_node.shape[0], dtype=bool), r_mask])
    w_node = np.column_stack([r_node, r_ids])[walk]
    w_row = np.nonzero(walk)[0]
    entry_pos, entry_of = _first_unique(r_rank[w_row] + w_node)
    owner, e_t = w_node[entry_pos], r_t[w_row[entry_pos]]
    slots = np.zeros(walk.shape, dtype=np.int64)
    slots[walk] = entry_of
    root_entry, root_nbrs = slots[:, 0], slots[:, 1:]
    nbrs, scores, mask = table.lookup(owner, e_t)
    return _FlatBatch(owner, nbrs, scores, mask, root_entry, root_nbrs), root_of


def _masked_phi(scores: np.ndarray, mask: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax of score * beta over the valid ranks.

    Rank i pairs with beta[i]; a tree narrower than beta uses its leading
    ranks.  A padded rank is -inf before the exponential, so it weighs
    exactly 0, and a row whose weights sum to no positive number (none
    valid, or NaN) is divided by 1.  One (E, m) buffer holds every step.
    """
    z = scores * beta[None, : scores.shape[1]]
    np.copyto(z, -np.inf, where=~mask)
    zmax = np.max(z, axis=1, keepdims=True)
    zmax[~np.isfinite(zmax)] = 0.0
    z -= zmax
    e = np.exp(z, out=z)
    denom = e.sum(axis=1, keepdims=True)
    denom[~(denom > 0.0)] = 1.0
    e /= denom
    return e


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


def layer_one(
    xw1s: np.ndarray,
    xw1n: np.ndarray,
    beta: np.ndarray,
    owner: np.ndarray,
    nbrs: np.ndarray,
    scores: np.ndarray,
    mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Layer one at a set of entries: each entry's mapped features
    ``xw1s[owner]`` plus its candidates' ``xw1n`` rows, weighted by phi
    over their significance scores, then ReLU.  ``xw1s`` and ``xw1n`` are
    the features times w1_self and w1_nbr, for every node.  Returns phi,
    the candidates' gathered rows, the pre-activation and the states; each
    row depends on its own entry only."""
    phi = _masked_phi(scores, mask, beta)
    nbr_gather = np.take(xw1n, nbrs, axis=0)
    pre = np.take(xw1s, owner, axis=0) + np.einsum("em,emd->ed", phi, nbr_gather)
    return phi, nbr_gather, pre, np.maximum(pre, 0.0)


def layer_two(
    phi_e: np.ndarray, h1: np.ndarray, root_entry: np.ndarray, root_nbrs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer two's aggregate at a set of roots: each root's candidates'
    layer-1 states ``h1[root_nbrs]`` under the root's own entry weights
    ``phi_e[root_entry]``.  Returns those weights, the gathered states and
    the aggregate; each row depends on its own root only.  The layer's
    output is ``h1[root_entry] @ w2_self + aggregate @ w2_nbr``, linear so
    pair cosines can span [-1, 1]."""
    phi_r = np.take(phi_e, root_entry, axis=0)
    h1_nbr = np.take(h1, root_nbrs, axis=0)
    return phi_r, h1_nbr, np.einsum("rm,rmd->rd", phi_r, h1_nbr)


def forward_batch(fb: _FlatBatch, params: ModelParams, feats: np.ndarray) -> Activations:
    """The two-layer aggregation over every root of a flattened tree:
    ``layer_one`` at every entry, then ``layer_two`` at every root.
    Padded ranks carry zero weight."""
    xw1s = feats @ params.w1_self  # (N, d1)
    xw1n = feats @ params.w1_nbr
    phi_e, nbr_gather, pre, h1 = layer_one(xw1s, xw1n, params.beta, fb.owner, fb.nbrs, fb.scores, fb.mask)
    phi_r, h1_nbr, agg = layer_two(phi_e, h1, fb.root_entry, fb.root_nbrs)
    h2 = np.take(h1, fb.root_entry, axis=0) @ params.w2_self + agg @ params.w2_nbr
    return Activations(phi_e, nbr_gather, pre, h1, phi_r, h1_nbr, agg, h2)


# nodes per block of forward_node: its (block, m, d1) gathers stay small
NODE_BLOCK = 512


def forward_node(
    g: TemporalGraph,
    feats: np.ndarray,
    params: ModelParams,
    t: float,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Embeddings of every node at time t, (num_nodes, d2); row u embeds
    node u.

    One ``top_m_neighbors`` pass at t with m = params.m gives every
    node's candidate list, and at one time the tree is the node set
    itself: entry u is node u with its list, every entry is a root, and a
    root's candidates are the entries of their ids.  ``rng`` draws
    uniform lists instead (the selection-ablated variants): one random
    key per candidate of each node with more than m, the m smallest kept.

    ``layer_one`` runs over blocks of ``NODE_BLOCK`` nodes, then
    ``layer_two`` does, so no (num_nodes, m, d1) gather is ever formed.
    Every row of a layer depends on its own node only, and the weight
    products run once over all nodes, so the embeddings are bitwise those
    of one ``forward_batch`` over the whole node set.  (A BLAS product's
    rows can round differently with its row count, so the products are
    not blocked.)
    """
    ids, scores, mask = top_m_neighbors(g, float(t), params.m, rng)
    every = np.arange(g.num_nodes)
    blocks = [slice(a, a + NODE_BLOCK) for a in range(0, g.num_nodes, NODE_BLOCK)]
    xw1s = feats @ params.w1_self
    xw1n = feats @ params.w1_nbr
    phi = np.empty(ids.shape)
    h1 = np.empty(xw1s.shape)
    for b in blocks:
        phi[b], _, _, h1[b] = layer_one(xw1s, xw1n, params.beta, every[b], ids[b], scores[b], mask[b])
    agg = np.empty(h1.shape)
    for b in blocks:
        agg[b] = layer_two(phi, h1, every[b], ids[b])[2]
    return h1 @ params.w2_self + agg @ params.w2_nbr


def save_checkpoint(
    path, params: ModelParams, feats: np.ndarray, seed: int, *, config: dict, train_digest: str
) -> None:
    """Round-trip-exact dump of the five tensors, features, and seed,
    with the model config the run trained under (JSON) and the digest of
    its training split."""
    np.savez(
        path,
        feats=feats,
        seed=np.asarray(seed, dtype=np.int64),
        config=np.asarray(json.dumps(config)),
        train_digest=np.asarray(train_digest),
        **{name: a for name, a in params.arrays()},
    )


def load_checkpoint(path) -> tuple[ModelParams, np.ndarray, int]:
    with np.load(path) as data:
        params = ModelParams(**{f.name: data[f.name] for f in fields(ModelParams)})
        return params, data["feats"], int(data["seed"])


def checkpoint_config(path) -> tuple[dict, str]:
    """The model config and training-split digest saved with a checkpoint;
    a ValueError names a path that cannot be opened, is not an .npz
    archive or holds neither."""
    try:
        data = np.load(path)
    except OSError as exc:
        raise ValueError(f"cannot open checkpoint {path}: {exc.strerror}") from None
    except (ValueError, EOFError, zipfile.BadZipFile):
        data = None  # numpy found no array format, or a broken archive
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError(f"checkpoint {path} is not an .npz archive")
    with data:
        if "config" not in data.files or "train_digest" not in data.files:
            raise ValueError(
                f"checkpoint {path} holds no model config or training-split digest; retrain to evaluate it"
            )
        return json.loads(str(data["config"])), str(data["train_digest"])
