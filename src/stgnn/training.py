"""Significance-weighted cosine loss, exact gradients, Adam, training loop.

The loss treats each training event as a positive sample weighted by its
forward-window significance label and pairs it with one uniformly drawn
non-interacting negative per positive, weighted by the batch mean of the
positive labels.  The positives are the training graph's contact
columns; their labels come from the graph's CSR pair index
(``build_positive_samples``).

Each chronological chunk of samples becomes one computation tree
(stgnn.model.build_batch), whose candidate lists see only the contacts
strictly before each sample's time; ``_capture_chunk`` then pairs the
tree's roots into the chunk's samples and weights them, each positive by
its label and each negative by the chunk's mean label.  The candidate
lists come from a stgnn.significance.TopMTable, in two batched lookups
per chunk, one for the roots and one for every tree entry, the roots
included: STGNN's table holds the top-m lists and is built once per
``train`` call, and the selection-ablated variants build a table of
uniform ``random_m`` draws in each epoch (one random key per candidate,
the m smallest kept), so the draws are new in every epoch and shared
within one, per node and inter-event interval.  The forward pass is
stgnn.model.forward_batch, shared with evaluation.  Gradients of the full
loss -> output layer -> hidden layer -> softmax rank-weighting
composition are derived by hand from its activations and evaluated in
batched numpy; tests pin the loss against a per-node recursive reference
forward and the gradients against central finite differences.  Every
scatter of gradient rows onto nodes or tree entries adds each bin's rows
in input order and so equals ``np.add.at`` bitwise.  Each runs one
``np.bincount`` per column, so the softmax-weighted neighbour rows of
both layers are never formed as one (rows, d) array.

Negatives are drawn one uniform node at a time per positive, and each
try is checked by bisection on the pair's timestamps held as a Python
list, so the draws depend only on the seed and the training stream.
"""

from __future__ import annotations

import bisect
import logging
import math
import time
import zlib
from dataclasses import dataclass, field, fields

import numpy as np

# numpy loads its random module on first use; load it with this module
# rather than inside whichever pipeline stage draws first
import numpy.random  # noqa: F401

from stgnn.model import (
    NORM_EPS,
    ModelParams,
    _FlatBatch,
    build_batch,
    forward_batch,
    init_params,
    random_features,
)
from stgnn.significance import TopMTable
from stgnn.temporal_graph import TemporalGraph, pair_keys, run_starts

logger = logging.getLogger(__name__)

# Draws per positive before its negative is skipped.
NEGATIVE_TRIES = 100
# Epochs without a lower mean loss before training stops.
EARLY_STOP_PATIENCE = 10
# Adam's moment decay rates and denominator guard.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def named_rng(seed: int, *names) -> np.random.Generator:
    """Independent generator derived from one master seed and a stream name.

    Every random decision (features, negatives, ablation sampling, eval
    pairs) draws from its own named stream so that model variants sharing
    a seed also share data conditions.
    """
    entropy = [int(seed)] + [zlib.crc32(str(n).encode("utf-8")) for n in names]
    return np.random.default_rng(entropy)


# ablation name -> (use_significant_selection, use_intimate_window)
ABLATION_FLAGS = {
    "BGNN": (False, False),
    "BGNN+S": (True, False),
    "BGNN+I": (False, True),
    "STGNN": (True, True),
}


@dataclass
class TrainConfig:
    """Training hyperparameters and the model variant.

    ``ablation`` names one of the paper's four variants; the two switches
    it sets are read-only properties.  Every field, a subclass's too, is
    checked against its annotation here, since a JSON config file can
    hold any type.
    """

    lr: float = 0.01
    epochs: int = 50
    batch_size: int = 128
    m: int = 10
    seed: int = 0
    d0: int = 128
    d1: int = 16
    d2: int = 16
    ablation: str = "STGNN"

    def __post_init__(self):
        # the annotations are strings here
        kinds = {"int": int, "bool": bool, "str": str, "float": (int, float), "float | None": (int, float, type(None))}
        for f in fields(self):
            value, kind = getattr(self, f.name), kinds.get(f.type)
            # a bool is an int, so it passes only where a bool is asked for
            if kind and not (isinstance(value, kind) and isinstance(value, bool) == (kind is bool)):
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.ablation not in ABLATION_FLAGS:
            raise ValueError(f"ablation must be one of {tuple(ABLATION_FLAGS)}, got {self.ablation!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr (learning rate) must be positive and finite, got {self.lr}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.m < 1:
            raise ValueError(f"m (neighbors per node) must be at least 1, got {self.m}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        for name in ("d0", "d1", "d2"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} (layer width) must be at least 1, got {getattr(self, name)}")

    @property
    def use_significant_selection(self) -> bool:
        return ABLATION_FLAGS[self.ablation][0]

    @property
    def use_intimate_window(self) -> bool:
        return ABLATION_FLAGS[self.ablation][1]


@dataclass
class AdamState:
    """First/second moment accumulators shaped like the parameters."""

    m1: ModelParams
    m2: ModelParams
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        return cls(m1=params.zeros_like(), m2=params.zeros_like())


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState, lr: float) -> None:
    """Standard bias-corrected Adam update, applied in place."""
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    for (name, p), (_, g), (_, m1), (_, m2) in zip(
        params.arrays(), grads.arrays(), state.m1.arrays(), state.m2.arrays()
    ):
        m1 *= ADAM_BETA1
        m1 += (1.0 - ADAM_BETA1) * g
        m2 *= ADAM_BETA2
        m2 += (1.0 - ADAM_BETA2) * g * g
        p -= lr * (m1 / bc1) / (np.sqrt(m2 / bc2) + ADAM_EPS)


class TrainingDiverged(RuntimeError):
    """Loss or gradients went non-finite; carries the last finite parameters."""

    def __init__(self, message: str, params: ModelParams, history: list[float]):
        super().__init__(message)
        self.params = params
        self.history = history


@dataclass
class TrainResult:
    params: ModelParams
    feats: np.ndarray
    loss_history: list[float]
    epoch_seconds: list[float] = field(default_factory=list)
    skipped_negatives: int = 0


def build_positive_samples(
    g: TemporalGraph, delta: float | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One positive per training event, as the columns (u, v, t, s_delta):
    the graph's contact columns and each event's label, the number of
    contacts of its pair inside the window [t, t + delta).

    With ``delta`` None (window ablated) every label is 1.  Labels are
    counted against the training stream only, so windows reaching past
    the split never see test data.  The counts are two ``searchsorted``
    calls over the CSR pair timestamps keyed by the exact int64 (pair id,
    time rank), where a time's rank is the number of distinct event times
    below it.
    """
    if delta is None:
        return g.src, g.dst, g.t, np.ones(g.num_events, dtype=np.int64)
    if not delta > 0:
        raise ValueError(f"window size must be positive, got {delta}")
    times = g.t[run_starts(g.t)]
    n_t = times.shape[0]
    n_pairs = g.pair_key.shape[0]
    contact = np.repeat(np.arange(n_pairs), np.diff(g.pair_ptr)) * n_t + np.searchsorted(times, g.pair_t)
    pair = np.searchsorted(g.pair_key, pair_keys(g.src, g.dst, g.num_nodes))
    lo = np.searchsorted(contact, pair * n_t + np.searchsorted(times, g.t))
    hi = np.searchsorted(contact, pair * n_t + np.searchsorted(times, g.t + delta))
    return g.src, g.dst, g.t, hi - lo


def _pair_times(g: TemporalGraph) -> dict[tuple[int, int], list[float]]:
    """The CSR pair index as a dict of Python lists of timestamps, keyed
    by endpoints (smaller first), for the per-try bisections of
    _valid_negative."""
    ts, ptr = g.pair_t.tolist(), g.pair_ptr.tolist()
    return {
        (a, b): ts[lo:hi] for (a, b), lo, hi in zip(g.pair_ends().tolist(), ptr[:-1], ptr[1:])
    }


def _valid_negative(
    times: dict[tuple[int, int], list[float]], u: int, w: int, t: float, delta: float | None
) -> bool:
    """w is a negative for u at t when the pair has no contact in
    [t, t + delta), or, with no window, no contact at exactly t.

    ``times`` is the graph's _pair_times.
    """
    if w == u:
        return False
    ts = times.get((u, w) if u < w else (w, u), ())
    end = t + delta if delta is not None else math.nextafter(t, math.inf)
    return bisect.bisect_left(ts, end) == bisect.bisect_left(ts, t)


def _draw_negative(
    times: dict[tuple[int, int], list[float]],
    num_nodes: int,
    u: int,
    t: float,
    rng: np.random.Generator,
    delta: float | None,
    tries: int,
) -> int:
    """A uniform node w valid as u's negative at t, or -1 when ``tries``
    draws found none."""
    for _ in range(tries):
        w = int(rng.integers(num_nodes))
        if _valid_negative(times, u, w, t, delta):
            return w
    return -1


def _negative_column(
    times: dict[tuple[int, int], list[float]],
    num_nodes: int,
    u: list[int],
    t: list[float],
    rng: np.random.Generator,
    delta: float | None,
    tries: int,
) -> np.ndarray:
    """One negative per positive (u[k], t[k]) as an int64 column, -1
    where none was found: one _draw_negative call per positive."""
    return np.array(
        [_draw_negative(times, num_nodes, a, b, rng, delta, tries) for a, b in zip(u, t)],
        dtype=np.int64,
    )


# ---------------------------------------------------------------------------
# Loss and gradients
# ---------------------------------------------------------------------------


def _scatter_columns(index: np.ndarray, column, d: int, n: int) -> np.ndarray:
    """(n, d) sums by target row ``index`` of rows whose column j is
    ``column(j)``: one ``np.bincount`` per column, each bin adding its rows
    in input order, so the result is bitwise that of ``np.add.at`` into
    zeros, and the rows need never be formed as one array."""
    return np.column_stack([np.bincount(index, weights=column(j), minlength=n) for j in range(d)])


def _forward_backward(
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

    dh = np.concatenate([dhu, dhv])
    d_h2 = _scatter_columns(np.concatenate([fb.su, fb.sv]), lambda j: dh[:, j], dh.shape[1], h2.shape[0])

    g_w2_self = h1[fb.root_entry].T @ d_h2
    g_w2_nbr = agg.T @ d_h2

    d_agg = d_h2 @ params.w2_nbr.T  # (R, d1)
    d_self = d_h2 @ params.w2_self.T
    # the root rows, then the (R * m, d1) weighted neighbour rows
    d_h1 = _scatter_columns(
        np.concatenate([fb.root_entry, fb.root_nbrs.reshape(-1)]),
        lambda j: np.concatenate([d_self[:, j], (phi_r * d_agg[:, j, None]).reshape(-1)]),
        h1.shape[1],
        h1.shape[0],
    )
    mask_r = fb.mask[fb.root_entry]
    d_phi_r = np.einsum("rd,rmd->rm", d_agg, h1_nbr) * mask_r
    d_phi = _scatter_columns(fb.root_entry, lambda j: d_phi_r[:, j], d_phi_r.shape[1], phi_e.shape[0])

    d_pre = d_h1 * (pre > 0.0)
    n_nodes = feats.shape[0]
    d_xw1s = _scatter_columns(fb.owner, lambda j: d_pre[:, j], d_pre.shape[1], n_nodes)
    d_phi += np.einsum("ed,emd->em", d_pre, nbr_gather) * fb.mask
    # the (E * m, d1) weighted neighbour rows
    d_xw1n = _scatter_columns(
        fb.nbrs.reshape(-1), lambda j: (phi_e * d_pre[:, j, None]).reshape(-1), pre.shape[1], n_nodes
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


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def _capture_chunk(
    u: np.ndarray,
    v: np.ndarray,
    t: np.ndarray,
    s_delta: np.ndarray,
    w: np.ndarray,
    table: TopMTable,
) -> _FlatBatch:
    """The computation tree of one chronological chunk, with its samples.

    Positive k is (u[k], v[k]) at t[k], weighted by its label s_delta[k];
    its negative is (u[k], w[k]), absent where w[k] is -1, weighted by the
    chunk's mean label s_bar.  Every candidate list of the chunk is a
    ``table`` row (see build_batch).
    """
    n = u.shape[0]
    # the roots in sample order: u[k], v[k], then w[k] where a negative was found
    keep = np.column_stack([np.ones((n, 2), dtype=bool), w >= 0])
    node, root_t = np.column_stack([u, v, w])[keep], np.repeat(t, keep.sum(axis=1))
    pos = (np.cumsum(keep) - 1).reshape(n, 3)
    fb, root_of = build_batch(node, root_t, table)
    # samples: each positive (u, v), then its negative (u, w)
    pair = keep[:, 1:]
    fb.su = root_of[np.repeat(pos[:, 0], keep.sum(axis=1) - 1)]
    fb.sv = root_of[pos[:, 1:][pair]]
    fb.positive = np.broadcast_to([True, False], (n, 2))[pair]
    fb.weight = np.column_stack([s_delta, np.full(n, s_delta.mean())])[pair]
    return fb


def train(g_train: TemporalGraph, config: TrainConfig, delta: float | None) -> TrainResult:
    """Chronological mini-batch training with 1:1 negative sampling.

    ``delta`` is the intimate-window size from the power-law fit; it
    keeps governing negative validity even when the window ablation
    flattens the labels, so all variants of one seed see identical data.
    ``delta`` may be None only in window-ablated runs (negatives then
    only avoid contacts at the exact sample time).

    Fixed seed implies a bitwise-reproducible loss trajectory.
    """
    if delta is None and config.use_intimate_window:
        raise ValueError("window size required unless the intimate window is ablated")
    feats = random_features(g_train.num_nodes, config.d0, named_rng(config.seed, "features"))
    params = init_params(named_rng(config.seed, "params"), config.d0, config.d1, config.d2, config.m)
    adam = AdamState.for_params(params)
    neg_rng = named_rng(config.seed, "train-negatives")
    sel_rng = named_rng(config.seed, "train-selection")

    label_delta = delta if config.use_intimate_window else None
    pos_u, pos_v, pos_t, pos_s = build_positive_samples(g_train, label_delta)
    pos_s = pos_s.astype(np.float64)
    n_pos = pos_t.shape[0]
    # the negatives' per-try checks run on Python scalars and lists
    times = _pair_times(g_train)
    neg_u, neg_t = pos_u.tolist(), pos_t.tolist()
    neg_delta = None if delta is None else float(delta)
    table = TopMTable.build(g_train, config.m) if config.use_significant_selection else None

    history: list[float] = []
    epoch_seconds: list[float] = []
    skipped_total = 0
    best = np.inf
    stale = 0

    for epoch in range(config.epochs):
        tic = time.perf_counter()
        neg_w = _negative_column(
            times, g_train.num_nodes, neg_u, neg_t, neg_rng, neg_delta, NEGATIVE_TRIES
        )
        n_skip = int(np.count_nonzero(neg_w < 0))
        skipped_total += n_skip
        if n_skip and epoch == 0:
            logger.warning("epoch 0: %d positive(s) have no valid negative", n_skip)

        if not config.use_significant_selection:
            table = None  # free the last epoch's draws before drawing the next
            table = TopMTable.build(g_train, config.m, rng=sel_rng)
        loss_sum = 0.0
        n_seen = 0
        for start in range(0, n_pos, config.batch_size):
            c = slice(start, start + config.batch_size)
            fb = _capture_chunk(pos_u[c], pos_v[c], pos_t[c], pos_s[c], neg_w[c], table)
            loss, grads = _forward_backward(fb, params, feats)
            # checked before the step, so the exception carries finite parameters
            if not (np.isfinite(loss) and all(np.isfinite(a).all() for _, a in grads.arrays())):
                raise TrainingDiverged(
                    f"non-finite loss or gradients at epoch {epoch}", params.copy(), history
                )
            adam_step(params, grads, adam, config.lr)
            loss_sum += loss * fb.su.shape[0]
            n_seen += fb.su.shape[0]
        epoch_loss = loss_sum / max(n_seen, 1)
        history.append(epoch_loss)
        epoch_seconds.append(time.perf_counter() - tic)

        if epoch_loss < best - 1e-9:
            best = epoch_loss
            stale = 0
        else:
            stale += 1
            if stale >= EARLY_STOP_PATIENCE:
                logger.info("early stop at epoch %d (plateau of %d)", epoch, stale)
                break

    return TrainResult(
        params=params,
        feats=feats,
        loss_history=history,
        epoch_seconds=epoch_seconds,
        skipped_negatives=skipped_total,
    )
