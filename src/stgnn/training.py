"""Significance-weighted cosine loss, exact gradients, Adam, training loop.

The loss treats each training event as a positive sample weighted by its
forward-window significance label and pairs it with one uniformly drawn
non-interacting negative per positive, weighted by the batch mean of the
positive labels.

Each chronological chunk of samples becomes one computation tree
(stgnn.model.build_batch), whose candidate lists see only the contacts
strictly before each sample's time.  They come from a
stgnn.significance.TopMTable, two batched lookups per chunk: STGNN's
table holds the top-m lists and is built once per ``train`` call, and
the selection-ablated variants build a table of uniform ``random_m``
draws in each epoch, so the draws are new in every epoch and shared
within one, per node and inter-event interval.  The forward pass is
stgnn.model.forward_batch, shared with evaluation.  Gradients of the full
loss -> output layer -> hidden layer -> softmax rank-weighting
composition are derived by hand from its activations and evaluated in
batched numpy; tests pin the loss against a per-node recursive reference
forward and the gradients against central finite differences.
"""

from __future__ import annotations

import logging
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from stgnn.model import (
    NORM_EPS,
    Lookup,
    ModelParams,
    _FlatBatch,
    build_batch,
    forward_batch,
    init_params,
    random_features,
)
from stgnn.significance import TopMTable, significance_label
from stgnn.temporal_graph import TemporalGraph

logger = logging.getLogger(__name__)


def named_rng(seed: int, *names) -> np.random.Generator:
    """Independent generator derived from one master seed and a stream name.

    Every random decision (features, negatives, ablation sampling, eval
    pairs) draws from its own named stream so that model variants sharing
    a seed also share data conditions.
    """
    entropy = [int(seed)] + [zlib.crc32(str(n).encode("utf-8")) for n in names]
    return np.random.default_rng(entropy)


@dataclass(frozen=True)
class TrainSample:
    """One supervision point: a (u, v) pair at time t with its window label."""

    u: int
    v: int
    t: float
    positive: bool
    s_delta: int


@dataclass
class TrainConfig:
    """Training hyperparameters and model-variant switches."""

    lr: float = 0.01
    epochs: int = 50
    batch_size: int = 128
    m: int = 10
    lam: float = 1.0
    seed: int = 0
    d0: int = 128
    d1: int = 16
    d2: int = 16
    use_significant_selection: bool = True
    use_intimate_window: bool = True
    early_stop_patience: int = 10
    negative_tries: int = 100

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")
        if self.m < 1:
            raise ValueError(f"m (neighbors per node) must be at least 1, got {self.m}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if not self.lam > 0:
            raise ValueError(f"lam (decay rate) must be positive, got {self.lam}")


@dataclass
class AdamState:
    """First/second moment accumulators shaped like the parameters."""

    m1: ModelParams
    m2: ModelParams
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        return cls(m1=params.zeros_like(), m2=params.zeros_like())


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState, lr: float) -> None:
    """Standard bias-corrected Adam update, applied in place."""
    state.step += 1
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    for (name, p), (_, g), (_, m1), (_, m2) in zip(
        params.arrays(), grads.arrays(), state.m1.arrays(), state.m2.arrays()
    ):
        m1 *= state.beta1
        m1 += (1.0 - state.beta1) * g
        m2 *= state.beta2
        m2 += (1.0 - state.beta2) * g * g
        p -= lr * (m1 / bc1) / (np.sqrt(m2 / bc2) + state.eps)


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; carries the last finite parameters."""

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


def build_positive_samples(g: TemporalGraph, delta: float | None) -> list[TrainSample]:
    """One positive per training event, labeled by its window count.

    With ``delta`` None (window ablated) every label is 1.  Labels are
    counted against the training stream only, so windows reaching past
    the split never see test data.
    """
    out = []
    for u, v, t in g.events:
        s = significance_label(g, u, v, t, delta) if delta is not None else 1
        out.append(TrainSample(u=u, v=v, t=t, positive=True, s_delta=s))
    return out


def _valid_negative(g: TemporalGraph, u: int, w: int, t: float, delta: float | None) -> bool:
    """w is a negative for u at t when the pair has no contact in
    [t, t + delta), or, with no window, no contact at exactly t."""
    if w == u:
        return False
    end = t + delta if delta is not None else np.nextafter(t, np.inf)
    return g.count_in_window(u, w, t, end) == 0


def _draw_negative(
    g: TemporalGraph, pos: TrainSample, rng: np.random.Generator, delta: float | None, tries: int
) -> TrainSample | None:
    for _ in range(tries):
        w = int(rng.integers(g.num_nodes))
        if _valid_negative(g, pos.u, w, pos.t, delta):
            return TrainSample(u=pos.u, v=w, t=pos.t, positive=False, s_delta=0)
    return None


# ---------------------------------------------------------------------------
# Loss and gradients
# ---------------------------------------------------------------------------


def _scatter_rows(index: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """(n, d) sums of ``rows`` by target row ``index``, added in input
    order: bitwise the result of ``np.add.at`` into zeros."""
    d = rows.shape[1]
    flat = (index[:, None] * d + np.arange(d)).reshape(-1)
    return np.bincount(flat, weights=rows.reshape(-1), minlength=n * d).reshape(n, d)


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
    ok = (nu > NORM_EPS) & (nv > NORM_EPS)
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

    d_h2 = _scatter_rows(np.concatenate([fb.su, fb.sv]), np.concatenate([dhu, dhv]), h2.shape[0])

    g_w2_self = h1[fb.root_entry].T @ d_h2
    g_w2_nbr = agg.T @ d_h2

    d_agg = d_h2 @ params.w2_nbr.T  # (R, d1)
    d_h1 = _scatter_rows(
        np.concatenate([fb.root_entry, fb.root_nbrs.reshape(-1)]),
        np.concatenate(
            [d_h2 @ params.w2_self.T, (phi_r[:, :, None] * d_agg[:, None, :]).reshape(-1, h1.shape[1])]
        ),
        h1.shape[0],
    )
    mask_r = fb.mask[fb.root_entry]
    d_phi = _scatter_rows(
        fb.root_entry, np.einsum("rd,rmd->rm", d_agg, h1_nbr) * mask_r, phi_e.shape[0]
    )

    d_pre = d_h1 * (pre > 0.0)
    n_nodes = feats.shape[0]
    d_xw1s = _scatter_rows(fb.owner, d_pre, n_nodes)
    d_phi += np.einsum("ed,emd->em", d_pre, nbr_gather) * fb.mask
    # the (E * m, d1) weighted rows, eight columns at a time to bound memory
    nbr_rows = lambda c: (phi_e[:, :, None] * d_pre[:, None, c : c + 8]).reshape(fb.nbrs.size, -1)
    d_xw1n = np.concatenate(
        [_scatter_rows(fb.nbrs.reshape(-1), nbr_rows(c), n_nodes) for c in range(0, pre.shape[1], 8)],
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


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def _capture_chunk(
    u: np.ndarray,
    v: np.ndarray,
    t: np.ndarray,
    s_delta: np.ndarray,
    w: np.ndarray,
    m: int,
    lookup: Lookup,
) -> _FlatBatch:
    """The computation tree of one chronological chunk.

    Positive k is (u[k], v[k]) at t[k] with label s_delta[k]; its
    negative is (u[k], w[k]), absent where w[k] is -1.  ``lookup``
    answers every candidate list of the chunk (see build_batch).
    """
    n = u.shape[0]
    # the roots in sample order: u[k], v[k], then w[k] where a negative was found
    keep = np.column_stack([np.ones((n, 2), dtype=bool), w >= 0])
    node, root_t = np.column_stack([u, v, w])[keep], np.repeat(t, keep.sum(axis=1))
    pos = (np.cumsum(keep) - 1).reshape(n, 3)
    # samples: each positive (u, v), then its negative (u, w)
    pair = keep[:, 1:]
    su = np.repeat(pos[:, 0], keep.sum(axis=1) - 1)
    sv = pos[:, 1:][pair]
    positive = np.broadcast_to([True, False], (n, 2))[pair]
    sd = np.column_stack([s_delta, np.zeros(n)])[pair]
    return build_batch(node, root_t, lookup, m, su, sv, positive, sd)[0]


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
    positives = build_positive_samples(g_train, label_delta)
    pos_u = np.array([p.u for p in positives], dtype=np.int64)
    pos_v = np.array([p.v for p in positives], dtype=np.int64)
    pos_t = np.array([p.t for p in positives], dtype=np.float64)
    pos_s = np.array([p.s_delta for p in positives], dtype=np.float64)
    table = None
    if config.use_significant_selection and positives:  # no events, no chunks, no table
        table = TopMTable.build(g_train, config.m, config.lam)

    history: list[float] = []
    epoch_seconds: list[float] = []
    skipped_total = 0
    best = np.inf
    stale = 0

    for epoch in range(config.epochs):
        tic = time.perf_counter()
        negs = [_draw_negative(g_train, p, neg_rng, delta, config.negative_tries) for p in positives]
        neg_w = np.array([-1 if x is None else x.v for x in negs], dtype=np.int64)
        n_skip = int(np.count_nonzero(neg_w < 0))
        skipped_total += n_skip
        if n_skip and epoch == 0:
            logger.warning("epoch 0: %d positive(s) have no valid negative", n_skip)

        if not config.use_significant_selection and positives:
            table = None  # free the last epoch's draws before drawing the next
            table = TopMTable.build(g_train, config.m, config.lam, rng=sel_rng)
        loss_sum = 0.0
        n_seen = 0
        for start in range(0, len(positives), config.batch_size):
            c = slice(start, start + config.batch_size)
            fb = _capture_chunk(pos_u[c], pos_v[c], pos_t[c], pos_s[c], neg_w[c], config.m, table.lookup)
            loss, grads = _forward_backward(fb, params, feats)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}", params.copy(), history
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
            if stale >= config.early_stop_patience:
                logger.info("early stop at epoch %d (plateau of %d)", epoch, stale)
                break

    return TrainResult(
        params=params,
        feats=feats,
        loss_history=history,
        epoch_seconds=epoch_seconds,
        skipped_negatives=skipped_total,
    )
