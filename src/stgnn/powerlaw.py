"""Continuous power-law fitting and the intimate-window mapping.

Inter-event times of repeatedly interacting node pairs are heavy-tailed.
We fit them with a continuous power law (MLE exponent, lower cutoff
chosen by Kolmogorov-Smirnov minimization over candidate cutoffs) and
invert the fitted complementary CDF to translate a desired event-coverage
proportion p into a forward observation window size.

The fit sorts the sample once, so each candidate cutoff's tail is a
suffix of it.  A candidate's KS distance is the largest deviation between
the empirical and fitted tail CDFs over all of its tail points; the same
deviation taken over every KS_BOUND_STRIDE-th tail point, with the same
operands, is a maximum over a subset of those values and so can never
exceed it.  The search scores every candidate by that cheap lower bound,
then computes full-tail KS distances in ascending (bound, xmin) order and
stops at the first bound above the best distance found: no candidate
left can beat it, or tie it at a smaller cutoff.  The result is exactly
that of scoring every candidate in full.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from stgnn.temporal_graph import TemporalGraph, run_starts

logger = logging.getLogger(__name__)

# Cap on distinct lower-cutoff candidates; above this the candidates are
# quantile-subsampled so the fit stays O(cap * n) and deterministic.
MAX_XMIN_CANDIDATES = 250
# Every KS_BOUND_STRIDE-th tail point gives a candidate's KS lower bound.
KS_BOUND_STRIDE = 16


@dataclass(frozen=True)
class PowerLawFit:
    """Fitted continuous power law p(x) = c * x^(-alpha) for x >= xmin."""

    alpha: float
    xmin: float
    c: float
    n_tail: int
    ks_distance: float


class DegenerateFitError(ValueError):
    """Raised when the sample admits no power-law fit (e.g. all equal)."""


def collect_inter_event_times(g: TemporalGraph) -> np.ndarray:
    """Pool the consecutive inter-contact gaps of every node pair.

    Pairs with k >= 2 contacts contribute their k-1 consecutive
    differences: one ``np.diff`` over the CSR pair timestamps, masked at
    the pair boundaries, in pair-key order.  Zero gaps (simultaneous
    repeats) are dropped with a counted warning.  Raises if no pair
    repeats at all.
    """
    d = np.diff(g.pair_t)
    within = np.ones(d.shape[0], dtype=bool)
    within[g.pair_ptr[1:-1] - 1] = False  # the step from one pair to the next
    n_zero = int(np.count_nonzero(within & (d == 0.0)))
    gaps = d[within & (d > 0.0)]
    if n_zero:
        logger.warning("dropped %d zero inter-event gap(s) from simultaneous repeats", n_zero)
    if not gaps.shape[0]:
        raise DegenerateFitError(
            "no pair has two contacts at distinct times; supply a window size explicitly"
        )
    return gaps


def _alpha_mle(tail: np.ndarray, xmin: float) -> float | None:
    """Continuous MLE exponent for the tail x >= xmin; None if degenerate,
    as when every x / xmin rounds to 1.0."""
    log_sum = float(np.sum(np.log(tail / xmin)))
    if log_sum <= 0.0:
        return None
    return 1.0 + tail.shape[0] / log_sum


def _cdf_deviation(tail_sorted: np.ndarray, alpha: float, xmin: float, stride: int) -> float:
    """Max deviation between empirical and fitted tail CDFs at every
    ``stride``-th tail point, each computed as at stride 1, so a stride
    above 1 gives a lower bound on the KS distance."""
    n = tail_sorted.shape[0]
    rank = np.arange(0, n, stride)
    fitted = 1.0 - (tail_sorted[::stride] / xmin) ** (1.0 - alpha)
    lo = rank / n
    hi = (rank + 1) / n
    return float(np.maximum(np.abs(fitted - lo), np.abs(fitted - hi)).max())


def _ks_distance(tail_sorted: np.ndarray, alpha: float, xmin: float) -> float:
    """Max deviation between empirical and fitted tail CDFs at the data."""
    return _cdf_deviation(tail_sorted, alpha, xmin, 1)


def fit_power_law(xs) -> PowerLawFit:
    """Fit a continuous power law to at least 10 positive samples.

    The cutoff xmin is chosen from the distinct sample values
    (quantile-subsampled to at most MAX_XMIN_CANDIDATES) to minimize the
    KS distance between the empirical and fitted tail CDFs, with ties
    broken toward the smallest cutoff.  The sample is sorted once, so each
    candidate's tail x >= xmin is a suffix of it, starting where one
    comparison pass over the sorted sample finds xmin first.

    Each candidate with a finite exponent is first bounded by its CDF
    deviation at every KS_BOUND_STRIDE-th tail point.  Those values are
    a subset of the ones its KS distance maximizes, computed the same
    way, so the bound never exceeds the distance.  Full-tail distances
    are then computed in ascending (bound, xmin) order until the next
    bound exceeds the best distance, which gives the same fit as scoring
    every candidate in full.  A fit whose constant c overflows or is not
    positive is degenerate.
    """
    xs = np.sort(np.asarray(xs, dtype=np.float64), axis=None)
    if xs.size == 0 or np.any(xs <= 0.0) or not np.all(np.isfinite(xs)):
        raise ValueError("samples must be positive finite reals")
    if xs[0] == xs[-1]:
        raise DegenerateFitError("all samples identical; exponent is unidentifiable")
    if xs.size < 10:
        raise ValueError(f"need at least 10 samples to search for xmin, got {xs.size}")
    # each distinct value's first position, where its tail starts; the largest leaves an empty tail
    starts = np.flatnonzero(run_starts(xs))[:-1]
    if starts.size > MAX_XMIN_CANDIDATES:
        qs = np.linspace(0.0, 1.0, MAX_XMIN_CANDIDATES)
        idx = (qs * (starts.size - 1)).astype(int)
        starts = starts[idx[run_starts(idx)]]

    bounded = []  # (KS lower bound, xmin, alpha, tail start)
    for xmin, start in zip(xs[starts].tolist(), starts.tolist()):
        tail = xs[start:]
        alpha = _alpha_mle(tail, xmin)
        if alpha is not None:
            bounded.append((_cdf_deviation(tail, alpha, xmin, KS_BOUND_STRIDE), xmin, alpha, start))
    if not bounded:
        raise DegenerateFitError("no candidate cutoff admits a finite exponent")
    best = (math.inf, math.inf, 0.0, 0)  # (ks, xmin, alpha, tail start)
    for bound, xmin, alpha, start in sorted(bounded):
        if bound > best[0]:
            break
        best = min(best, (_ks_distance(xs[start:], alpha, xmin), xmin, alpha, start))
    ks, xmin, alpha, start = best
    n_tail = xs.size - start
    try:
        c = (alpha - 1.0) * xmin ** (1.0 - alpha)
    except OverflowError:
        c = math.inf
    if not (math.isfinite(c) and c > 0.0):
        # as on gaps a few ulps apart, whose exponent runs to about 1e15
        raise DegenerateFitError(
            "the power-law fit of the inter-event times overflowed; supply a window size explicitly"
        )
    return PowerLawFit(alpha=alpha, xmin=xmin, c=c, n_tail=n_tail, ks_distance=ks)


def intimate_window_size(fit: PowerLawFit, p: float) -> float:
    """Window size covering proportion ``p`` of inter-event gaps.

    Inverts the fitted complementary CDF:
    ((alpha - 1) / (c * (1 - p)))^(1 / (alpha - 1)), which reduces to
    xmin * (1 - p)^(-1 / (alpha - 1)).
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"coverage proportion must lie in [0, 1), got {p}")
    return ((fit.alpha - 1.0) / (fit.c * (1.0 - p))) ** (1.0 / (fit.alpha - 1.0))


def sample_power_law(n: int, alpha: float, xmin: float, rng: np.random.Generator) -> np.ndarray:
    """Draw n samples from a continuous power law by inverse-CDF transform."""
    if alpha <= 1.0 or xmin <= 0.0:
        raise ValueError("requires alpha > 1 and xmin > 0")
    u = rng.random(n)
    return xmin * (1.0 - u) ** (-1.0 / (alpha - 1.0))
