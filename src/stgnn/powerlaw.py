"""Continuous power-law fitting and the intimate-window mapping.

Inter-event times of repeatedly interacting node pairs are heavy-tailed.
We fit them with a continuous power law (MLE exponent, lower cutoff
chosen by Kolmogorov-Smirnov minimization over candidate cutoffs) and
invert the fitted complementary CDF to translate a desired event-coverage
proportion p into a forward observation window size.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from stgnn.temporal_graph import TemporalGraph

logger = logging.getLogger(__name__)

# Cap on distinct lower-cutoff candidates; above this the candidates are
# quantile-subsampled so the fit stays O(cap * n) and deterministic.
MAX_XMIN_CANDIDATES = 250


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


def collect_inter_event_times(g: TemporalGraph) -> list[float]:
    """Pool the consecutive inter-contact gaps of every node pair.

    Pairs with k >= 2 contacts contribute their k-1 consecutive
    differences.  Zero gaps (simultaneous repeats) are dropped with a
    counted warning.  Raises if no pair repeats at all.
    """
    gaps: list[float] = []
    n_zero = 0
    for ts in g.pair_index.values():
        if ts.shape[0] < 2:
            continue
        d = np.diff(ts)
        n_zero += int(np.count_nonzero(d == 0.0))
        gaps.extend(d[d > 0.0].tolist())
    if n_zero:
        logger.warning("dropped %d zero inter-event gap(s) from simultaneous repeats", n_zero)
    if not gaps:
        raise DegenerateFitError(
            "no pair has two contacts at distinct times; supply a window size explicitly"
        )
    return gaps


def _alpha_mle(tail: np.ndarray, xmin: float) -> float | None:
    """Continuous MLE exponent for the tail x >= xmin; None if degenerate."""
    log_sum = float(np.sum(np.log(tail / xmin)))
    if log_sum <= 0.0:
        return None
    return 1.0 + tail.shape[0] / log_sum


def _ks_distance(tail_sorted: np.ndarray, alpha: float, xmin: float) -> float:
    """Max deviation between empirical and fitted tail CDFs at the data."""
    n = tail_sorted.shape[0]
    fitted = 1.0 - (tail_sorted / xmin) ** (1.0 - alpha)
    lo = np.arange(n) / n
    hi = np.arange(1, n + 1) / n
    return float(np.maximum(np.abs(fitted - lo), np.abs(fitted - hi)).max())


def fit_power_law(xs, xmin: float | None = None) -> PowerLawFit:
    """Fit a continuous power law to positive samples.

    When ``xmin`` is None it is chosen from the distinct sample values
    (quantile-subsampled to at most MAX_XMIN_CANDIDATES) to minimize the
    KS distance between the empirical and fitted tail CDFs, with ties
    broken toward the smallest cutoff; this path requires at least 10
    samples.  Passing ``xmin`` pins the cutoff and only estimates the
    exponent, which admits smaller samples.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0 or np.any(xs <= 0.0) or not np.all(np.isfinite(xs)):
        raise ValueError("samples must be positive finite reals")
    if np.all(xs == xs[0]):
        raise DegenerateFitError("all samples identical; exponent is unidentifiable")

    if xmin is not None:
        if xmin <= 0:
            raise ValueError(f"xmin must be positive, got {xmin}")
        return _fit_at(xs, float(xmin))

    if xs.size < 10:
        raise ValueError(f"need at least 10 samples to search for xmin, got {xs.size}")
    candidates = np.unique(xs)[:-1]  # largest value leaves an empty tail fit
    if candidates.size == 0:
        raise DegenerateFitError("all samples identical; exponent is unidentifiable")
    if candidates.size > MAX_XMIN_CANDIDATES:
        qs = np.linspace(0.0, 1.0, MAX_XMIN_CANDIDATES)
        idx = np.unique((qs * (candidates.size - 1)).astype(int))
        candidates = candidates[idx]

    best: PowerLawFit | None = None
    for cand in candidates:
        fit = _try_fit_at(xs, float(cand))
        if fit is None:
            continue
        if best is None or fit.ks_distance < best.ks_distance:
            best = fit
    if best is None:
        raise DegenerateFitError("no candidate cutoff admits a finite exponent")
    return best


def _try_fit_at(xs: np.ndarray, xmin: float) -> PowerLawFit | None:
    tail = np.sort(xs[xs >= xmin])
    if tail.size < 2:
        return None
    alpha = _alpha_mle(tail, xmin)
    if alpha is None:
        return None
    ks = _ks_distance(tail, alpha, xmin)
    c = (alpha - 1.0) * xmin ** (1.0 - alpha)
    return PowerLawFit(alpha=alpha, xmin=xmin, c=c, n_tail=int(tail.size), ks_distance=ks)


def _fit_at(xs: np.ndarray, xmin: float) -> PowerLawFit:
    fit = _try_fit_at(xs, xmin)
    if fit is None:
        raise DegenerateFitError(f"tail above xmin={xmin} is degenerate")
    return fit


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
