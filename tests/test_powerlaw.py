import logging
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stgnn import powerlaw
from stgnn.powerlaw import (
    KS_BOUND_STRIDE,
    MAX_XMIN_CANDIDATES,
    DegenerateFitError,
    _alpha_mle,
    _cdf_deviation,
    _ks_distance,
    collect_inter_event_times,
    fit_power_law,
    intimate_window_size,
    sample_power_law,
)
from reference_model import Event, fit_power_law_filtered, from_events


class TestCollectIntervals:
    def test_consecutive_differences(self):
        g = from_events([Event(0, 1, 0.0), Event(0, 1, 1.0), Event(0, 1, 3.0)])
        assert sorted(collect_inter_event_times(g)) == [1.0, 2.0]

    def test_multiset_across_pairs(self):
        g = from_events(
            [Event(0, 1, 0.0), Event(0, 1, 5.0), Event(2, 3, 2.0), Event(2, 3, 3.0)],
            num_nodes=4,
        )
        assert sorted(collect_inter_event_times(g)) == [1.0, 5.0]

    def test_zero_gaps_dropped_with_warning(self, caplog):
        g = from_events([Event(0, 1, 2.0), Event(0, 1, 2.0), Event(0, 1, 4.0)])
        with caplog.at_level(logging.WARNING):
            gaps = collect_inter_event_times(g)
        assert gaps.tolist() == [2.0]
        assert "1 zero inter-event gap" in caplog.text

    def test_no_repeating_pair_is_an_error(self):
        g = from_events([Event(0, 1, 0.0), Event(1, 2, 1.0)], num_nodes=3)
        with pytest.raises(DegenerateFitError):
            collect_inter_event_times(g)


class TestFit:
    def test_forced_xmin_closed_form(self):
        # alpha_hat = 1 + n / sum(ln(x/xmin)) = 1 + 3 / (ln 2 + ln 4)
        alpha = _alpha_mle(np.array([1.0, 2.0, 4.0]), 1.0)
        assert alpha == pytest.approx(1.0 + 3.0 / (math.log(2) + math.log(4)), abs=1e-12)
        assert alpha == pytest.approx(2.4427, abs=1e-3)

    def test_normalization_invariant(self):
        rng = np.random.default_rng(0)
        xs = sample_power_law(500, 2.3, 0.7, rng)
        fit = fit_power_law(xs)
        expected_c = (fit.alpha - 1.0) * fit.xmin ** (1.0 - fit.alpha)
        assert fit.c == pytest.approx(expected_c, rel=1e-12)

    def test_synthetic_recovery(self):
        rng = np.random.default_rng(42)
        xs = sample_power_law(10_000, 2.5, 1.0, rng)
        fit = fit_power_law(xs)
        assert 2.4 <= fit.alpha <= 2.6
        assert fit.xmin <= 2.0  # cutoff found near the true one

    def test_all_equal_is_degenerate(self):
        with pytest.raises(DegenerateFitError):
            fit_power_law([3.0] * 50)

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_ulp_gaps_are_degenerate(self, scale):
        # the exponent runs to about 1e15, so c = (alpha - 1) * xmin^(1 - alpha)
        # overflows below xmin = 1 and underflows to 0 above it
        xs = [scale] * 9 + [float(np.nextafter(scale, 3.0))] * 3
        with pytest.raises(DegenerateFitError, match="overflowed"):
            fit_power_law(xs)

    def test_small_sample_needs_forced_xmin(self):
        with pytest.raises(ValueError, match="at least 10"):
            fit_power_law([1.0, 2.0, 4.0])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0, -2.0, 3.0])

    def test_estimator_consistency_in_sample_size(self):
        # mean |alpha_hat - alpha| shrinks as n grows 1e2 -> 1e3 -> 1e4
        errors = []
        for n in (100, 1000, 10_000):
            errs = []
            for seed in range(8):
                rng = np.random.default_rng(seed)
                xs = sample_power_law(n, 2.5, 1.0, rng)
                errs.append(abs(_alpha_mle(xs, 1.0) - 2.5))
            errors.append(np.mean(errs))
        assert errors[0] > errors[1] > errors[2]


@st.composite
def fit_samples(draw, kinds=("raw", "ceil", "round", "few", "wide", "ulps")):
    """10 to 600 positive samples: power-law draws as drawn, ceil-rounded
    or rounded to 0.1 (which can reach 0), a resample of 1 to 20 values
    (heavy ties, or all equal), draws spanning more than
    MAX_XMIN_CANDIDATES distinct values, or values a few ulps apart."""
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(MAX_XMIN_CANDIDATES + 2, 600) if kind == "wide" else st.integers(10, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alpha, scale = draw(st.floats(1.3, 4.0)), draw(st.sampled_from([0.01, 1.0, 7.0, 300.0]))
    xs = sample_power_law(n, alpha, scale, rng)
    if kind == "ceil":
        xs = np.ceil(xs)
    elif kind == "round":
        xs = np.round(xs, 1)
    elif kind == "few":
        xs = rng.choice(xs[: draw(st.integers(1, 20))], size=n)
    elif kind == "ulps":
        xs = scale + np.spacing(scale) * rng.integers(0, 4, size=n)
    return xs


@settings(derandomize=True, max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fit_samples())
def test_search_matches_filtered_fit(xs):
    """The fit on one sorted sample equals the per-candidate
    filter-and-sort fit of tests/reference_model.py bitwise, or raises
    the same exception with the same message."""
    try:
        want = fit_power_law_filtered(xs)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            fit_power_law(xs)
        assert str(got.value) == str(exc)
    else:
        assert fit_power_law(xs) == want


@pytest.mark.parametrize("rounding", [None, np.ceil], ids=["raw", "ceil"])
@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.5])
def test_long_sample_matches_filtered_fit(alpha, rounding):
    """The bounded search on 20,000 samples, where a bound spans 1,250
    points, equals the oracle that scores every candidate in full."""
    xs = sample_power_law(20_000, alpha, 1.0, np.random.default_rng(7))
    if rounding is not None:
        xs = rounding(xs)
    assert fit_power_law(xs) == fit_power_law_filtered(xs)


@settings(derandomize=True, max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fit_samples(kinds=("raw", "ceil", "round", "few", "wide")))
def test_fit_scales_with_the_sample(xs):
    """Gaps k times larger, as a time unit k times smaller gives, fit with
    k times the cutoff and the window and the same exponent and KS
    distance, all to rtol 1e-12, or fail alike.  Values a few ulps apart
    are left out: their ratios to the cutoff, and so the exponent, are
    rounding noise, which the product by k draws anew."""
    try:
        want = fit_power_law(xs)
    except ValueError as exc:
        for k in (1e-3, 1.0, 3600.0):
            with pytest.raises(type(exc)) as got:
                fit_power_law(k * xs)
            assert str(got.value) == str(exc), k
        return
    window = intimate_window_size(want, 0.5)
    for k in (1e-3, 1.0, 3600.0):
        got = fit_power_law(k * xs)
        # the tolerance stays; a cutoff that wins on rounding alone is named
        tie = math.isclose(got.ks_distance, want.ks_distance, rel_tol=1e-12)
        assert got.n_tail == want.n_tail, (
            f"{'last-bit cutoff tie' if tie else 'another cutoff'} at k = {k}: "
            f"xmin {want.xmin!r} became {got.xmin / k!r}"
        )
        np.testing.assert_allclose(
            [got.xmin, got.alpha, got.ks_distance, intimate_window_size(got, 0.5)],
            [k * want.xmin, want.alpha, want.ks_distance, k * window],
            rtol=1e-12, atol=0, err_msg=f"k = {k}",
        )


def _deviation_calls(xs) -> list[tuple]:
    """(stride, value, tail, alpha, xmin) of each CDF deviation the fit of
    xs computes, in call order."""
    calls = []

    def record(tail, alpha, xmin, stride):
        value = _cdf_deviation(tail, alpha, xmin, stride)
        calls.append((stride, value, tail, alpha, xmin))
        return value

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(powerlaw, "_cdf_deviation", record)
        try:
            fit_power_law(xs)
        except ValueError:
            pass
    return calls


def _assert_bounds_hold(calls) -> None:
    for stride, bound, tail, alpha, xmin in calls:
        if stride == KS_BOUND_STRIDE:
            assert bound <= _ks_distance(tail, alpha, xmin)


@settings(derandomize=True, max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fit_samples())
def test_bound_is_at_most_the_ks_distance(xs):
    _assert_bounds_hold(_deviation_calls(xs))


def test_few_candidates_are_scored_in_full():
    calls = _deviation_calls(sample_power_law(20_000, 2.0, 1.0, np.random.default_rng(3)))
    strides = [call[0] for call in calls]
    assert strides.count(KS_BOUND_STRIDE) == MAX_XMIN_CANDIDATES
    assert 1 <= strides.count(1) < 25
    _assert_bounds_hold(calls)  # on tails of up to 20,000 points


def test_bound_equal_to_the_best_distance_is_scored(monkeypatch):
    """Every KS distance is 0.5, as is every bound but the largest
    cutoff's: the smallest cutoff wins the tie only if a bound equal to
    the best distance does not stop the search."""
    def deviation(tail, alpha, xmin, stride):
        return 0.4 if stride > 1 and xmin == 19.0 else 0.5

    monkeypatch.setattr(powerlaw, "_cdf_deviation", deviation)
    fit = fit_power_law(np.arange(1.0, 21.0))
    assert (fit.xmin, fit.ks_distance) == (1.0, 0.5)


class TestWindowSize:
    def test_p_zero_returns_xmin(self):
        fit = _fit(alpha=2.0, xmin=1.0)
        assert intimate_window_size(fit, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_half_coverage(self):
        fit = _fit(alpha=2.0, xmin=1.0)
        assert intimate_window_size(fit, 0.5) == pytest.approx(2.0, rel=1e-12)

    def test_quarter_tail(self):
        fit = _fit(alpha=3.0, xmin=2.0)
        assert intimate_window_size(fit, 0.75) == pytest.approx(4.0, rel=1e-12)

    def test_p_at_or_above_one_rejected(self):
        fit = _fit(2.0, 1.0)
        with pytest.raises(ValueError):
            intimate_window_size(fit, 1.0)
        with pytest.raises(ValueError):
            intimate_window_size(fit, -0.1)

    def test_matches_inverse_ccdf_identity(self):
        # formula vs the simplified xmin * (1-p)^(-1/(alpha-1)) form
        rng = np.random.default_rng(1)
        for _ in range(1000):
            alpha = float(rng.uniform(1.05, 5.0))
            xmin = float(rng.uniform(1e-3, 1e3))
            p = float(rng.uniform(0.0, 0.999))
            fit = _fit(alpha, xmin)
            expected = xmin * (1.0 - p) ** (-1.0 / (alpha - 1.0))
            assert intimate_window_size(fit, p) == pytest.approx(expected, rel=1e-9)

    def test_strictly_increasing_in_p(self):
        fit = _fit(2.4, 0.5)
        ps = np.linspace(0.0, 0.95, 40)
        ws = [intimate_window_size(fit, p) for p in ps]
        assert all(b > a for a, b in zip(ws, ws[1:]))


def _fit(alpha, xmin):
    from stgnn.powerlaw import PowerLawFit

    c = (alpha - 1.0) * xmin ** (1.0 - alpha)
    return PowerLawFit(alpha=alpha, xmin=xmin, c=c, n_tail=100, ks_distance=0.0)
