import logging
import math

import numpy as np
import pytest

from stgnn.powerlaw import (
    DegenerateFitError,
    collect_inter_event_times,
    fit_power_law,
    intimate_window_size,
    sample_power_law,
)
from reference_model import Event, from_events


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
        fit = fit_power_law([1.0, 2.0, 4.0], xmin=1.0)
        assert fit.alpha == pytest.approx(1.0 + 3.0 / (math.log(2) + math.log(4)), abs=1e-12)
        assert fit.alpha == pytest.approx(2.4427, abs=1e-3)
        assert fit.n_tail == 3

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
                errs.append(abs(fit_power_law(xs, xmin=1.0).alpha - 2.5))
            errors.append(np.mean(errs))
        assert errors[0] > errors[1] > errors[2]


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
