"""Tests for the degeneracy fit, dip fit, and visibility prediction."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import stats as sps

from twinbeam.analysis import cell_means
from twinbeam.config import default_config, section
from twinbeam.distributions import TmsvParams
from twinbeam.fitting import (
    FitFailureError,
    fit_degeneracy,
    fit_gaussian_dip,
    predict_visibility,
    propagate_visibility_uncertainty,
)
from twinbeam.simulate import correlation_scan, simulate_hom_run

# Frozen from independent evaluation of 1 - (2 + 1/(2 nu))^(-1).
V_033 = 0.715517241379
V_08 = 0.619047619048
SIGMA_V_033_007 = 0.026010702
SIGMA_V_08_02 = 0.022675737


def lgamma_log_likelihood(hist, mean, m):
    """Fixed-mean negative-binomial log-likelihood through math.lgamma."""
    return math.fsum(
        int(occ) * (math.lgamma(n + m) - math.lgamma(m) - math.lgamma(n + 1.0)
                    - n * math.log1p(m / mean) - m * math.log1p(mean / m))
        for n, occ in enumerate(hist) if occ
    )


def nbinom_histogram(nu, m, n_samples, seed):
    """Count histogram sampled from the M-mode thermal law via scipy."""
    rng = np.random.default_rng(seed)
    samples = sps.nbinom.rvs(m, m / (m + nu), size=n_samples, random_state=rng)
    return np.bincount(samples)


class TestFitDegeneracy:
    def test_recovers_published_mode_count(self):
        hist = nbinom_histogram(2.8, 5.6, 1876 * 18, seed=42)
        fit = fit_degeneracy(hist, fixed_mean=2.8)
        assert abs(fit.degeneracy - 5.6) < 2 * fit.std_err
        assert not fit.at_bound

    def test_error_scale_at_published_sample_size(self):
        hist = nbinom_histogram(2.8, 5.6, 1876, seed=3)
        fit = fit_degeneracy(hist, fixed_mean=2.8)
        # Same order as the published +/- 0.7.
        assert 0.7 / 3 < fit.std_err < 0.7 * 3

    def test_single_thermal_mode_gives_unit_mode_count(self):
        rng = np.random.default_rng(11)
        samples = rng.geometric(1 / (1 + 2.8), size=20000) - 1
        fit = fit_degeneracy(np.bincount(samples), fixed_mean=2.8)
        assert abs(fit.degeneracy - 1.0) < 2 * fit.std_err

    def test_poisson_data_flagged_at_bound(self):
        # Sample variance below the mean: the likelihood rises toward the
        # large-M (Poisson) limit, so the fit pins at the expanded edge.
        rng = np.random.default_rng(7)
        samples = rng.poisson(2.8, size=20000)
        hist = np.bincount(samples)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit = fit_degeneracy(hist, fixed_mean=2.8)
        assert fit.at_bound
        assert fit.degeneracy > 1e3

    def test_consistency_error_shrinks_with_sample_size(self):
        sizes = (1000, 10000, 100000)
        medians = []
        for size in sizes:
            errors = []
            for seed in range(20):
                hist = nbinom_histogram(2.8, 5.6, size, seed=seed)
                fit = fit_degeneracy(hist, fixed_mean=2.8)
                errors.append(abs(fit.degeneracy - 5.6))
            medians.append(np.median(errors))
        assert medians[0] > medians[1] > medians[2]

    def test_degenerate_histogram_rejected(self):
        hist = np.array([100])
        with pytest.raises(FitFailureError):
            fit_degeneracy(hist, fixed_mean=1.0)

    def test_nonpositive_mean_rejected(self):
        hist = np.array([5, 5])
        with pytest.raises(ValueError):
            fit_degeneracy(hist, fixed_mean=0.0)

    def test_large_interior_mode_count_is_not_at_bound(self):
        # Variance above the mean, and the likelihood peaks near M = 330: a
        # maximum this flat was once taken for the Poisson-limit plateau.
        rng = np.random.default_rng(112)
        hist = np.bincount(rng.negative_binomial(300.0, 300.0 / 301.0, 2000))
        counts = np.repeat(np.arange(len(hist)), hist)
        assert counts.var() > counts.mean()
        fit = fit_degeneracy(hist, fixed_mean=cell_means(hist))
        assert not fit.at_bound
        assert 100 < fit.degeneracy < 1000
        ll_hat = lgamma_log_likelihood(hist, cell_means(hist), fit.degeneracy)
        for step in (0.99, 1.01):
            assert lgamma_log_likelihood(hist, cell_means(hist), fit.degeneracy * step) < ll_hat

    def test_std_err_is_the_likelihood_curvature(self):
        hist = nbinom_histogram(2.8, 5.6, 1876 * 18, seed=42)
        fit = fit_degeneracy(hist, fixed_mean=2.8)
        m, h = fit.degeneracy, 1e-3 * fit.degeneracy
        curvature = (
            lgamma_log_likelihood(hist, 2.8, m + h)
            - 2.0 * lgamma_log_likelihood(hist, 2.8, m)
            + lgamma_log_likelihood(hist, 2.8, m - h)
        ) / h**2
        assert fit.std_err == pytest.approx(1.0 / math.sqrt(-curvature), rel=1e-4)

    @pytest.mark.parametrize("seed", range(12))
    def test_at_bound_exactly_when_variance_at_most_mean(self, seed):
        # Levin & Reeds (1977): at the sample mean the likelihood has an
        # interior maximum exactly when the sample variance exceeds the mean.
        # Seeds 1, 6, 8 and 11 draw a variance above the mean, the rest not.
        rng = np.random.default_rng(seed)
        counts = rng.negative_binomial(400.0, 400.0 / 401.0, 300)
        hist = np.bincount(counts)
        fit = fit_degeneracy(hist, fixed_mean=cell_means(hist))
        assert fit.at_bound == (counts.var() <= counts.mean())

    def test_strict_fit_raises_without_a_root(self):
        hist = np.bincount(np.random.default_rng(7).poisson(2.8, 20000))
        assert fit_degeneracy(hist, fixed_mean=cell_means(hist)).at_bound

    def test_emits_no_warning(self):
        poisson = np.bincount(np.random.default_rng(7).poisson(2.8, 20000))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit_degeneracy(poisson, fixed_mean=2.8)
            fit_degeneracy(nbinom_histogram(2.8, 5.6, 1876, seed=3), 2.8)

    @pytest.mark.parametrize(
        "occurrences", [[], [[3, 2], [1, 0]], [3.0, 2.0], [3, -1, 2], [True, False]]
    )
    def test_malformed_occurrences_rejected(self, occurrences):
        with pytest.raises(ValueError, match="occurrences"):
            fit_degeneracy(np.array(occurrences), fixed_mean=1.0)


class TestPredictVisibility:
    def test_present_work_value(self):
        assert predict_visibility(TmsvParams(nu=0.33)) == pytest.approx(V_033, abs=1e-9)
        assert round(predict_visibility(TmsvParams(nu=0.33)), 2) == 0.72

    def test_earlier_experiment_value(self):
        assert predict_visibility(TmsvParams(nu=0.8)) == pytest.approx(V_08, abs=1e-9)
        assert round(predict_visibility(TmsvParams(nu=0.8)), 2) == 0.62

    def test_small_occupation_limit(self):
        assert predict_visibility(TmsvParams(nu=1e-9)) == pytest.approx(1.0, abs=1e-8)

    def test_vacuum_rejected(self):
        with pytest.raises(ValueError):
            predict_visibility(TmsvParams(nu=0.0))

    def test_strictly_decreasing_and_bounded(self):
        # Falls from 1 toward 1/2, always inside (1/2, 1).
        nus = np.logspace(-4, 4, 60)
        values = np.array([predict_visibility(TmsvParams(nu=float(n))) for n in nus])
        assert np.all(np.diff(values) < 0)
        assert np.all(values > 0.5)
        assert np.all(values < 1.0)


class TestPropagateVisibilityUncertainty:
    def test_present_work_row(self):
        pred = propagate_visibility_uncertainty(0.33, 0.07)
        assert round(pred.v_pred, 2) == 0.72
        assert pred.v_std == pytest.approx(SIGMA_V_033_007, abs=1e-6)

    def test_earlier_experiment_row(self):
        pred = propagate_visibility_uncertainty(0.8, 0.2)
        assert round(pred.v_pred, 2) == 0.62
        assert round(pred.v_std, 2) == 0.02
        assert pred.v_std == pytest.approx(SIGMA_V_08_02, abs=1e-6)

    def test_zero_std(self):
        pred = propagate_visibility_uncertainty(0.33, 0.0)
        assert pred.v_std == 0.0
        assert pred.v_band == (pred.v_pred, pred.v_pred)
        assert pred.v_pred == pytest.approx(V_033, abs=1e-9)

    def test_band_present_work_row(self):
        # V(0.40) = 9/13 and V(0.26) = 38/51.
        band = propagate_visibility_uncertainty(0.33, 0.07).v_band
        assert band == pytest.approx((9 / 13, 38 / 51), abs=1e-12)
        assert [round(v, 7) for v in band] == [0.6923077, 0.7450980]

    def test_band_earlier_experiment_row(self):
        # V(1.0) = 3/5 and V(0.6) = 11/17: the delta method's 0.02 is
        # narrower than the band's upper half-width.
        pred = propagate_visibility_uncertainty(0.8, 0.2)
        assert pred.v_band == pytest.approx((0.6, 11 / 17), abs=1e-12)
        assert pred.v_band[1] - pred.v_pred > pred.v_std

    @pytest.mark.parametrize("nu, nu_std", [(0.1, 0.2), (0.2, 0.2)])
    def test_band_reaches_one_where_nu_minus_std_is_not_positive(self, nu, nu_std):
        low, high = propagate_visibility_uncertainty(nu, nu_std).v_band
        assert high == 1.0
        assert low == pytest.approx(predict_visibility(TmsvParams(nu=nu + nu_std)), abs=1e-15)

    def test_nonpositive_nu_rejected(self):
        with pytest.raises(ValueError):
            propagate_visibility_uncertainty(0.0, 0.1)


def dip_points(baseline, visibility, t0, sigma, t_values, err, rng=None):
    t_values = np.asarray(t_values, dtype=float)
    model = baseline * (1 - visibility * np.exp(-((t_values - t0) ** 2) / (2 * sigma**2)))
    noise = 0.0 if rng is None else rng.normal(0.0, err, len(t_values))
    return np.column_stack([t_values, model + noise, np.full(len(t_values), err)])


class TestFitGaussianDip:
    def test_noiseless_exact_recovery(self):
        t = np.linspace(-260, 260, 15)
        points = dip_points(0.38, 0.78, 12.0, 86.0, t, err=0.01)
        fit = fit_gaussian_dip(points)
        assert abs(fit.visibility - 0.78) / 0.78 < 1e-6
        assert abs(fit.t0 - 12.0) < 86.0 * 1e-6
        assert abs(fit.sigma - 86.0) / 86.0 < 1e-6
        assert abs(fit.baseline - 0.38) / 0.38 < 1e-6
        assert fit.at_bound == ()
        assert fit.converged

    def test_visibility_above_one_stops_at_bound(self):
        # A dip deeper than its baseline asks for V = 1.3; the fit holds V = 1.
        t = np.linspace(-260, 260, 15)
        points = dip_points(0.38, 1.3, 12.0, 86.0, t, err=0.01)
        fit = fit_gaussian_dip(points)
        assert fit.visibility == 1.0
        assert "visibility" in fit.at_bound
        assert not fit.converged
        assert list(dataclasses.asdict(fit)["at_bound"]) == list(fit.at_bound)

    def test_too_few_distinct_t2_rejected(self):
        t = [-100.0, -100.0, 0.0, 0.0, 100.0, 100.0]
        with pytest.raises(ValueError, match="distinct t2"):
            fit_gaussian_dip(dip_points(1.0, 0.5, 0.0, 50.0, t, err=0.1))

    def test_noiseless_residual_floor(self):
        t = np.linspace(-300, 300, 21)
        points = dip_points(1.0, 0.5, 0.0, 100.0, t, err=1.0)
        fit = fit_gaussian_dip(points)
        residual = points[:, 1] - fit.model(points[:, 0])
        assert np.max(np.abs(residual)) < 1e-10

    def test_noisy_recovery_within_errors(self):
        rng = np.random.default_rng(7)
        t = np.linspace(-260, 260, 13)
        points = dip_points(0.38, 0.72, 0.0, 61.0, t, err=0.012, rng=rng)
        fit = fit_gaussian_dip(points)
        assert abs(fit.visibility - 0.72) < 3 * fit.visibility_err
        assert fit.visibility_err > 0

    def test_error_scale_at_published_statistics(self):
        # Noise tuned to ~800 shots/point produces an uncertainty of the
        # order of the published +/- 0.06.
        rng = np.random.default_rng(21)
        t = np.linspace(-260, 260, 13)
        points = dip_points(0.38, 0.78, 0.0, 61.0, t, err=0.022, rng=rng)
        fit = fit_gaussian_dip(points)
        assert 0.06 / 3 < fit.visibility_err < 0.06 * 3

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_gaussian_dip(dip_points(1.0, 0.5, 0.0, 50.0, [0, 1, 2, 3], err=0.1))

    def test_nonpositive_errors_rejected(self):
        points = dip_points(1.0, 0.5, 0.0, 50.0, np.linspace(-100, 100, 9), err=0.1)
        points[3, 2] = 0.0
        with pytest.raises(ValueError):
            fit_gaussian_dip(points)

    def test_flat_data_fails_cleanly(self):
        rng = np.random.default_rng(3)
        t = np.linspace(-100, 100, 11)
        points = np.column_stack([t, rng.normal(1.0, 1e-4, 11), np.full(11, 1e-4)])
        try:
            fit = fit_gaussian_dip(points)
        except FitFailureError as exc:
            assert exc.diagnostics
        else:
            # A flat scan is consistent with zero visibility.
            assert fit.visibility < 0.05

    def test_model_evaluation_matches_parameters(self):
        t = np.linspace(-200, 200, 11)
        points = dip_points(0.5, 0.6, 0.0, 80.0, t, err=0.01)
        fit = fit_gaussian_dip(points)
        assert fit.model(np.array([0.0]))[0] == pytest.approx(0.5 * (1 - 0.6), rel=1e-6)


@pytest.fixture(scope="module")
def default_seed_scans():
    """Scans of the shipped ``hom`` section on seeds 1-12."""
    doc = default_config()
    return {
        seed: np.asarray(correlation_scan(simulate_hom_run(section(doc, "hom", seed))))
        for seed in range(1, 13)
    }


@pytest.mark.parametrize("seed", range(1, 13))
def test_default_seed_dip_fit_stays_in_bounds(default_seed_scans, seed):
    # An unbounded fit failed on seeds 1, 2 and 12 and pushed V above 1 on 8.
    points = default_seed_scans[seed]
    fit = fit_gaussian_dip(points)
    t2 = np.unique(points[:, 0])
    assert 0.0 <= fit.visibility <= 1.0
    assert np.diff(t2).min() / 2 * (1 - 1e-12) <= fit.sigma <= (t2[-1] - t2[0]) * (1 + 1e-12)
    assert t2[0] <= fit.t0 <= t2[-1]
