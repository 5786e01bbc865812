"""Tests for the closed-form counting distributions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from fock_reference import detected_mean, pmf_moments
from twinbeam.distributions import (
    DetectorModel,
    _binomial_pmf,
    TAIL_TOLERANCE,
    Pmf,
    TmsvParams,
    binomial_thin,
    multimode_log_pmf,
    multimode_pmf,
    poisson_pmf,
    thermal_pmf,
)
from twinbeam.fock import OverlapModel, hom_joint_pmf

# Values frozen from independent high-precision evaluation (mpmath, 40 digits).
THERMAL_P0_0158 = 0.863557858377
THERMAL_P2_0158 = 0.0160763886104
MULTIMODE_P0_28_56 = 0.10324973586
POISSON_P0_0158 = 0.853849781968
POISSON_P1_28 = 0.170268175351


class TestTmsvParams:
    def test_nu_to_alpha_roundtrip(self):
        p = TmsvParams(nu=0.5)
        assert math.isclose(p.alpha_mag**2 / (1 - p.alpha_mag**2), 0.5, rel_tol=1e-12)

    def test_negative_nu_rejected(self):
        with pytest.raises(ValueError):
            TmsvParams(nu=-0.1)

    @pytest.mark.parametrize("field", ["nu"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, bad):
        with pytest.raises(ValueError, match="finite"):
            TmsvParams(**{field: bad})


@pytest.mark.parametrize(
    "cls,field,bad",
    [
        *((TmsvParams, "nu", bad) for bad in (True, math.nan, math.inf, -0.1)),
        *((DetectorModel, "eta", bad) for bad in (True, math.nan, math.inf, -0.1, 1.1)),
        *((OverlapModel, "lam", bad) for bad in (True, math.nan, math.inf, -0.1, 1.1)),
    ],
)
def test_value_type_rejects_bad_field(cls, field, bad):
    # A bool used to pass as 1 in all three.
    with pytest.raises(ValueError, match=rf"^{field} must be a finite number"):
        cls(**{field: bad})


class TestThermalPmf:
    def test_p0_at_measured_mean(self):
        assert thermal_pmf(0.158, 0).probs[0] == pytest.approx(THERMAL_P0_0158, abs=1e-10)

    def test_empty_mode(self):
        assert np.array_equal(thermal_pmf(0.0, 5).probs, [1, 0, 0, 0, 0, 0])

    def test_p2_at_measured_mean(self):
        assert thermal_pmf(0.158, 2).probs[2] == pytest.approx(THERMAL_P2_0158, abs=1e-10)

    @pytest.mark.parametrize("nu", [0.1, 0.158, 0.8, 2.8])
    def test_matches_geometric_law(self, nu):
        pmf = thermal_pmf(nu, 40)
        ref = sps.geom.pmf(np.arange(1, 42), 1.0 / (1.0 + nu))
        assert np.max(np.abs(pmf.probs - ref)) < 1e-14

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            thermal_pmf(-0.1)

    @given(st.floats(min_value=1e-3, max_value=20.0))
    @settings(max_examples=50, deadline=None)
    def test_tail_rule_normalization(self, nu):
        pmf = thermal_pmf(nu)
        assert 1.0 - 1e-10 <= pmf.total <= 1.0 + 1e-12

    def test_tail_rule_normalization_on_dense_grid(self):
        # The grid holds occupations where the unmargined rule lost more
        # than the allowance to rounding (e.g. nu = 16.4858...).
        nus = np.concatenate([np.linspace(1e-3, 20.0, 20_000), np.geomspace(20.0, 200.0, 2_000)])
        totals = np.array([thermal_pmf(float(nu)).total for nu in nus])
        assert totals.min() >= 1.0 - TAIL_TOLERANCE
        assert totals.max() <= 1.0 + 1e-12


class TestMultimodePmf:
    @pytest.mark.parametrize("nu", [0.1, 0.158, 2.8])
    def test_reduces_to_thermal_at_one_mode(self, nu):
        a = multimode_pmf(nu, 1.0, 30).probs
        b = thermal_pmf(nu, 30).probs
        assert np.max(np.abs(a - b)) < 1e-12

    def test_p0_at_pooled_mean(self):
        assert multimode_pmf(2.8, 5.6, 0).probs[0] == pytest.approx(
            MULTIMODE_P0_28_56, abs=1e-9
        )

    def test_poisson_limit_at_large_mode_number(self):
        assert multimode_pmf(0.158, 10000.0, 0).probs[0] == pytest.approx(
            math.exp(-0.158), abs=1e-4
        )

    @pytest.mark.parametrize("nu", [0.158, 2.8])
    def test_poisson_distance_shrinks_with_mode_number(self, nu):
        pois = poisson_pmf(nu, 40).probs
        d10 = np.max(np.abs(multimode_pmf(nu, 10.0, 40).probs - pois))
        d10000 = np.max(np.abs(multimode_pmf(nu, 10000.0, 40).probs - pois))
        assert d10000 < d10

    @pytest.mark.parametrize("nu,m", [(0.5, 2.0), (2.8, 5.6), (1.3, 0.7)])
    def test_matches_negative_binomial(self, nu, m):
        # Same law as NB(size=m, p=m/(m+nu)); scipy is the independent route.
        pmf = multimode_pmf(nu, m, 60)
        ref = sps.nbinom.pmf(np.arange(61), m, m / (m + nu))
        assert np.max(np.abs(pmf.probs - ref)) < 1e-12

    def test_zero_mean_returns_point_mass(self):
        assert np.array_equal(multimode_pmf(0.0, 5.6, 3).probs, [1, 0, 0, 0])

    def test_default_support_equals_isf_rule(self):
        # scipy.stats is the independent reference for the tail search.
        rng = np.random.default_rng(11)
        nus = np.exp(rng.uniform(math.log(1e-3), math.log(20.0), 400))
        ms = np.exp(rng.uniform(math.log(0.05), math.log(100.0), 400))
        for nu, m in zip(nus.tolist(), ms.tolist()):
            expected = int(sps.nbinom.isf(TAIL_TOLERANCE, m, m / (m + nu))) + 2
            assert multimode_pmf(nu, m).n_max == expected, (nu, m)

    def test_non_integer_mode_number_supported(self):
        pmf = multimode_pmf(1.0, 2.5, 50)
        assert pmf.total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_mode_number_rejected(self, bad):
        with pytest.raises(ValueError):
            multimode_pmf(1.0, bad)

    def test_large_occupations_stay_finite(self):
        # n + M far beyond the range where the gamma function overflows.
        pmf = multimode_pmf(50.0, 300.0, 800)
        assert np.all(np.isfinite(pmf.probs))
        assert pmf.total == pytest.approx(1.0, abs=1e-9)


class TestPoissonPmf:
    def test_p0_at_measured_mean(self):
        assert poisson_pmf(0.158, 0).probs[0] == pytest.approx(POISSON_P0_0158, abs=1e-10)

    def test_zero_mean(self):
        assert np.array_equal(poisson_pmf(0.0, 3).probs, [1, 0, 0, 0])

    def test_p1_at_pooled_mean(self):
        assert poisson_pmf(2.8, 1).probs[1] == pytest.approx(POISSON_P1_28, abs=1e-10)

    def test_matches_scipy(self):
        pmf = poisson_pmf(2.8, 40)
        assert np.max(np.abs(pmf.probs - sps.poisson.pmf(np.arange(41), 2.8))) < 1e-13

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            poisson_pmf(-1.0)

    def test_default_support_equals_isf_rule(self):
        rng = np.random.default_rng(12)
        for mean in np.exp(rng.uniform(math.log(1e-3), math.log(500.0), 400)).tolist():
            expected = int(sps.poisson.isf(TAIL_TOLERANCE, mean)) + 2
            assert poisson_pmf(mean).n_max == expected, mean


class TestDetectedMean:
    def test_quarter_efficiency(self):
        assert detected_mean(0.632, DetectorModel(eta=0.25)) == pytest.approx(0.158)

    def test_perfect_detector(self):
        assert detected_mean(1.7, DetectorModel(eta=1.0)) == 1.7

    def test_blind_detector(self):
        assert detected_mean(1.7, DetectorModel(eta=0.0)) == 0.0

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_eta_domain(self, bad):
        with pytest.raises(ValueError):
            DetectorModel(eta=bad)


def _thin_brute_force(probs, eta):
    # Independent route: direct double sum over the thinning kernel.
    out = np.zeros_like(probs)
    for k in range(len(probs)):
        for n in range(k, len(probs)):
            out[k] += probs[n] * math.comb(n, k) * eta**k * (1 - eta) ** (n - k)
    return out


class TestBinomialThin:
    def test_thermal_closure_at_quarter_efficiency(self):
        thinned = binomial_thin(thermal_pmf(0.632, 60), DetectorModel(eta=0.25))
        ref = thermal_pmf(0.158, 60)
        assert np.max(np.abs(thinned.probs - ref.probs)) < 1e-9

    def test_identity_at_unit_efficiency(self):
        pmf = multimode_pmf(2.8, 5.6, 40)
        thinned = binomial_thin(pmf, DetectorModel(eta=1.0))
        assert np.array_equal(thinned.probs, pmf.probs)

    def test_point_mass_at_zero_efficiency(self):
        pmf = multimode_pmf(2.8, 5.6, 40)
        thinned = binomial_thin(pmf, DetectorModel(eta=0.0))
        assert thinned.probs[0] == pytest.approx(pmf.total, abs=1e-15)
        assert not thinned.probs[1:].any()

    def test_point_mass_splits_binomially(self):
        point = Pmf(probs=np.array([0.0, 0.0, 1.0, 0.0]))
        thinned = binomial_thin(point, DetectorModel(eta=0.5))
        assert np.allclose(thinned.probs, [0.25, 0.5, 0.25, 0.0], atol=1e-15)

    def test_against_brute_force(self):
        pmf = multimode_pmf(1.2, 3.3, 25)
        thinned = binomial_thin(pmf, DetectorModel(eta=0.37))
        assert np.max(np.abs(thinned.probs - _thin_brute_force(pmf.probs, 0.37))) < 1e-13

    @given(
        st.floats(min_value=0.01, max_value=3.0),
        st.sampled_from([0.1, 0.25, 0.5, 1.0]),
    )
    @settings(max_examples=30, deadline=None)
    def test_thermal_closure_property(self, nu, eta):
        # Tail-rule support keeps the truncation leak below the tolerance.
        pmf = thermal_pmf(nu)
        thinned = binomial_thin(pmf, DetectorModel(eta=eta))
        ref = thermal_pmf(eta * nu, pmf.n_max)
        assert np.max(np.abs(thinned.probs - ref.probs)) < 1e-9


class TestLargeArguments:
    """The ratio-product kernels against scipy.stats where n + M > 170.

    Bound: relative 1e-10 wherever the reference exceeds 1e-280, and
    below 1e-270 elsewhere (the kernels sum about n logs, so their
    relative error grows with n; 2e-11 was the largest seen here).
    """

    @staticmethod
    def assert_close(got, ref):
        big = ref > 1e-280
        assert np.all(np.abs(got[big] - ref[big]) <= 1e-10 * ref[big])
        assert np.all(got[~big] < 1e-270)

    @pytest.mark.parametrize("n", [171, 600, 2400])
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    def test_binomial_kernel(self, n, p):
        k = np.arange(n + 3)
        self.assert_close(_binomial_pmf(k, n, p), sps.binom.pmf(k, n, p))

    @pytest.mark.parametrize(
        "nu,m,n_max", [(50.0, 300.0, 800), (100.0, 150.0, 1500), (300.0, 2.0, None), (5.0, 400.0, None)]
    )
    def test_multimode_law(self, nu, m, n_max):
        pmf = multimode_pmf(nu, m, n_max)
        assert pmf.n_max + m > 170
        self.assert_close(pmf.probs, sps.nbinom.pmf(np.arange(pmf.n_max + 1), m, m / (m + nu)))

    @pytest.mark.parametrize("mean,n_max", [(200.0, None), (1000.0, 2000), (150.0, 1200)])
    def test_poisson_law(self, mean, n_max):
        pmf = poisson_pmf(mean, n_max)
        self.assert_close(pmf.probs, sps.poisson.pmf(np.arange(pmf.n_max + 1), mean))

    @pytest.mark.parametrize("law,args", [(multimode_pmf, (20.0, 0.3)), (poisson_pmf, (300.0,))])
    def test_default_support_is_the_explicit_law_cut_short(self, law, args):
        default = law(*args)
        assert np.array_equal(default.probs, law(*args, default.n_max).probs)


class TestMoments:
    def test_thermal_moments(self):
        mean, var = pmf_moments(thermal_pmf(0.158, 60))
        assert mean == pytest.approx(0.158, abs=1e-9)
        assert var == pytest.approx(0.158 * 1.158, abs=1e-9)

    def test_multimode_variance_identity(self):
        mean, var = pmf_moments(multimode_pmf(2.8, 5.6, 200))
        assert mean == pytest.approx(2.8, abs=1e-9)
        assert var == pytest.approx(2.8 * (1 + 2.8 / 5.6), abs=1e-8)

    def test_point_mass_at_zero(self):
        assert pmf_moments(thermal_pmf(0.0, 4)) == (0.0, 0.0)


class TestPmfValue:
    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError):
            Pmf(probs=np.array([0.5, -0.1]))

    def test_rejects_super_unit_total(self):
        with pytest.raises(ValueError):
            Pmf(probs=np.array([0.9, 0.9]))

    def test_rejects_nan_probability(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Pmf(probs=np.array([math.nan, 0.5]))

    def test_holds_a_joint_table(self):
        joint = Pmf(probs=np.full((3, 2), 0.1))
        assert joint.probs.shape == (3, 2)
        assert joint.n_max == 2 == len(joint.probs) - 1
        assert joint.truncation_loss == pytest.approx(0.4, abs=1e-15)

    @pytest.mark.parametrize("probs", [0.5, np.full((2, 2, 2), 0.1)], ids=["0-d", "3-d"])
    def test_rejects_other_shapes(self, probs):
        with pytest.raises(ValueError, match="1-D law or a 2-D joint table"):
            Pmf(probs=probs)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: thermal_pmf(3.0, 5),
            lambda: binomial_thin(thermal_pmf(3.0, 5), DetectorModel(eta=0.4)),
            lambda: hom_joint_pmf(TmsvParams(nu=3.0), OverlapModel(0.5), n_max=5),
        ],
        ids=["thermal_pmf", "binomial_thin", "hom_joint_pmf"],
    )
    def test_truncation_loss_is_the_mass_beyond_an_explicit_support(self, make):
        # Each law keeps 0 .. 5 quanta (pairs) of nu = 3; x**6 = 0.75**6 is beyond.
        pmf = make()
        assert pmf.truncation_loss == 1.0 - pmf.total
        assert pmf.truncation_loss == pytest.approx(0.75**6, rel=1e-12)

    def test_probs_are_read_only(self):
        pmf = thermal_pmf(0.5, 10)
        with pytest.raises(ValueError):
            pmf.probs[0] = 0.0


@pytest.mark.parametrize("n_max", [-1, 2.5, 3.0, "4"])
@pytest.mark.parametrize(
    "law,args",
    [(thermal_pmf, (0.33,)), (thermal_pmf, (0.0,)), (poisson_pmf, (1.0,)), (poisson_pmf, (0.0,)),
     (multimode_pmf, (1.0, 2.0))],
)
def test_bad_n_max_rejected(law, args, n_max):
    # A float support used to pass as a length (3.0) or fail inside numpy.
    with pytest.raises(ValueError, match=r"^n_max must be an integer >= 0, got "):
        law(*args, n_max)


class TestNonFiniteParameters:
    """Each law rejects a NaN or infinite parameter and names it."""

    @pytest.mark.parametrize(
        "law,args,name",
        [
            (multimode_pmf, (math.nan, 2.0), "nu"),
            (multimode_pmf, (1.0, math.nan), "big_m"),
            (multimode_pmf, (math.inf, 2.0), "nu"),
            (multimode_pmf, (1.0, math.inf), "big_m"),
            (multimode_log_pmf, (math.nan, 2.0, np.arange(4)), "nu"),
            (multimode_log_pmf, (1.0, math.inf, np.arange(4)), "big_m"),
            (poisson_pmf, (math.nan,), "mean"),
            (poisson_pmf, (math.inf,), "mean"),
            (thermal_pmf, (math.nan, 5), "nu"),
            (thermal_pmf, (math.nan,), "nu"),
            (thermal_pmf, (math.inf, 5), "nu"),
            (detected_mean, (math.nan, DetectorModel(0.5)), "nu"),
            (detected_mean, (math.inf, DetectorModel(0.5)), "nu"),
        ],
    )
    def test_rejected_with_its_name(self, law, args, name):
        with pytest.raises(ValueError, match=rf"^{name} .*finite"):
            law(*args)
