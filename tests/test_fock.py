"""Tests for the truncated-Fock-space calculator."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import gammaln

from fock_reference import (
    TruncatedPureState,
    beamsplitter,
    build_tmsv,
    hom_joint_pmf_reference,
    joint_counts,
    marginal_counts,
)
from twinbeam import fock
from twinbeam.distributions import TAIL_TOLERANCE, Pmf, TmsvParams, _binomial_pmf, thermal_pmf
from twinbeam.fock import (
    OverlapModel,
    UndefinedVisibilityError,
    _central_binomials,
    _half_binomial_pmf,
    _paired_split_pmf,
    _splitter_blocks,
    check_basis_size,
    cross_correlation,
    hom_basis,
    hom_joint_pmf,
    hom_n_max,
    thermal_input_visibility,
    visibility_oracle,
)


def formula_visibility(nu):
    return 1.0 - 1.0 / (2.0 + 1.0 / (2.0 * nu))


def fock_state(occupations, n_max):
    """Dense state with a single occupied basis vector."""
    k = len(occupations)
    amps = np.zeros((n_max + 1,) * k, dtype=complex)
    amps[tuple(occupations)] = 1.0
    return TruncatedPureState(mode_count=k, n_max=n_max, amplitudes=amps)


def splitter_block(total, theta):
    """The real block of ``total`` atoms, the last one the recursion yields."""
    for block in _splitter_blocks(total, theta):
        pass
    return block


def complex_block(total, theta):
    """The complex splitter block through the phase ``i^(m - m')``."""
    m = np.arange(total + 1)
    return splitter_block(total, theta) * np.array([1, 1j, -1, -1j])[(m - m[:, None]) % 4]


def expm_block(total, theta):
    """Independent reference: ``exp(i theta K)`` with ``K = a^dag b + b^dag a``."""
    m = np.arange(total)
    k = np.diag(np.sqrt((m + 1.0) * (total - m)), 1)
    return expm(1j * theta * (k + k.T))


def splitter_column_oracle(n1, n2):
    """Independent route to the splitter amplitudes for input |n1, n2>.

    Expands ((a + ib)/sqrt2)^n1 ((ia + b)/sqrt2)^n2 by direct polynomial
    convolution of the binomial strings and normalizes each |m, N-m>
    coefficient.  Only used at small n where the float convolution is
    exact to machine precision.
    """
    a_coeffs = np.array(
        [math.comb(n1, j) * 1j ** (n1 - j) for j in range(n1 + 1)], dtype=complex
    )
    b_coeffs = np.array(
        [math.comb(n2, k) * 1j**k for k in range(n2 + 1)], dtype=complex
    )
    conv = np.convolve(a_coeffs, b_coeffs)
    total = n1 + n2
    norm = np.array(
        [
            math.exp(
                0.5
                * (
                    math.lgamma(m + 1)
                    + math.lgamma(total - m + 1)
                    - math.lgamma(n1 + 1)
                    - math.lgamma(n2 + 1)
                )
            )
            for m in range(total + 1)
        ]
    )
    return conv * norm / 2 ** (total / 2.0)


class TestBuildTmsv:
    def test_vacuum(self):
        state = build_tmsv(TmsvParams(nu=0.0), 5)
        assert state.amplitudes[0, 0] == 1.0
        assert state.norm_squared == pytest.approx(1.0)

    def test_mean_occupation(self):
        state = build_tmsv(TmsvParams(nu=0.5), 40)
        mean, _ = np.arange(41) @ np.abs(state.amplitudes) ** 2 @ np.ones(41), None
        assert float(mean.sum()) == pytest.approx(0.5, abs=1e-9)

    def test_only_paired_occupations(self):
        state = build_tmsv(TmsvParams(nu=0.5), 10)
        off_diag = state.amplitudes - np.diag(np.diag(state.amplitudes))
        assert np.all(off_diag == 0)
        assert state.amplitudes[1, 0] == 0.0

    def test_truncation_loss_reported(self):
        state = build_tmsv(TmsvParams(nu=0.5), 3)
        x = 0.5 / 1.5
        assert state.truncation_loss == pytest.approx(x**4, rel=1e-9)


class TestMarginalCounts:
    @pytest.mark.parametrize("nu", [0.1, 0.33, 0.8])
    def test_marginal_is_thermal(self, nu):
        state = build_tmsv(TmsvParams(nu=nu), 40)
        for mode in (0, 1):
            marg = marginal_counts(state, mode)
            ref = thermal_pmf(nu, 40)
            assert np.max(np.abs(marg.probs - ref.probs)) < 1e-10

    def test_vacuum_marginal(self):
        marg = marginal_counts(fock_state((0, 0), 4), 0)
        assert np.array_equal(marg.probs, [1, 0, 0, 0, 0])

    def test_p0_at_measured_mean(self):
        marg = marginal_counts(build_tmsv(TmsvParams(nu=0.158), 40), 1)
        assert marg.probs[0] == pytest.approx(0.863557858377, abs=1e-10)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            marginal_counts(fock_state((0, 0), 2), 2)


class TestBeamsplitter:
    def test_pair_coalescence(self):
        out = beamsplitter(fock_state((1, 1), 2), 0, 1)
        joint = joint_counts(out, (0,), (1,))
        assert joint.probs[1, 1] == pytest.approx(0.0, abs=1e-12)
        assert joint.probs[2, 0] == pytest.approx(0.5, abs=1e-12)
        assert joint.probs[0, 2] == pytest.approx(0.5, abs=1e-12)

    def test_single_atom_splits_evenly(self):
        out = beamsplitter(fock_state((1, 0), 1), 0, 1)
        joint = joint_counts(out, (0,), (1,))
        assert joint.probs[1, 0] == pytest.approx(0.5, abs=1e-12)
        assert joint.probs[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_norm_preserved_for_pair_source(self):
        state = build_tmsv(TmsvParams(nu=0.33), 40)
        out = beamsplitter(state, 0, 1)
        assert out.norm_squared >= 1.0 - 1e-8

    def test_energy_conserved(self):
        state = build_tmsv(TmsvParams(nu=0.33), 30)
        out = beamsplitter(state, 0, 1)
        n = np.arange(31)
        before = np.abs(state.amplitudes) ** 2
        after = np.abs(out.amplitudes) ** 2
        total_before = float((before * (n[:, None] + n[None, :])).sum())
        total_after = float((after * (n[:, None] + n[None, :])).sum())
        assert total_after == pytest.approx(total_before, abs=1e-8)

    @pytest.mark.parametrize("n1,n2", [(1, 0), (1, 1), (2, 1), (3, 2), (4, 4)])
    def test_against_polynomial_expansion(self, n1, n2):
        total = n1 + n2
        column = complex_block(total, math.pi / 4.0)[:, n1]
        oracle = splitter_column_oracle(n1, n2)
        # Global phase is convention; compare amplitudes up to one phase.
        best = min(
            np.max(np.abs(column * phase - oracle)) for phase in (1, -1, 1j, -1j)
        )
        assert best < 1e-12

    def test_invalid_mode_pair(self):
        with pytest.raises(ValueError):
            beamsplitter(fock_state((0, 0), 2), 0, 0)

    def test_unbalanced_transmittance(self):
        out = beamsplitter(fock_state((1, 0), 1), 0, 1, transmittance=0.9)
        joint = joint_counts(out, (0,), (1,))
        assert joint.probs[1, 0] == pytest.approx(0.9, abs=1e-12)
        assert joint.probs[0, 1] == pytest.approx(0.1, abs=1e-12)


class TestClosedFormColumns:
    """The scalable split laws must agree with the splitter blocks."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 15, 30])
    def test_paired_input_law(self, n):
        column = splitter_block(2 * n, math.pi / 4.0)[:, n]
        paired = _paired_split_pmf(n, _central_binomials(n))
        assert np.max(np.abs(column**2 - paired)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 25])
    def test_vacuum_input_law(self, n):
        column = splitter_block(n, math.pi / 4.0)[:, 0]
        vacuum_split = _binomial_pmf(np.arange(n + 1), n, 0.5)
        assert np.max(np.abs(column**2 - vacuum_split)) < 1e-12

    def test_paired_law_even_support(self):
        pmf = _paired_split_pmf(6, _central_binomials(6))
        assert pmf[1::2].sum() == 0.0
        assert pmf.sum() == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 7, 100, 537, 538, 1000, 2383])
    def test_paired_law_matches_log_gamma_form(self, n):
        # C(n,k)^2 (2k)! (2n-2k)! / (4^n n!^2); at these arguments gammaln
        # itself is good to about 1e-11 relative.
        k = np.arange(n + 1)
        log_w = (
            2.0 * (gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0))
            + gammaln(2.0 * k + 1.0)
            + gammaln(2.0 * (n - k) + 1.0)
            - 2.0 * n * math.log(2.0)
            - 2.0 * gammaln(n + 1.0)
        )
        paired = _paired_split_pmf(n, _central_binomials(n))[::2]
        assert np.max(np.abs(paired / np.exp(log_w) - 1.0)) < 1e-10

    def test_central_binomials_exact(self):
        exact = [math.comb(2 * j, j) / 4**j for j in range(600)]
        assert np.max(np.abs(_central_binomials(599) / exact - 1.0)) < 1e-14

    @pytest.mark.parametrize("n", [1, 9, 200, 537, 538, 2383])
    def test_half_binomial_law_exact(self, n):
        # Integer arithmetic as the reference; 4^-n alone underflows past n = 537.
        row = [1]
        for m in range(2 * n):
            row.append(row[-1] * (2 * n - m) // (m + 1))
        exact = np.array([c / 4**n for c in row])
        law = _half_binomial_pmf(n, _central_binomials(n))
        assert np.max(np.abs(law - exact)) < 1e-16
        kept = exact > 1e-300
        assert np.max(np.abs(law[kept] / exact[kept] - 1.0)) < 1e-13


THETAS = [math.pi / 4.0, math.acos(math.sqrt(0.3)), 0.1]


class TestSplitterBlocks:
    """The block recursion against an independent matrix exponential."""

    def test_yields_every_total_in_order(self):
        shapes = [block.shape for block in _splitter_blocks(6, 0.3)]
        assert shapes == [(t + 1, t + 1) for t in range(7)]

    @pytest.mark.parametrize("theta", THETAS)
    def test_matches_matrix_exponential(self, theta):
        for total, block in enumerate(_splitter_blocks(40, theta)):
            m = np.arange(total + 1)
            phased = block * np.array([1, 1j, -1, -1j])[(m - m[:, None]) % 4]
            assert np.max(np.abs(phased - expm_block(total, theta))) < 1e-13, total

    def test_orthogonal_at_large_total(self):
        block = splitter_block(260, math.pi / 4.0)
        eye = np.eye(261)
        assert np.max(np.abs(block @ block.T - eye)) <= 1e-13
        assert np.max(np.abs(block.T @ block - eye)) <= 1e-13

    @pytest.mark.parametrize("n1,n2", [(1, 0), (0, 1), (2, 1), (3, 4), (5, 5)])
    def test_beamsplitter_phase_at_transmittance_0_9(self, n1, n2):
        # beamsplitter applies i^(m - m') to the real blocks; its output
        # amplitudes must equal the complex exponential's column.
        total = n1 + n2
        out = beamsplitter(fock_state((n1, n2), total), 0, 1, transmittance=0.9)
        m = np.arange(total + 1)
        reference = expm_block(total, math.acos(math.sqrt(0.9)))[:, n1]
        assert np.max(np.abs(out.amplitudes[m, total - m] - reference)) < 1e-13


class TestJointCounts:
    def test_partition_validated(self):
        state = fock_state((0, 0, 0), 2)
        with pytest.raises(ValueError):
            joint_counts(state, (0,), (0, 1))
        with pytest.raises(ValueError):
            joint_counts(state, (0,), (1,))

    def test_grouped_ports(self):
        state = fock_state((2, 1, 0, 3), 3)
        joint = joint_counts(state, (0, 1), (2, 3))
        assert joint.probs[3, 3] == 1.0

    @pytest.mark.parametrize("modes_a,modes_b", [((0, 1), (2,)), ((0, 2), (1,))])
    def test_either_order_gives_the_transposed_law(self, modes_a, modes_b):
        rng = np.random.default_rng(4)
        amps = rng.normal(size=(4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4))
        state = TruncatedPureState(mode_count=3, n_max=3, amplitudes=amps / np.linalg.norm(amps))
        forward = joint_counts(state, modes_a, modes_b).probs
        assert np.array_equal(joint_counts(state, modes_b, modes_a).probs, forward.T)
        assert np.array_equal(joint_counts(state, modes_a[::-1], modes_b).probs, forward)

    @pytest.mark.parametrize(
        "modes_a,modes_b",
        [((0, 1), (1, 2)), ((2,), (0,)), ((0, 0), (1, 2)), ((2,), (0, 1, 1)), ((0, 1), (3,))],
    )
    def test_non_partitions_rejected(self, modes_a, modes_b):
        with pytest.raises(ValueError, match="partition"):
            joint_counts(fock_state((1, 0, 2), 2), modes_a, modes_b)


class TestHomJointPmf:
    def test_no_overlap_matches_distinguishable_baseline(self):
        nu = 0.33
        joint = hom_joint_pmf(TmsvParams(nu=nu), OverlapModel(lam=0.0), n_max=12)
        assert cross_correlation(joint) == pytest.approx(2 * nu**2 + nu / 2, abs=5e-6)

    def test_full_overlap_interference(self):
        nu = 0.33
        joint = hom_joint_pmf(TmsvParams(nu=nu), OverlapModel(lam=1.0), n_max=14)
        assert cross_correlation(joint) == pytest.approx(nu**2, abs=5e-5)

    def test_partial_overlap_quadratic_in_amplitude(self):
        # Independent Gaussian-moment route: the correlation is linear in
        # the squared overlap, (2 nu^2 + nu/2) - lam^2 (nu^2 + nu/2).
        nu = 0.33
        for lam in (0.3, 0.6, 0.9):
            joint = hom_joint_pmf(TmsvParams(nu=nu), OverlapModel(lam=lam), n_max=16)
            expected = 2 * nu**2 + nu / 2 - lam**2 * (nu**2 + nu / 2)
            assert cross_correlation(joint) == pytest.approx(expected, abs=5e-5)

    def test_visibility_from_register(self):
        nu = 0.33
        dip = cross_correlation(hom_joint_pmf(TmsvParams(nu=nu), OverlapModel(1.0), 20))
        base = cross_correlation(hom_joint_pmf(TmsvParams(nu=nu), OverlapModel(0.0), 20))
        assert 1 - dip / base == pytest.approx(0.715517241379, abs=1e-5)

    def test_small_occupation_visibility_follows_formula(self):
        # At nu = 1e-3 the exact visibility is 0.9980080: close to unity,
        # but already 2e-3 away from it; assert against the formula value.
        nu = 1e-3
        dip = cross_correlation(hom_joint_pmf(TmsvParams(nu=nu), OverlapModel(1.0), 6))
        base = cross_correlation(hom_joint_pmf(TmsvParams(nu=nu), OverlapModel(0.0), 6))
        v = 1 - dip / base
        assert v == pytest.approx(formula_visibility(nu), abs=1e-5)
        assert v > 0.995

    def test_total_probability_near_unity(self):
        joint = hom_joint_pmf(TmsvParams(nu=0.33), OverlapModel(lam=0.5), n_max=12)
        assert joint.total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("nu,lam,pairs", [(0.33, 0.5, 5), (1.0, 0.8, 5), (3.0, 1.0, 4)])
    def test_equals_dense_four_mode_register(self, nu, lam, pairs):
        # Modes (matched@1, orthogonal@1, matched@2, orthogonal@2).  The
        # second beam's |n> spreads binomially over its matched and
        # orthogonal modes.  A per-mode grid of 2*pairs holds every splitter
        # output of up to ``pairs`` pairs, so the dense route is exact too.
        x = nu / (1.0 + nu)
        mu = math.sqrt(1.0 - lam**2)
        dim = 2 * pairs + 1
        amps = np.zeros((dim,) * 4, dtype=complex)
        for n in range(pairs + 1):
            for k in range(n + 1):
                amps[n, 0, k, n - k] = (
                    math.sqrt((1.0 - x) * x**n * math.comb(n, k)) * lam**k * mu ** (n - k)
                )
        state = TruncatedPureState(mode_count=4, n_max=2 * pairs, amplitudes=amps)
        state = beamsplitter(beamsplitter(state, 0, 2), 1, 3)
        dense = joint_counts(state, (0, 1), (2, 3)).probs

        block = hom_joint_pmf(TmsvParams(nu=nu), OverlapModel(lam=lam), n_max=pairs).probs
        assert np.max(np.abs(dense[: 2 * pairs + 1, : 2 * pairs + 1] - block)) < 1e-14
        assert dense.sum() == pytest.approx(block.sum(), abs=1e-14)

    @pytest.mark.parametrize("nu", [1.0, 3.0])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_default_support_keeps_the_law(self, nu, lam):
        joint = hom_joint_pmf(TmsvParams(nu=nu), OverlapModel(lam=lam))
        expected = 2 * nu**2 + nu / 2 - lam**2 * (nu**2 + nu / 2)
        assert cross_correlation(joint) == pytest.approx(expected, abs=5e-5)
        assert joint.total >= 1.0 - TAIL_TOLERANCE

    def test_overlap_domain(self):
        with pytest.raises(ValueError):
            OverlapModel(lam=1.5)

    @pytest.mark.parametrize("nu", [0.0, 0.05, 0.33, 1.0, 3.0, 4.5])
    @pytest.mark.parametrize("n_max", [None, 0, 1, 5, 17])
    def test_bytes_equal_per_point_reference(self, nu, n_max):
        # The contraction adds each port-a law in the reference's order of k,
        # so no probability may move by even an ulp, with or without a basis
        # passed in; lam = 0 and 1 put all the weight on one k.
        params = TmsvParams(nu=nu)
        basis = hom_basis(hom_n_max(params) if n_max is None else n_max)
        lams = [0.0, 1.0, 0.5, 1e-9, 1.0 - 1e-12, *np.random.default_rng(22).random(5).tolist()]
        for lam in lams:
            want = hom_joint_pmf_reference(params, OverlapModel(lam), n_max).probs.tobytes()
            assert hom_joint_pmf(params, OverlapModel(lam), n_max).probs.tobytes() == want
            assert hom_joint_pmf(params, OverlapModel(lam), n_max, basis).probs.tobytes() == want

    def test_basis_rows_are_port_a_laws(self):
        basis = hom_basis(6)
        assert [laws.shape for laws in basis] == [(n + 1, 2 * n + 1) for n in range(7)]
        for laws in basis:
            assert np.all(laws >= 0.0)
            assert np.max(np.abs(laws.sum(axis=1) - 1.0)) < 1e-14

    def test_basis_size_must_match_n_max(self):
        params = TmsvParams(nu=0.33)
        with pytest.raises(ValueError, match=r"basis holds 6 pair numbers, not n_max \+ 1 = 5"):
            hom_joint_pmf(params, OverlapModel(0.5), 4, hom_basis(5))
        with pytest.raises(ValueError, match=rf"not n_max \+ 1 = {hom_n_max(params) + 1}$"):
            hom_joint_pmf(params, OverlapModel(0.5), basis=hom_basis(5))

    def test_basis_size_is_counted_exactly(self):
        assert sum(laws.size for laws in hom_basis(9)) == 715
        check_basis_size(9)

    def test_basis_past_the_bound_is_refused_before_it_is_built(self, monkeypatch):
        # The bound is read at call time; lowered, it refuses a 9-pair basis
        # of 715 floats, so no large basis is ever built here.
        monkeypatch.setattr(fock, "MAX_BASIS_FLOATS", 714)
        with pytest.raises(ValueError, match=r"^a HOM Fock basis of 9 pairs would hold 715 "):
            hom_basis(9)
        with pytest.raises(ValueError, match="more than the 714 allowed"):
            hom_joint_pmf(TmsvParams(nu=0.33), OverlapModel(0.5), n_max=9)
        hom_basis(8)

    @pytest.mark.parametrize("nu,admitted", [(4.5, True), (11.8, True), (12.0, False), (50.0, False)])
    def test_bound_admits_every_nu_the_checks_use(self, nu, admitted):
        # nu = 4.5 is the largest HOM occupation the tests and benchmark use;
        # nu = 50 would need a 9.2 GB basis.  Only the size is computed.
        n_max = hom_n_max(TmsvParams(nu=nu))
        if admitted:
            check_basis_size(n_max)
        else:
            with pytest.raises(ValueError, match=rf"^a HOM Fock basis of {n_max} pairs"):
                check_basis_size(n_max)

    def test_retains_no_basis(self):
        # The basis at nu = 3 (82 pairs) takes about 3 MB; a call keeps
        # none of it once it returns, so nothing is cached between calls.
        tracemalloc.start()
        try:
            hom_joint_pmf(TmsvParams(nu=3.0), OverlapModel(0.5))
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current < 1e6


@pytest.mark.parametrize("n_max", [-1, -17, 2.5, 3.0, "4"])
@pytest.mark.parametrize(
    "call",
    [
        lambda n_max: hom_joint_pmf(TmsvParams(nu=0.33), OverlapModel(0.5), n_max),
        hom_basis,
        lambda n_max: visibility_oracle(TmsvParams(nu=0.33), n_max),
        lambda n_max: thermal_input_visibility(0.33, n_max),
    ],
    ids=["hom_joint_pmf", "hom_basis", "visibility_oracle", "thermal_input_visibility"],
)
def test_bad_n_max_rejected(call, n_max):
    with pytest.raises(ValueError, match=r"^n_max must be an integer >= 0, got "):
        call(n_max)


class TestJointPmfValue:
    def test_rejects_nan_probability(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Pmf(probs=np.array([[math.nan, 0.5]]))


class TestCrossCorrelation:
    def test_point_mass_coincidence(self):
        probs = np.zeros((3, 3))
        probs[1, 1] = 1.0
        assert cross_correlation(Pmf(probs=probs)) == 1.0

    def test_point_mass_bunched(self):
        probs = np.zeros((3, 3))
        probs[2, 0] = 1.0
        assert cross_correlation(Pmf(probs=probs)) == 0.0


class TestVisibilityOracle:
    @pytest.mark.parametrize("nu", [0.1, 0.33, 0.8])
    def test_matches_formula(self, nu):
        v = visibility_oracle(TmsvParams(nu=nu), n_max=60)
        assert abs(v - formula_visibility(nu)) < 1e-6

    def test_table_values_round_to_published(self):
        assert round(visibility_oracle(TmsvParams(nu=0.33)), 2) == 0.72
        assert round(visibility_oracle(TmsvParams(nu=0.8)), 2) == 0.62

    def test_large_occupation_limit(self):
        v = visibility_oracle(TmsvParams(nu=100.0))
        assert v == pytest.approx(0.501246882793, abs=1e-4)

    @pytest.mark.parametrize("nu", [46.1, 100.0])
    def test_large_occupation_matches_formula_tightly(self, nu):
        v = visibility_oracle(TmsvParams(nu=nu))
        assert abs(v - formula_visibility(nu)) < 1e-9

    def test_vacuum_rejected(self):
        with pytest.raises(UndefinedVisibilityError):
            visibility_oracle(TmsvParams(nu=0.0))

    def test_truncation_error_shrinks_with_cutoff(self):
        nu = 0.8
        errors = [
            abs(visibility_oracle(TmsvParams(nu=nu), n_max=n) - formula_visibility(nu))
            for n in (10, 20, 40)
        ]
        assert errors[0] >= errors[1] >= errors[2]

    def test_agrees_with_register_route(self):
        # Independent path: the mixture of splitter blocks at lam = 0 and 1.
        nu = 0.33
        dip = cross_correlation(hom_joint_pmf(TmsvParams(nu=nu), OverlapModel(1.0), 20))
        base = cross_correlation(hom_joint_pmf(TmsvParams(nu=nu), OverlapModel(0.0), 20))
        assert visibility_oracle(TmsvParams(nu=nu), 60) == pytest.approx(
            1 - dip / base, abs=1e-5
        )


class TestThermalInputVisibility:
    def test_bounded_by_one_third(self):
        v = thermal_input_visibility(0.5)
        assert v <= 1.0 / 3.0 + 1e-3

    def test_value_near_one_third(self):
        assert thermal_input_visibility(0.5) == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_small_occupation_limit(self):
        # Recorded value: approaches 1/3 (from slightly above at this
        # truncation, still inside the stated 1e-3 band).
        v = thermal_input_visibility(1e-3)
        assert v == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_equals_loop_over_fock_runs(self):
        # Reference: each run |n1, n2> propagated on its own dense grid;
        # distinguishable inputs give <m (T - m)> = T (T - 1) / 4.
        nu, n_max = 0.5, 8
        x = nu / (1.0 + nu)
        w = (1.0 - x) * x ** np.arange(n_max + 1)
        dip = baseline = 0.0
        for n1 in range(n_max + 1):
            for n2 in range(n_max + 1):
                out = beamsplitter(fock_state((n1, n2), 2 * n_max), 0, 1)
                dip += w[n1] * w[n2] * cross_correlation(joint_counts(out, (0,), (1,)))
                baseline += w[n1] * w[n2] * (n1 + n2) * (n1 + n2 - 1) / 4.0
        v = thermal_input_visibility(nu, n_max=n_max)
        assert v == pytest.approx(1.0 - dip / baseline, abs=1e-12)

    def test_vacuum_rejected(self):
        with pytest.raises(UndefinedVisibilityError):
            thermal_input_visibility(0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            thermal_input_visibility(-0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="^nu .*finite"):
            thermal_input_visibility(bad)

    def test_retains_no_memory(self):
        # Every block is built once, used and freed: nothing outlives the call.
        tracemalloc.start()
        try:
            thermal_input_visibility(5.0)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current < 1e6
        assert peak < 16e6
