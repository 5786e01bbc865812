"""Brute-force truncated-Fock-space calculator for the twin-beam source.

The one splitter primitive is :func:`_block_unitary`: the numerically
exponentiated two-mode mixing generator on the block of fixed total count,
which it conserves, so every block is exact.  The dense calculator
(``TruncatedPureState``, ``build_tmsv``, ``beamsplitter``,
``joint_counts``) applies those blocks to state vectors over truncated
occupation-number grids; :func:`hom_joint_pmf` and the visibility oracles
work block by block without any per-mode cutoff.  The module exists to
derive independently what the closed-form laws in
:mod:`twinbeam.distributions` and :mod:`twinbeam.fitting` assert, and to
hand exact joint count distributions to the Monte Carlo simulator.

Splitter convention: symmetric 50:50 with the i-phase on reflection,
``a -> (a + i b)/sqrt(2)``.  Count distributions do not depend on this
choice; fixing it makes amplitudes deterministic and testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

from .distributions import TAIL_TOLERANCE, Pmf, TmsvParams, _binomial_pmf, _thermal_tail_n_max

__all__ = [
    "UndefinedVisibilityError",
    "TruncatedPureState",
    "JointPmf",
    "OverlapModel",
    "build_tmsv",
    "marginal_counts",
    "beamsplitter",
    "joint_counts",
    "hom_joint_pmf",
    "cross_correlation",
    "visibility_oracle",
    "thermal_input_visibility",
]

# Hard cap on dense amplitude grids; 41^2 two-mode and 13^4 four-mode
# grids (the documented working envelope) sit far below it.
_MAX_GRID_ELEMENTS = 6_000_000


class UndefinedVisibilityError(ValueError):
    """Raised when the distinguishable cross correlation vanishes."""


@dataclass(frozen=True)
class TruncatedPureState:
    """Dense pure state on the full ``(n_max+1)^mode_count`` grid."""

    mode_count: int
    n_max: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        expected = (self.n_max + 1,) * self.mode_count
        if amps.shape != expected:
            raise ValueError(f"amplitude grid {amps.shape} != {expected}")
        if amps.size > _MAX_GRID_ELEMENTS:
            raise ValueError(
                f"grid of {amps.size} amplitudes exceeds the dense-storage cap"
            )
        norm_sq = float((amps.real**2 + amps.imag**2).sum())
        if norm_sq > 1.0 + 1e-9:
            raise ValueError(f"state norm^2 = {norm_sq} > 1")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm_squared(self) -> float:
        return float((self.amplitudes.real**2 + self.amplitudes.imag**2).sum())

    @property
    def truncation_loss(self) -> float:
        return max(0.0, 1.0 - self.norm_squared)


@dataclass(frozen=True)
class JointPmf:
    """Joint count probabilities for two detection ports."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 2:
            raise ValueError("joint probabilities must be a 2-D table")
        if np.any(probs < 0.0) or np.any(probs > 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        if probs.sum() > 1.0 + 1e-9:
            raise ValueError(f"probabilities sum to {probs.sum()} > 1")
        probs = probs.copy()
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    @property
    def total(self) -> float:
        return float(self.probs.sum())

    @property
    def truncation_loss(self) -> float:
        return max(0.0, 1.0 - self.total)


@dataclass(frozen=True)
class OverlapModel:
    """Spatio-temporal overlap amplitude between the two input beams.

    ``lam = 1`` means the second beam arrives in exactly the mode the
    first beam occupies; ``lam = 0`` means fully distinguishable.
    """

    lam: float

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"overlap amplitude must be in [0, 1], got {self.lam}")


@lru_cache(maxsize=None)
def _block_unitary(total: int, theta: float) -> np.ndarray:
    """Splitter unitary on the total-occupation-``total`` block.

    The mixing generator ``K = a^dag b + b^dag a`` conserves the total
    count, so ``exp(i theta K)`` restricted to one block is exact: no
    truncation enters.  Basis order is the occupation of the first mode,
    ``m = 0 .. total``.
    """
    if total == 0:
        return np.ones((1, 1), dtype=complex)
    m = np.arange(total)
    off_diag = np.sqrt((m + 1.0) * (total - m))
    vals, vecs = eigh_tridiagonal(np.zeros(total + 1), off_diag)
    phases = np.exp(1j * theta * vals)
    return (vecs * phases) @ vecs.T


def build_tmsv(params: TmsvParams, n_max: int) -> TruncatedPureState:
    """Two-mode squeezed vacuum with pair numbers up to ``n_max``.

    Only perfectly paired occupations carry amplitude:
    ``amp(n, n) = sqrt(1 - alpha^2) alpha^n``.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    alpha = params.alpha_mag
    n = np.arange(n_max + 1)
    diag = math.sqrt(1.0 - alpha**2) * alpha**n
    amps = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    amps[n, n] = diag
    return TruncatedPureState(mode_count=2, n_max=n_max, amplitudes=amps)


def marginal_counts(state: TruncatedPureState, mode: int) -> Pmf:
    """Count distribution of one mode, tracing out all others."""
    if not 0 <= mode < state.mode_count:
        raise ValueError(f"mode {mode} out of range for {state.mode_count} modes")
    weights = np.abs(state.amplitudes) ** 2
    axes = tuple(ax for ax in range(state.mode_count) if ax != mode)
    probs = weights.sum(axis=axes)
    return Pmf(
        probs=np.clip(probs, 0.0, 1.0),
        n_max=state.n_max,
        tail_tolerance=max(TAIL_TOLERANCE, state.truncation_loss),
    )


def beamsplitter(
    state: TruncatedPureState,
    mode_i: int,
    mode_j: int,
    transmittance: float = 0.5,
) -> TruncatedPureState:
    """Mix two modes on a splitter of the given transmittance.

    Unitarity holds exactly within each total-count block; amplitude
    scattered past the per-mode cutoff is dropped, and shows up as an
    increase of ``truncation_loss`` on the returned state.
    """
    k = state.mode_count
    if not (0 <= mode_i < k and 0 <= mode_j < k) or mode_i == mode_j:
        raise ValueError(f"invalid mode pair ({mode_i}, {mode_j}) for {k} modes")
    if not 0.0 <= transmittance <= 1.0:
        raise ValueError(f"transmittance must be in [0, 1], got {transmittance}")
    theta = math.acos(math.sqrt(transmittance))
    n_max = state.n_max
    moved = np.moveaxis(state.amplitudes, (mode_i, mode_j), (-2, -1))
    mixed = np.zeros_like(moved)
    # Each anti-diagonal of the (mode_i, mode_j) grid is one total-count block.
    for total in range(2 * n_max + 1):
        m = np.arange(max(0, total - n_max), min(total, n_max) + 1)
        block = _block_unitary(total, theta)[np.ix_(m, m)]
        mixed[..., m, total - m] = moved[..., m, total - m] @ block.T
    out = np.moveaxis(mixed, (-2, -1), (mode_i, mode_j))
    return TruncatedPureState(mode_count=k, n_max=state.n_max, amplitudes=out)


def joint_counts(
    state: TruncatedPureState,
    modes_a: tuple[int, ...],
    modes_b: tuple[int, ...],
) -> JointPmf:
    """Joint distribution of the summed counts in two groups of modes."""
    if sorted(modes_a) + sorted(modes_b) != sorted(
        set(modes_a) | set(modes_b)
    ) or set(modes_a) | set(modes_b) != set(range(state.mode_count)):
        raise ValueError("modes_a and modes_b must partition the mode indices")
    weights = np.abs(state.amplitudes) ** 2
    idx = np.indices(weights.shape)
    n_a = sum(idx[m] for m in modes_a)
    n_b = sum(idx[m] for m in modes_b)
    probs = np.zeros(
        (len(modes_a) * state.n_max + 1, len(modes_b) * state.n_max + 1)
    )
    np.add.at(probs, (n_a.ravel(), n_b.ravel()), weights.ravel())
    return JointPmf(probs=np.clip(probs, 0.0, 1.0))


def hom_joint_pmf(
    params: TmsvParams, overlap: OverlapModel, n_max: int = None
) -> JointPmf:
    """Joint output-port count law of the two-input interferometer.

    The first beam defines the matched spatio-temporal mode; the second
    beam overlaps it with amplitude ``lam``.  Given ``n`` pairs (weight
    ``(1-x) x^n``), ``k ~ Bin(n, lam^2)`` of the second beam's atoms sit in
    the matched mode.  The matched input ``|n, k>`` interferes through one
    exact splitter block; the ``n - k`` orthogonal atoms split against
    vacuum.  Port a collects both, and port b holds the rest of the ``2n``
    atoms.  Different ``k`` never interfere because their matched totals
    differ, so the law is a mixture of exact blocks.

    Only the pair tail beyond ``n_max`` is lost; it defaults to the
    smallest support whose thermal tail is below ``TAIL_TOLERANCE``.
    """
    if n_max is None:
        n_max = _thermal_tail_n_max(params.nu, TAIL_TOLERANCE)
    x = params.alpha_mag**2
    theta = math.pi / 4.0
    probs = np.zeros((2 * n_max + 1, 2 * n_max + 1))
    vacuum = [_binomial_pmf(np.arange(j + 1), j, 0.5) for j in range(n_max + 1)]
    for n in range(n_max + 1):
        # k of the second beam's n atoms fall in the matched mode.
        overlap_split = _binomial_pmf(np.arange(n + 1), n, overlap.lam**2)
        port_a = np.zeros(2 * n + 1)
        for k, w_k in enumerate(overlap_split):
            if w_k == 0.0:
                continue
            matched = np.abs(_block_unitary(n + k, theta)[:, n]) ** 2
            port_a += w_k * np.convolve(matched, vacuum[n - k])
        n_a = np.arange(2 * n + 1)
        probs[n_a, 2 * n - n_a] = (1.0 - x) * x**n * port_a
    return JointPmf(probs=np.clip(probs, 0.0, 1.0))


def cross_correlation(joint: JointPmf) -> float:
    """Expectation of the port-count product ``<n_a n_b>``."""
    n_a = np.arange(joint.probs.shape[0])
    n_b = np.arange(joint.probs.shape[1])
    return float(n_a @ joint.probs @ n_b)


def _paired_split_pmf(n: int) -> np.ndarray:
    """Output count law at port a for the paired input ``|n, n>``.

    Under the splitter the paired creation operators collapse to
    ``(a+ib)(ia+b)/2 = i(a^2+b^2)/2`` (applied to creation operators), so
    the output superposes only even splits ``|2k, 2n-2k>`` with
    single-term coefficients.  Those are evaluated through log-gamma,
    which stays exact to machine precision at any ``n`` because no
    cancelling sums occur.  Returns probabilities over ``m = 0 .. 2n``.
    """
    k = np.arange(n + 1)
    log_w = (
        2.0 * (gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0))
        + gammaln(2.0 * k + 1.0)
        + gammaln(2.0 * (n - k) + 1.0)
        - 2.0 * n * math.log(2.0)
        - 2.0 * gammaln(n + 1.0)
    )
    pmf = np.zeros(2 * n + 1)
    pmf[2 * k] = np.exp(log_w)
    return pmf


def visibility_oracle(params: TmsvParams, n_max: int = None) -> float:
    """Interference visibility of the pair source, from state vectors alone.

    ``V = 1 - <n_a n_b>(full overlap) / <n_a n_b>(no overlap)``.  Both
    correlations are assembled pair-number block by pair-number block,
    which keeps every splitter output exactly (blocks conserve the total
    count) and scales to mean occupations of order 100.
    """
    nu = params.nu
    if nu == 0.0:
        raise UndefinedVisibilityError(
            "vacuum input: distinguishable correlation is zero"
        )
    if n_max is None:
        n_max = max(1, _thermal_tail_n_max(nu, TAIL_TOLERANCE))
    x = params.alpha_mag**2
    ns = np.arange(n_max + 1)
    pair_weights = (1.0 - x) * x**ns

    dip = 0.0
    baseline = 0.0
    for n in range(1, n_max + 1):
        m_dip = np.arange(2 * n + 1)
        dip += pair_weights[n] * float(
            _paired_split_pmf(n) @ (m_dip * (2 * n - m_dip))
        )
        # Distinguishable beams: each |n> splits against vacuum, so the
        # port-a total is Bin(n,1/2) + Bin(n,1/2) = Bin(2n,1/2).
        baseline += pair_weights[n] * float(
            _binomial_pmf(m_dip, 2 * n, 0.5) @ (m_dip * (2 * n - m_dip))
        )
    if baseline == 0.0:
        raise UndefinedVisibilityError(
            "distinguishable correlation is zero at this truncation"
        )
    return 1.0 - dip / baseline


def thermal_input_visibility(nu: float, n_max: int = None) -> float:
    """Visibility when the pair source is replaced by independent thermals.

    The two inputs are uncorrelated single-mode thermal mixtures of equal
    mean ``nu``.  A thermal density matrix is Fock-diagonal, so exact
    propagation reduces to averaging pure Fock runs ``|n1, n2>`` over the
    product of occupation laws.  Runs of one total ``T = n1 + n2`` share a
    splitter block, so each block is applied to all its runs at once.
    """
    if nu < 0.0:
        raise ValueError(f"nu must be >= 0, got {nu}")
    if nu == 0.0:
        raise UndefinedVisibilityError(
            "vacuum input: distinguishable correlation is zero"
        )
    if n_max is None:
        n_max = max(1, _thermal_tail_n_max(nu, TAIL_TOLERANCE))
    x = nu / (1.0 + nu)
    weights = (1.0 - x) * x ** np.arange(n_max + 1)

    theta = math.pi / 4.0
    dip = 0.0
    baseline = 0.0
    for total in range(1, 2 * n_max + 1):
        lo, hi = max(0, total - n_max), min(total, n_max)
        run_weights = weights[lo : hi + 1] * weights[total - hi : total - lo + 1][::-1]
        m = np.arange(total + 1)
        product = m * (total - m)
        block_sq = np.abs(_block_unitary(total, theta)[:, lo : hi + 1]) ** 2
        dip += float(run_weights @ (product @ block_sq))
        # Distinguishable inputs each split against vacuum: Bin(T, 1/2) at port a.
        baseline += float(run_weights.sum() * (_binomial_pmf(m, total, 0.5) @ product))
    if baseline == 0.0:
        raise UndefinedVisibilityError(
            "distinguishable correlation is zero at this truncation"
        )
    return 1.0 - dip / baseline
