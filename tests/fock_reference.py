"""Dense truncated-Fock-space reference calculator, used only by the tests.

``TruncatedPureState`` holds amplitudes on the full ``(n_max+1)^modes``
occupation grid; ``build_tmsv``, ``beamsplitter``, ``marginal_counts`` and
``joint_counts`` apply the production splitter blocks
(:func:`twinbeam.fock._splitter_blocks`) to such states, so the block-wise
laws of :mod:`twinbeam.fock` can be checked against whole state vectors.
``detected_mean`` and ``pmf_moments`` are the small closed forms the
distribution tests compare against.  ``hom_joint_pmf_reference`` is the
per-point HOM law as it was computed before :func:`twinbeam.fock.hom_basis`
existed, block by block with the overlap weights folded in; the production
law must equal it byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from twinbeam.distributions import DetectorModel, Pmf, TmsvParams, _binomial_pmf
from twinbeam.fock import OverlapModel, _splitter_blocks, hom_n_max

# Hard cap on dense amplitude grids; 41^2 two-mode and 13^4 four-mode
# grids (the documented working envelope) sit far below it.
_MAX_GRID_ELEMENTS = 6_000_000


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
    return Pmf(probs=np.clip(probs, 0.0, 1.0))


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
    # Each anti-diagonal of the (mode_i, mode_j) grid is one total-count block;
    # the phase i^(m - m') turns the real block into the complex splitter.
    for total, block in enumerate(_splitter_blocks(2 * n_max, theta)):
        m = np.arange(max(0, total - n_max), min(total, n_max) + 1)
        sub = block[np.ix_(m, m)] * np.array([1, 1j, -1, -1j])[(m - m[:, None]) % 4]
        mixed[..., m, total - m] = moved[..., m, total - m] @ sub.T
    out = np.moveaxis(mixed, (-2, -1), (mode_i, mode_j))
    return TruncatedPureState(mode_count=k, n_max=state.n_max, amplitudes=out)


def joint_counts(
    state: TruncatedPureState,
    modes_a: tuple[int, ...],
    modes_b: tuple[int, ...],
) -> Pmf:
    """Joint distribution of the summed counts in two groups of modes."""
    if sorted([*modes_a, *modes_b]) != list(range(state.mode_count)):
        raise ValueError("modes_a and modes_b must partition the mode indices")
    weights = np.abs(state.amplitudes) ** 2
    idx = np.indices(weights.shape)
    n_a = sum(idx[m] for m in modes_a)
    n_b = sum(idx[m] for m in modes_b)
    probs = np.zeros(
        (len(modes_a) * state.n_max + 1, len(modes_b) * state.n_max + 1)
    )
    np.add.at(probs, (n_a.ravel(), n_b.ravel()), weights.ravel())
    return Pmf(probs=np.clip(probs, 0.0, 1.0))


def detected_mean(nu: float, det: DetectorModel) -> float:
    """Mean detected count for true mean ``nu`` and efficiency ``det.eta``."""
    if not 0.0 <= nu < math.inf:
        raise ValueError(f"nu must be finite and >= 0, got {nu}")
    return det.eta * nu


def pmf_moments(pmf: Pmf) -> tuple[float, float]:
    """Mean and variance of the truncated distribution as stored."""
    n = np.arange(pmf.n_max + 1)
    mean = float(n @ pmf.probs)
    var = float(((n - mean) ** 2) @ pmf.probs)
    return mean, var


def hom_joint_pmf_reference(
    params: TmsvParams, overlap: OverlapModel, n_max: int = None
) -> Pmf:
    """The HOM joint port law, one point at a time, adding each port-a law in ascending ``k``."""
    if n_max is None:
        n_max = hom_n_max(params)
    x = params.alpha_mag**2
    vacuum = [_binomial_pmf(np.arange(j + 1), j, 0.5) for j in range(n_max + 1)]
    # k of the second beam's n atoms fall in the matched mode.
    splits = [_binomial_pmf(np.arange(n + 1), n, overlap.lam**2) for n in range(n_max + 1)]
    port_a = [np.zeros(2 * n + 1) for n in range(n_max + 1)]
    # Block T serves every matched input |n, k> with n + k = T.  For each n,
    # k still ascends with T, so each port-a law sums in the order of k.
    for total, block in enumerate(_splitter_blocks(2 * n_max, math.pi / 4.0)):
        for n in range((total + 1) // 2, min(total, n_max) + 1):
            w_k = splits[n][total - n]
            if w_k != 0.0:
                port_a[n] += w_k * np.convolve(block[:, n] ** 2, vacuum[2 * n - total])
    probs = np.zeros((2 * n_max + 1, 2 * n_max + 1))
    for n, law in enumerate(port_a):
        n_a = np.arange(2 * n + 1)
        probs[n_a, 2 * n - n_a] = (1.0 - x) * x**n * law
    return Pmf(probs=np.clip(probs, 0.0, 1.0))
