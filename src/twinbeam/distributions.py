"""Closed-form counting distributions for a lossy twin-beam source.

The three laws implemented here are the single-mode thermal (geometric)
occupation law, the negative-binomial law for a detection volume containing
``M`` independent thermal modes (``M`` is Mandel's degeneracy parameter and
need not be an integer), and the Poisson law they approach as ``M`` grows.
A lossy single-atom detector acts on any of them by binomial thinning,
which maps a thermal law of mean ``nu`` onto a thermal law of mean
``eta * nu``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import check_field

__all__ = [
    "TAIL_TOLERANCE",
    "TmsvParams",
    "DetectorModel",
    "Pmf",
    "thermal_pmf",
    "multimode_pmf",
    "multimode_log_pmf",
    "poisson_pmf",
    "binomial_thin",
]

# Default bound on the analytic probability mass allowed beyond n_max.
TAIL_TOLERANCE = 1e-10


@dataclass(frozen=True)
class TmsvParams:
    """Two-mode squeezed vacuum, set by its mean occupation per mode ``nu``."""

    nu: float

    def __post_init__(self):
        check_field(self, "nu", 0)

    @property
    def alpha_mag(self) -> float:
        """Pair amplitude magnitude: ``nu = alpha_mag**2 / (1 - alpha_mag**2)``."""
        return math.sqrt(self.nu / (1.0 + self.nu))


@dataclass(frozen=True)
class DetectorModel:
    """Single-atom detector with efficiency ``eta`` in [0, 1]."""

    eta: float

    def __post_init__(self):
        check_field(self, "eta", 0, 1)


@dataclass(frozen=True)
class Pmf:
    """A count law: ``probs[n]`` for ``n = 0 .. n_max``, or a joint table ``probs[n_a, n_b]``.

    A law cut to a finite support lacks the mass beyond it, and
    ``truncation_loss`` reports that mass.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float)
        if probs.ndim not in (1, 2):
            raise ValueError("probs must be a 1-D law or a 2-D joint table")
        if not (0.0 <= probs.min() and probs.max() <= 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        if probs.sum() > 1.0 + 1e-9:
            raise ValueError(f"probabilities sum to {probs.sum()} > 1")
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    @property
    def n_max(self) -> int:
        return len(self.probs) - 1

    @property
    def total(self) -> float:
        return float(self.probs.sum())

    @property
    def truncation_loss(self) -> float:
        return max(0.0, 1.0 - self.total)


def _check_n_max(n_max) -> int:
    """``n_max`` as an int, if it is an integer count ``>= 0``."""
    if not isinstance(n_max, (int, np.integer)) or n_max < 0:
        raise ValueError(f"n_max must be an integer >= 0, got {n_max!r}")
    return int(n_max)


def _thermal_support(nu: float, n_max=None, floor: int = 0) -> int:
    """``n_max`` if given, else the default support of a thermal law of mean ``nu``.

    The thermal tail mass beyond n is ``x**(n + 1)``, ``x = nu / (1 + nu)``.
    The default is the smallest n, and at least ``floor``, that leaves at
    most ``TAIL_TOLERANCE / 2`` there; the other half of the allowance is
    left to rounding in the summed terms.
    """
    if n_max is not None:
        return _check_n_max(n_max)
    if nu <= 0.0:
        return floor
    x = nu / (1.0 + nu)
    return max(floor, math.ceil(math.log(TAIL_TOLERANCE / 2.0) / math.log(x)) - 1)


def _law(log_pmf, n_max: int, size: int) -> Pmf:
    """The law on ``0 .. n_max``, or on its default support if ``n_max`` is None.

    The default support ends 2 past the smallest n whose tail mass is at
    most ``TAIL_TOLERANCE``.  ``log_pmf`` is evaluated on ``size`` terms,
    doubled until the last term is negligible and falling; the mass beyond
    each n is a reverse cumulative sum, added smallest-first, and the law
    is sliced from that one evaluation.
    """
    if n_max is None:
        while True:
            log_p = log_pmf(np.arange(size))
            if log_p[-1] < min(log_p[-2], math.log(TAIL_TOLERANCE) - 25.0):
                break
            size *= 2
        probs = np.exp(log_p)
        beyond = np.cumsum(probs[:0:-1])[::-1]  # beyond[n] = probs[n + 1:].sum()
        n_max = int(np.argmax(beyond <= TAIL_TOLERANCE)) + 2
        return Pmf(probs=probs[: n_max + 1])
    return Pmf(probs=np.exp(log_pmf(np.arange(_check_n_max(n_max) + 1))))


def _log_products(ratios: np.ndarray) -> np.ndarray:
    """Logs of the running products ``1, r[0], r[0] r[1], ...`` of ``ratios``."""
    return np.concatenate(([0.0], np.cumsum(np.log(ratios))))


def thermal_pmf(nu: float, n_max: int = None) -> Pmf:
    """Thermal (geometric) occupation law ``P(n) = nu^n / (1+nu)^(n+1)``.

    Args:
        nu: mean occupation, >= 0.
        n_max: truncation count; defaults to the smallest support whose
            analytic tail mass is below ``TAIL_TOLERANCE``.
    """
    if not 0.0 <= nu < math.inf:
        raise ValueError(f"nu must be finite and >= 0, got {nu}")
    n_max = _thermal_support(nu, n_max)
    n = np.arange(n_max + 1)
    if nu == 0.0:
        probs = np.zeros(n_max + 1)
        probs[0] = 1.0
    else:
        log_p = n * math.log(nu) - (n + 1) * math.log1p(nu)
        probs = np.exp(log_p)
    return Pmf(probs=probs)


def multimode_log_pmf(nu: float, big_m: float, ns: np.ndarray) -> np.ndarray:
    """Log of the M-mode thermal counting law, evaluated in log space.

    ``P_M(n) = Gamma(n+M) / (Gamma(n+1) Gamma(M)) (1+M/nu)^-n (1+nu/M)^-M``.
    The gamma ratio is the product of ``(M + j) / (j + 1)`` over ``j < n``,
    summed as logs, so the evaluation stays finite where the gamma function
    itself overflows (n + M > 170 in double precision).
    """
    if not 0.0 < big_m < math.inf:
        raise ValueError(f"big_m (degeneracy) must be finite and > 0, got {big_m}")
    if not 0.0 <= nu < math.inf:
        raise ValueError(f"nu must be finite and >= 0, got {nu}")
    ns = np.asarray(ns)
    if nu == 0.0:
        return np.where(ns == 0, 0.0, -np.inf)
    j = np.arange(ns.max(initial=0))
    return (
        _log_products((big_m + j) / (j + 1.0))[ns]
        - ns * math.log1p(big_m / nu)
        - big_m * math.log1p(nu / big_m)
    )


def multimode_pmf(nu: float, big_m: float, n_max: int = None) -> Pmf:
    """Counting law for a volume holding ``big_m`` independent thermal modes.

    Reduces to :func:`thermal_pmf` at ``big_m = 1`` and approaches
    :func:`poisson_pmf` as ``big_m`` grows. ``big_m`` may be non-integral.
    For ``nu = 0`` the zero-count point mass is returned (the formula is
    indeterminate there).
    """
    if not 0.0 < big_m < math.inf:
        raise ValueError(f"big_m (degeneracy) must be finite and > 0, got {big_m}")
    if not 0.0 <= nu < math.inf:
        raise ValueError(f"nu must be finite and >= 0, got {nu}")
    return _law(
        lambda ns: multimode_log_pmf(nu, big_m, ns),
        0 if n_max is None and nu == 0.0 else n_max,
        int(nu + 12.0 * math.sqrt(nu + nu * nu / big_m)) + 16,
    )


def poisson_pmf(mean: float, n_max: int = None) -> Pmf:
    """Poisson law ``P(n) = mean^n exp(-mean) / n!``."""
    if not 0.0 <= mean < math.inf:
        raise ValueError(f"mean must be finite and >= 0, got {mean}")
    if mean == 0.0:
        return thermal_pmf(0.0, n_max)  # the vacuum point mass
    return _law(
        lambda n: _log_products(mean / n[1:]) - mean,
        n_max,
        int(mean + 12.0 * math.sqrt(mean)) + 16,
    )


def _binomial_pmf(k, n, p: float) -> np.ndarray:
    """``P(Binomial(n, p) = k)`` from a log-factorial table, broadcast over ``k`` and ``n``."""
    if p in (0.0, 1.0):
        return (k == n * p).astype(float)
    valid = k <= n
    # Where k > n, take k = n so the term stays finite; it is zeroed below.
    k = np.where(valid, k, n)
    rest = n - k
    log_fact = _log_products(np.arange(1.0, np.max(n) + 1))
    log_w = (
        log_fact[n]
        - log_fact[k]
        - log_fact[rest]
        + k * math.log(p)
        + rest * math.log1p(-p)
    )
    return np.where(valid, np.exp(log_w), 0.0)


def binomial_thin(pmf: Pmf, det: DetectorModel) -> Pmf:
    """Count law after each atom survives detection with probability eta.

    ``P'(k) = sum_n P(n) C(n, k) eta^k (1-eta)^(n-k)``.  Thinning cannot
    move mass upward, so the support and the truncation loss carry over
    unchanged.
    """
    eta = det.eta
    n = np.arange(pmf.n_max + 1)
    # loss_matrix[k, m] = P(Binomial(m, eta) = k)
    loss_matrix = _binomial_pmf(n[:, None], n[None, :], eta)
    return Pmf(probs=np.clip(loss_matrix @ pmf.probs, 0.0, 1.0))
