"""Fits and predictions: degeneracy parameter, visibility, Gaussian dip.

The degeneracy fit maximizes the multinomial likelihood of the M-mode
thermal counting law with the mean held fixed at its measured value, so
the mode count is the only adjustable parameter; the maximum is the root
of the closed-form score in ``M``.  The interferometer dip
is a weighted least-squares fit by bounded variable projection: baseline
and depth are solved in closed form with ``0 <= V <= 1``, and a refined
grid searches the centre and ``log`` width inside bounds set by the scan.
Visibility predictions evaluate
``V = 1 - (2 + 1/(2 nu))^(-1)`` and propagate the occupation uncertainty
to first order and as the exact band ``V(nu -/+ nu_std)``.  The result
dataclasses are written with ``dataclasses.asdict``, so their field names
are the keys of the result JSON files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import check_field
from .distributions import TmsvParams, multimode_log_pmf

__all__ = [
    "FitFailureError",
    "DegeneracyFit",
    "DipFit",
    "VisibilityParams",
    "VisibilityPrediction",
    "fit_degeneracy",
    "predict_visibility",
    "propagate_visibility_uncertainty",
    "fit_gaussian_dip",
]

# Search range for the mode count; the score is checked for a sign change on it.
DEGENERACY_BRACKET = (1e-6, 1e7)
# Nodes per axis of each (t0, log sigma) grid round of the dip fit.
DIP_GRID_NODES = 31


class FitFailureError(RuntimeError):
    """A fit did not produce a usable result; carries diagnostics."""

    def __init__(self, message: str, diagnostics: dict = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class VisibilityParams:
    """Mean occupation ``nu`` and its uncertainty for a visibility prediction."""

    nu: float = 0.33
    nu_std: float = 0.07

    def __post_init__(self):
        check_field(self, "nu", 0, positive=True)
        check_field(self, "nu_std", 0)


@dataclass(frozen=True)
class DegeneracyFit:
    """Maximum-likelihood estimate of the mode count in a counting volume."""

    degeneracy: float
    std_err: float
    fixed_mean: float
    log_likelihood: float
    at_bound: bool = False

    def __post_init__(self):
        if self.degeneracy <= 0:
            raise ValueError(f"degeneracy must be > 0, got {self.degeneracy}")


@dataclass(frozen=True)
class DipFit:
    """Weighted least-squares result for the correlation dip.

    Model: ``B (1 - V exp(-(t - t0)^2 / (2 sigma^2)))``.
    """

    visibility: float
    t0: float
    sigma: float
    baseline: float
    visibility_err: float
    t0_err: float
    sigma_err: float
    baseline_err: float
    chi2: float
    n_iterations: int
    at_bound: tuple = ()

    def __post_init__(self):
        if not -1e-9 <= self.visibility <= 1.0 + 1e-9:
            raise ValueError(f"visibility {self.visibility} outside [0, 1]")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.baseline <= 0:
            raise ValueError(f"baseline must be positive, got {self.baseline}")

    @property
    def converged(self) -> bool:
        """True when no parameter sits on a bound of the fit."""
        return not self.at_bound

    def model(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        gauss = np.exp(-((t - self.t0) ** 2) / (2.0 * self.sigma**2))
        return self.baseline * (1.0 - self.visibility * gauss)


@dataclass(frozen=True)
class VisibilityPrediction:
    """Predicted visibility with the occupation uncertainty propagated."""

    nu: float
    nu_std: float
    v_pred: float
    v_std: float
    v_band: tuple[float, float]


def fit_degeneracy(occurrences: np.ndarray, fixed_mean: float) -> DegeneracyFit:
    """Fit the mode count of the M-mode thermal law to an occurrence histogram.

    ``occurrences[n]`` counts the shots holding ``n`` atoms.  The mean is
    held at ``fixed_mean`` (the separately measured value) and the
    maximum-likelihood ``M`` is the root of the score in ``M`` inside
    ``DEGENERACY_BRACKET``, found by Newton steps in ``log M`` that bisect
    whenever a step would leave the bracket.  A score without a sign change
    on the bracket puts the fit at that edge, flagged via ``at_bound``.
    With ``fixed_mean`` the sample mean, that edge is the upper one exactly
    when the sample variance is at most the mean (Levin & Reeds, Ann.
    Statist. 5, 79, 1977).  ``std_err`` is ``1/sqrt(-dscore/dM)``, the
    observed information, and the fit's one error: over 300 seeded runs of
    each source in ``tests/test_pipeline.py``, ``M ± 1.96 std_err`` covers
    the exact target inside the central 99 % range of Bin(300, 0.95).
    """
    occ = np.asarray(occurrences)
    if occ.ndim != 1 or len(occ) == 0 or occ.dtype.kind not in "iu" or np.any(occ < 0):
        raise ValueError("occurrences must be a non-empty 1-D array of integer counts >= 0")
    if fixed_mean <= 0:
        raise ValueError(f"fixed_mean must be > 0, got {fixed_mean}")
    if np.count_nonzero(occ) < 2:
        raise FitFailureError(
            "histogram is degenerate: fewer than two distinct counts observed",
            {"occurrences": occ.tolist()},
        )
    shots, mean = int(occ.sum()), fixed_mean
    tail = (shots - np.cumsum(occ)[:-1]).astype(float)  # shots counting more than j
    excess = shots * mean - float(np.arange(len(occ)) @ occ)

    def score(m: float) -> tuple[float, float]:
        # psi(n + M) - psi(M) = sum_{j<n} 1/(M + j), so no digamma is needed.
        inv = 1.0 / (m + np.arange(len(tail)))
        return (
            tail @ inv - shots * math.log1p(mean / m) + excess / (mean + m),
            shots * mean / (m * (m + mean)) - tail @ inv**2 - excess / (mean + m) ** 2,
        )

    m_lo, m_hi = DEGENERACY_BRACKET
    edge = m_hi if score(m_hi)[0] >= 0 else m_lo if score(m_lo)[0] <= 0 else None
    lo, hi = math.log(m_lo), math.log(m_hi)
    t = 0.5 * (lo + hi)
    for _ in range(100 if edge is None else 0):
        s, slope = score(math.exp(t))
        if s > 0:
            lo = t
        else:
            hi = t
        step = -s / (math.exp(t) * slope) if slope < 0 else math.inf
        t, step = (t + step, abs(step)) if lo <= t + step <= hi else (0.5 * (lo + hi), math.inf)
        if min(step, hi - lo) <= 1e-10:
            break
    m_hat = math.exp(t) if edge is None else edge
    slope = score(m_hat)[1]
    std_err = 1.0 / math.sqrt(-slope) if slope < 0 else math.inf
    ns = np.flatnonzero(occ)
    log_likelihood = float(occ[ns] @ multimode_log_pmf(fixed_mean, m_hat, ns))

    return DegeneracyFit(
        degeneracy=m_hat,
        std_err=std_err,
        fixed_mean=fixed_mean,
        log_likelihood=log_likelihood,
        at_bound=edge is not None,
    )


def _visibility(nu: float) -> float:
    """``1 - (2 + 1/(2 nu))^(-1)``."""
    return 1.0 - 1.0 / (2.0 + 1.0 / (2.0 * nu))


def predict_visibility(params: TmsvParams) -> float:
    """Pair-source interference visibility ``1 - (2 + 1/(2 nu))^(-1)``."""
    if params.nu <= 0:
        raise ValueError(f"nu must be > 0, got {params.nu}")
    return _visibility(params.nu)


def propagate_visibility_uncertainty(nu: float, nu_std: float) -> VisibilityPrediction:
    """Propagate the occupation uncertainty to the predicted visibility.

    ``v_std`` is the delta method's ``|dV/dnu| sigma_nu``.  ``V`` falls
    monotonically in ``nu``, so the image of ``nu -/+ sigma_nu`` is exactly
    ``v_band = (V(nu + sigma_nu), V(nu - sigma_nu))``; where
    ``nu - sigma_nu <= 0`` its upper end is 1, the limit of ``V`` as
    ``nu -> 0+``.
    """
    VisibilityParams(nu, nu_std)  # raises ValueError unless both are in range
    v_pred = predict_visibility(TmsvParams(nu=nu))
    g = 2.0 + 1.0 / (2.0 * nu)
    v_std = nu_std / (2.0 * nu**2 * g**2)
    upper = _visibility(nu - nu_std) if nu > nu_std else 1.0
    return VisibilityPrediction(nu, nu_std, v_pred, v_std, (_visibility(nu + nu_std), upper))


def _dip_profile(t0, sigma, t, y, w2):
    """Best ``(chi2, B, B V)`` under ``0 <= V <= 1`` at each ``(t0, sigma)`` pair.

    With ``g`` the Gaussian at ``(t0, sigma)`` the model ``B - (B V) g`` is a
    weighted straight line in ``g``.  Where that line's ``0 <= B V <= B`` it
    is the answer; otherwise the better of the edges ``V = 0`` (``B`` the
    weighted mean) and ``V = 1`` (``B`` the fit of ``y`` on ``1 - g``) is.
    ``chi2`` is summed from the residuals, not from expanded sums, so it stays
    exact near a perfect fit.
    """
    g = np.exp(-0.5 * ((t[:, None] - t0) / sigma) ** 2)  # one column per pair
    y_mean = w2 @ y / w2.sum()
    g_mean = w2 @ g / w2.sum()
    dg = g - g_mean
    with np.errstate(divide="ignore", invalid="ignore"):
        depth = (w2 * (y_mean - y)) @ dg / (w2 @ dg**2)
    h = 1.0 - g
    full = (w2 * y) @ h / (w2 @ h**2)
    b = np.stack([y_mean + depth * g_mean, np.full_like(full, y_mean), full])
    bv = np.stack([depth, np.zeros_like(full), full])
    chi2 = np.stack([
        w2 @ (y[:, None] - b[0] + depth * g) ** 2,
        np.full_like(full, w2 @ (y - y_mean) ** 2),
        w2 @ (y[:, None] - full * h) ** 2,
    ])
    chi2[0, ~((depth >= 0) & (depth <= b[0]))] = np.inf
    pick = np.argmin(chi2, axis=0), np.arange(len(t0))
    return chi2[pick], b[pick], bv[pick]


def fit_gaussian_dip(points) -> DipFit:
    """Weighted fit of ``B (1 - V exp(-(t-t0)^2/(2 sigma^2)))`` to a scan.

    Bounded variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10,
    413, 1973): ``_dip_profile`` solves ``B`` and ``B V`` in closed form with
    ``0 <= V <= 1``, which leaves a search over ``t0`` in ``[min t, max t]``
    and ``log sigma`` from half the smallest spacing of distinct ``t`` to the
    span.  A ``DIP_GRID_NODES``-square grid first covers that box; each
    round then centres the grid on the best node so far, and when no node
    beats the centre the grid shrinks to the centre's neighbours, until its
    half-width is below 1e-10 of the box.  ``n_iterations`` counts the
    rounds, and ``at_bound`` names the parameters left on a bound.  Each
    point is weighted by its own error; parameter errors are the square
    roots of the diagonal of the inverse weighted normal matrix of all four
    parameters at the solution (measurement errors taken as given).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must be (t2, correlation, error) triples")
    t, y, err = pts.T
    ts = np.array(sorted(set(t.tolist())))  # np.unique would import numpy.ma
    if len(ts) < 5:
        raise ValueError(f"need at least 5 distinct t2 values, got {len(ts)}")
    if np.any(err <= 0):
        raise ValueError("all point errors must be positive")
    w2 = err**-2.0
    lo = np.array([ts[0], math.log(np.diff(ts).min() / 2.0)])
    hi = np.array([ts[-1], math.log(ts[-1] - ts[0])])
    axis = np.linspace(-1.0, 1.0, DIP_GRID_NODES)
    centre, step, best, rounds = (lo + hi) / 2.0, (hi - lo) / 2.0, np.inf, 0
    while np.any(step > 1e-10 * (hi - lo)):
        rounds += 1
        nodes = np.clip(centre[:, None] + step[:, None] * axis, lo[:, None], hi[:, None])
        t0s, log_sigmas = (a.ravel() for a in np.meshgrid(*nodes, indexing="ij"))
        chi2s = _dip_profile(t0s, np.exp(log_sigmas), t, y, w2)[0]
        k = int(np.argmin(chi2s))
        if chi2s[k] < best:  # ties keep the centre, so a flat chi2 shrinks the grid
            best, centre = chi2s[k], np.array([t0s[k], log_sigmas[k]])
        else:
            step = step * 2.0 / (DIP_GRID_NODES - 1)
    t0_hat, sigma = float(centre[0]), float(np.exp(centre[1]))
    chi2, baseline, depth = (
        float(a[0]) for a in _dip_profile(centre[:1], np.exp(centre[1:]), t, y, w2)
    )
    visibility = depth / baseline
    at_bound = tuple(
        name
        for name, value, bounds in (
            ("visibility", visibility, (0.0, 1.0)),
            ("t0", centre[0], (lo[0], hi[0])),
            ("sigma", centre[1], (lo[1], hi[1])),
        )
        if value in bounds
    )

    gauss = np.exp(-0.5 * ((t - t0_hat) / sigma) ** 2)
    dt = t - t0_hat
    jac = np.column_stack([
        1.0 - visibility * gauss,
        -baseline * gauss,
        -baseline * visibility * gauss * dt / sigma**2,
        -baseline * visibility * gauss * dt**2 / sigma**3,
    ]) / err[:, None]
    try:
        covariance = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        raise FitFailureError(
            "singular normal matrix at the dip-fit solution",
            {"theta": [baseline, visibility, t0_hat, sigma], "chi2": chi2,
             "at_bound": list(at_bound)},
        ) from None
    errors = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    return DipFit(
        visibility=visibility,
        t0=t0_hat,
        sigma=sigma,
        baseline=baseline,
        baseline_err=float(errors[0]),
        visibility_err=float(errors[1]),
        t0_err=float(errors[2]),
        sigma_err=float(errors[3]),
        chi2=chi2,
        n_iterations=rounds,
        at_bound=at_bound,
    )
