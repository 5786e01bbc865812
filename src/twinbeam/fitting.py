"""Fits and predictions: degeneracy parameter, visibility, Gaussian dip.

The degeneracy fit maximizes the multinomial likelihood of the M-mode
thermal counting law with the mean held fixed at its measured value, so
the mode count is the only adjustable parameter; the maximum is the root
of the closed-form score in ``M``.  The interferometer dip
is fit by damped Gauss-Newton (Levenberg style) weighted least squares
with a free baseline.  Visibility predictions evaluate
``V = 1 - (2 + 1/(2 nu))^(-1)`` and propagate the occupation uncertainty
both to first order and by Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import CountHistogram
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
    bootstrap_std_err: float = None
    bootstrap_failed: int = 0

    def __post_init__(self):
        if self.degeneracy <= 0:
            raise ValueError(f"degeneracy must be > 0, got {self.degeneracy}")

    def to_dict(self) -> dict:
        return {
            "degeneracy": self.degeneracy,
            "std_err": self.std_err,
            "bootstrap_std_err": self.bootstrap_std_err,
            "bootstrap_failed": self.bootstrap_failed,
            "fixed_mean": self.fixed_mean,
            "log_likelihood": self.log_likelihood,
            "at_bound": self.at_bound,
        }


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
    converged: bool = True

    def __post_init__(self):
        if not -1e-9 <= self.visibility <= 1.0 + 1e-9:
            raise ValueError(f"visibility {self.visibility} outside [0, 1]")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.baseline <= 0:
            raise ValueError(f"baseline must be positive, got {self.baseline}")

    def to_dict(self) -> dict:
        return {
            "visibility": self.visibility,
            "visibility_err": self.visibility_err,
            "t0": self.t0,
            "t0_err": self.t0_err,
            "sigma": self.sigma,
            "sigma_err": self.sigma_err,
            "baseline": self.baseline,
            "baseline_err": self.baseline_err,
            "chi2": self.chi2,
            "n_iterations": self.n_iterations,
            "converged": self.converged,
        }

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
    v_std_mc: float
    clipped_fraction: float = 0.0

    def to_dict(self) -> dict:
        return {
            "nu": self.nu,
            "nu_std": self.nu_std,
            "v_pred": self.v_pred,
            "v_std": self.v_std,
            "v_std_mc": self.v_std_mc,
            "clipped_fraction": self.clipped_fraction,
        }


def fit_degeneracy(
    hist: CountHistogram,
    fixed_mean: float,
    bootstrap_resamples: int = 0,
    seed: int = 0,
    strict: bool = False,
) -> DegeneracyFit:
    """Fit the mode count of the M-mode thermal law to a count histogram.

    The mean is held at ``fixed_mean`` (the separately measured value) and
    the maximum-likelihood ``M`` is the root of the score in ``M`` inside
    ``DEGENERACY_BRACKET``, found by Newton steps in ``log M`` that bisect
    whenever a step would leave the bracket.  A score without a sign change
    on the bracket puts the fit at that edge, flagged via ``at_bound``, or
    raises ``FitFailureError`` when ``strict``.  With ``fixed_mean`` the
    sample mean, that edge is the upper one exactly when the sample variance
    is at most the mean (Levin & Reeds, Ann. Statist. 5, 79, 1977).
    ``std_err`` is ``1/sqrt(-dscore/dM)``, the observed information.
    ``bootstrap_resamples > 0`` adds a multinomial-resampling error from
    refits at the same ``fixed_mean``, strict when the fit found a root;
    refits that raise count in ``bootstrap_failed``.
    """
    if fixed_mean <= 0:
        raise ValueError(f"fixed_mean must be > 0, got {fixed_mean}")
    if np.count_nonzero(hist.occurrences) < 2:
        raise FitFailureError(
            "histogram is degenerate: fewer than two distinct counts observed",
            {"occurrences": hist.occurrences.tolist()},
        )
    occ, shots, mean = hist.occurrences, hist.total_shots, fixed_mean
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
    if edge is not None and strict:
        raise FitFailureError(
            "degeneracy score does not change sign on the bracket",
            {"bracket": DEGENERACY_BRACKET, "edge": edge},
        )
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

    bootstrap_std_err = None
    bootstrap_failed = 0
    if bootstrap_resamples > 0:
        rng = np.random.default_rng(seed)
        probs = occ / shots
        estimates = []
        for _ in range(bootstrap_resamples):
            resampled = CountHistogram(rng.multinomial(shots, probs), total_shots=shots)
            try:
                refit = fit_degeneracy(resampled, fixed_mean, strict=edge is None)
            except FitFailureError:
                bootstrap_failed += 1
                continue
            estimates.append(refit.degeneracy)
        if len(estimates) >= 2:
            bootstrap_std_err = float(np.std(estimates, ddof=1))

    return DegeneracyFit(
        degeneracy=m_hat,
        std_err=std_err,
        fixed_mean=fixed_mean,
        log_likelihood=log_likelihood,
        at_bound=edge is not None,
        bootstrap_std_err=bootstrap_std_err,
        bootstrap_failed=bootstrap_failed,
    )


def predict_visibility(params: TmsvParams) -> float:
    """Pair-source interference visibility ``1 - (2 + 1/(2 nu))^(-1)``."""
    if params.nu <= 0:
        raise ValueError(f"nu must be > 0, got {params.nu}")
    return 1.0 - 1.0 / (2.0 + 1.0 / (2.0 * params.nu))


def propagate_visibility_uncertainty(
    nu: float, nu_std: float, n_samples: int = 100_000, seed: int = 0
) -> VisibilityPrediction:
    """First-order propagation of the occupation uncertainty, MC checked.

    The delta method gives ``sigma_V = |dV/dnu| sigma_nu``; Monte Carlo
    sampling of ``nu`` cross-checks it.  Samples that land at or below
    zero are clipped to a small positive value and reported via
    ``clipped_fraction``.
    """
    VisibilityParams(nu, nu_std)  # raises ValueError unless both are in range
    v_pred = predict_visibility(TmsvParams(nu=nu))
    g = 2.0 + 1.0 / (2.0 * nu)
    v_std = nu_std / (2.0 * nu**2 * g**2)
    if nu_std == 0:
        return VisibilityPrediction(nu, nu_std, v_pred, 0.0, 0.0)
    rng = np.random.default_rng(seed)
    samples = rng.normal(nu, nu_std, n_samples)
    clipped = samples <= 0
    if clipped.any():
        samples = np.where(clipped, 1e-12, samples)
    values = 1.0 - 1.0 / (2.0 + 1.0 / (2.0 * samples))
    return VisibilityPrediction(
        nu=nu,
        nu_std=nu_std,
        v_pred=v_pred,
        v_std=v_std,
        v_std_mc=float(np.std(values, ddof=1)),
        clipped_fraction=float(clipped.mean()),
    )


def _dip_initial_guess(t, y):
    order = np.argsort(t)
    t_sorted, y_sorted = t[order], y[order]
    n_edge = max(1, int(round(0.15 * len(t))))
    baseline = float(np.mean(np.concatenate([y_sorted[:n_edge], y_sorted[-n_edge:]])))
    if baseline <= 0:
        baseline = max(float(np.mean(y)), 1e-12)
    t0 = float(t_sorted[np.argmin(y_sorted)])
    depth = baseline - float(np.min(y_sorted))
    vis = min(max(depth / baseline, 1e-3), 0.999)
    below = t_sorted[y_sorted < baseline - 0.5 * depth]
    if len(below) >= 2 and below.max() > below.min():
        sigma = (below.max() - below.min()) / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    else:
        sigma = (t_sorted.max() - t_sorted.min()) / 6.0
    return np.array([baseline, vis, t0, max(sigma, 1e-9)])


def fit_gaussian_dip(points, max_iterations: int = 200) -> DipFit:
    """Weighted fit of ``B (1 - V exp(-(t-t0)^2/(2 sigma^2)))`` to a scan.

    Damped Gauss-Newton with an adaptive Levenberg damping factor and the
    analytic Jacobian.  Initial values: baseline from the outer 30% of
    points, ``t0`` at the minimum, ``V`` from the depth-to-baseline
    ratio, ``sigma`` from the half-depth width.  Parameter errors are the
    square roots of the diagonal of the inverse weighted normal matrix at
    convergence (measurement errors taken as given).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must be (t2, correlation, error) triples")
    if len(pts) < 5:
        raise ValueError(f"need at least 5 points, got {len(pts)}")
    t, y, err = pts[:, 0], pts[:, 1], pts[:, 2]
    if np.any(err <= 0):
        raise ValueError("all point errors must be positive")
    w = 1.0 / err

    def residuals(theta):
        b, v, t0, sigma = theta
        gauss = np.exp(-((t - t0) ** 2) / (2.0 * sigma**2))
        model = b * (1.0 - v * gauss)
        return (y - model) * w, gauss

    def jacobian(theta, gauss):
        b, v, t0, sigma = theta
        dt = t - t0
        col_b = (1.0 - v * gauss) * w
        col_v = -b * gauss * w
        col_t0 = -b * v * gauss * dt / sigma**2 * w
        col_sigma = -b * v * gauss * dt**2 / sigma**3 * w
        return np.column_stack([col_b, col_v, col_t0, col_sigma])

    theta = _dip_initial_guess(t, y)
    damping = 1e-3
    r, gauss = residuals(theta)
    cost = float(r @ r)
    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        jac = jacobian(theta, gauss)
        normal = jac.T @ jac
        gradient = jac.T @ r
        stepped = False
        for _ in range(25):
            lhs = normal + damping * np.diag(np.diag(normal))
            try:
                delta = np.linalg.solve(lhs, gradient)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            trial = theta + delta
            trial[3] = abs(trial[3])
            if trial[3] == 0 or trial[0] <= 0:
                damping *= 10.0
                continue
            r_trial, gauss_trial = residuals(trial)
            cost_trial = float(r_trial @ r_trial)
            if cost_trial <= cost + 1e-15:
                rel_step = np.max(np.abs(delta) / (np.abs(theta) + 1e-12))
                theta, r, gauss = trial, r_trial, gauss_trial
                improvement = cost - cost_trial
                cost = cost_trial
                damping = max(damping / 3.0, 1e-12)
                stepped = True
                if rel_step < 1e-12 or improvement < 1e-15 * max(cost, 1.0):
                    converged = True
                break
            damping *= 10.0
        if converged:
            break
        if not stepped:
            # Damping saturated without improvement: stationary point.
            converged = True
            break

    if not converged:
        raise FitFailureError(
            f"dip fit did not converge in {max_iterations} iterations",
            {
                "theta": theta.tolist(),
                "chi2": cost,
                "damping": damping,
                "iterations": iteration,
            },
        )

    jac = jacobian(theta, gauss)
    try:
        covariance = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        raise FitFailureError(
            "singular normal matrix at the dip-fit solution",
            {"theta": theta.tolist(), "chi2": cost},
        ) from None
    errors = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    baseline, visibility, t0_hat, sigma = theta
    return DipFit(
        visibility=float(min(max(visibility, 0.0), 1.0)),
        t0=float(t0_hat),
        sigma=float(abs(sigma)),
        baseline=float(baseline),
        baseline_err=float(errors[0]),
        visibility_err=float(errors[1]),
        t0_err=float(errors[2]),
        sigma_err=float(errors[3]),
        chi2=cost,
        n_iterations=iteration,
        converged=True,
    )
