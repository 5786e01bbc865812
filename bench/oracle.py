"""The ``fock-oracle`` workload: library evaluations of the closed-form laws.

Each operation is one call into ``twinbeam.fock`` or
``twinbeam.distributions`` plus its check against a value computed here
with ``math`` and numpy.  Only the call is timed.  Functions are looked up
on their module at call time, so a traced worker's wrappers see them.

Two sets of operations fail on the current code, on inputs that do not
depend on the seed, so their count is the same in every round:

* ``thermal_tail``: ``thermal_pmf`` at its default support on a fixed
  20,000-point grid of ``nu`` in [1e-3, 20].  The tail rule has no
  floating-point margin, so 4 of these points hold less than
  ``1 - TAIL_TOLERANCE`` of the mass.
* ``hom_default_n_max``: ``hom_joint_pmf`` at its fixed default
  ``n_max = 12`` for ``nu`` in {1, 3}; the truncated law misses the
  closed-form cross correlation by 0.9-52 %.

The seed moves every other grid by a few per cent (or draws it), so the
cost of a round barely depends on the seed.
"""

from __future__ import annotations

import hashlib
import math
import time

import numpy as np

from checks import cross_correlation_form, visibility_formula

# Failure tags that name a known fault; any other failure is unexpected.
KNOWN_FAULTS = ("thermal_tail", "hom_default_n_max")

HOM_NU = 0.33
HOM_TOL = 5e-5
VISIBILITY_TOL = 1e-6
THIN_TOL = 1e-9
VALUE_RTOL = 1e-8


def _jitter(grid: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Scale each point down by up to 2 %, so a grid's top stays its top."""
    return grid * np.exp(-0.02 * rng.random(len(grid)))


class Round:
    """Runs the operations of one round and keeps their outcomes."""

    def __init__(self, modules):
        self.d, self.f = modules
        self.tail_tolerance = self.d.TAIL_TOLERANCE
        self.attempted = 0
        self.failures = []  # (operation index, tag, message)
        self.call_s = 0.0
        self.digests = {}

    def call(self, group: str, fn, *args, **kwargs):
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # an operation that raises has failed
            self.call_s += time.perf_counter() - start
            self.fail(group, f"{fn.__name__}{args} raised {exc!r}")
            return None
        self.call_s += time.perf_counter() - start
        digest = self.digests.setdefault(group, hashlib.sha256())
        digest.update(np.asarray(getattr(result, "probs", result), dtype=float).tobytes())
        return result

    def fail(self, tag: str, message: str) -> None:
        """Record a failure of the operation attempted last."""
        self.failures.append((self.attempted, tag, message))

    def check_mass(self, tag: str, pmf, label: str) -> bool:
        if pmf.probs.sum() < 1.0 - self.tail_tolerance:
            self.fail(tag, f"{label} holds {pmf.probs.sum()!r} < 1 - TAIL_TOLERANCE")
            return False
        return True

    def check_values(self, tag: str, pmf, log_expected: np.ndarray, label: str) -> None:
        if not np.allclose(pmf.probs, np.exp(log_expected), rtol=VALUE_RTOL, atol=1e-300):
            self.fail(tag, f"{label} values differ from the closed form")


def _log_lgamma(values) -> np.ndarray:
    return np.array([math.lgamma(v) for v in values])


def run_round(seed: int, modules) -> Round:
    d, f = modules
    rng = np.random.default_rng(seed)
    r = Round(modules)

    # Brute-force visibility of the pair source against the formula.
    for nu in _jitter(np.geomspace(0.02, 100.0, 12), rng).tolist():
        v = r.call("visibility", f.visibility_oracle, d.TmsvParams(nu=nu))
        if v is not None and abs(v - visibility_formula(nu)) > VISIBILITY_TOL:
            r.fail("visibility", f"visibility_oracle({nu}) = {v} vs {visibility_formula(nu)}")

    # Independent thermal inputs interfere with visibility 1/3 at any nu.
    for nu in _jitter(np.geomspace(0.1, 5.0, 5), rng).tolist():
        v = r.call("thermal_input", f.thermal_input_visibility, nu)
        if v is not None and abs(v - 1.0 / 3.0) > VISIBILITY_TOL:
            r.fail("thermal_input", f"thermal_input_visibility({nu}) = {v}")

    # Joint port law at explicit supports against the closed-form <n_a n_b>.
    lams = np.concatenate([[0.0, 1.0], rng.random(4)])
    for n_max in (16, 18, 20):
        for lam in lams:
            _check_hom(r, "hom", HOM_NU, float(lam), n_max)
    for nu in (1.0, 3.0):
        for lam in (0.0, 0.5, 1.0):
            _check_hom(r, "hom_default_n_max", nu, lam, None)

    # Thermal law at its default support on the fixed grid of fault (a).
    for nu in np.linspace(1e-3, 20.0, 20_000).tolist():
        pmf = r.call("thermal_tail", d.thermal_pmf, nu)
        if pmf is not None:
            n = np.arange(pmf.n_max + 1)
            r.check_mass("thermal_tail", pmf, f"thermal_pmf({nu!r})")
            r.check_values("thermal_values", pmf, n * math.log(nu) - (n + 1) * math.log1p(nu),
                           f"thermal_pmf({nu!r})")

    # Multimode law over (nu, M).  Its tail rule keeps a margin of two terms,
    # so the missing mass comes within 1e-12 of the 1e-10 allowance when
    # nu >> M (9.9e-11 at M = 0.1, nu = 28).  With M >= 1 and nu <= 20 it
    # stayed below 9.3e-11 in 40,000 draws, so no seed fails here by chance.
    for nu, m in zip(np.exp(rng.uniform(math.log(1e-3), math.log(20.0), 1500)),
                     np.exp(rng.uniform(0.0, math.log(100.0), 1500))):
        nu, m = float(nu), float(m)
        pmf = r.call("multimode", d.multimode_pmf, nu, m)
        if pmf is not None and r.check_mass("multimode", pmf, f"multimode_pmf({nu!r}, {m!r})"):
            n = np.arange(pmf.n_max + 1)
            log_p = (_log_lgamma(n + m) - _log_lgamma(n + 1.0) - math.lgamma(m)
                     - n * math.log1p(m / nu) - m * math.log1p(nu / m))
            r.check_values("multimode", pmf, log_p, f"multimode_pmf({nu!r}, {m!r})")

    for mean in np.exp(rng.uniform(math.log(1e-3), math.log(200.0), 1500)):
        mean = float(mean)
        pmf = r.call("poisson", d.poisson_pmf, mean)
        if pmf is not None and r.check_mass("poisson", pmf, f"poisson_pmf({mean!r})"):
            n = np.arange(pmf.n_max + 1)
            log_p = n * math.log(mean) - mean - _log_lgamma(n + 1.0)
            r.check_values("poisson", pmf, log_p, f"poisson_pmf({mean!r})")

    # Thinning maps thermal(nu) onto thermal(eta nu).  The input support is
    # chosen here with a tenfold tail margin, so fault (a) is counted once,
    # on its fixed grid, and cannot leak into these seeded operations.
    for nu, eta in zip(rng.uniform(0.01, 10.0, 150), rng.uniform(0.05, 1.0, 150)):
        nu, eta = float(nu), float(eta)
        x = nu / (1.0 + nu)
        n_max = math.ceil(math.log(r.tail_tolerance / 10.0) / math.log(x))
        thinned = r.call("thinning", lambda: d.binomial_thin(d.thermal_pmf(nu, n_max),
                                                             d.DetectorModel(eta)))
        label = f"binomial_thin({nu!r}, {eta!r})"
        if thinned is not None and r.check_mass("thinning", thinned, label):
            mu = eta * nu
            n = np.arange(n_max + 1)
            expected = np.exp(n * math.log(mu) - (n + 1) * math.log1p(mu))
            gap = float(np.max(np.abs(thinned.probs - expected)))
            if gap > THIN_TOL:
                r.fail("thinning", f"{label} is off thermal(eta nu) by {gap:.2e}")
    return r


def _check_hom(r: Round, tag: str, nu: float, lam: float, n_max) -> None:
    d, f = r.d, r.f
    kwargs = {} if n_max is None else {"n_max": n_max}
    joint = r.call(tag, f.hom_joint_pmf, d.TmsvParams(nu=nu), f.OverlapModel(lam=lam), **kwargs)
    if joint is None:
        return
    probs = joint.probs
    corr = float(np.arange(probs.shape[0]) @ probs @ np.arange(probs.shape[1]))
    expected = cross_correlation_form(nu, lam)
    if abs(corr - expected) > HOM_TOL:
        r.fail(tag, f"hom_joint_pmf(nu={nu}, lam={lam:.4f}, n_max={n_max}): "
                    f"<n_a n_b> = {corr!r} vs {expected!r}")
