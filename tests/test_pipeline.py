"""End-to-end reproduction of the published counting-statistics figures.

One matched simulation (45 cells, 1876 shots, detected means targeting
0.08-0.20) must yield a summed per-cell histogram consistent with a
thermal law, and a pooled histogram that a thermal fit cannot describe
but the M-mode law can.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from scipy import stats as sps

from twinbeam.analysis import (
    CellGrid,
    bin_events,
    cell_histograms,
    cell_means,
    filter_cells,
    pooled_counts_histogram,
    sum_histograms,
)
from twinbeam.distributions import multimode_log_pmf, poisson_pmf, thermal_pmf
from twinbeam.fitting import fit_degeneracy
from twinbeam.simulate import SourceConfig, simulate_counting_run


# Modes the size of the cells, one per cell, with a population profile wide
# enough to spread detected means over the published 0.08-0.20.
MATCHED_SOURCE = SourceConfig(
    nu_per_mode=0.95,
    eta=0.25,
    shots=1876,
    master_seed=20260811,
    peak_width=6.0,
    mode_widths=(1.1, 1.1, 0.5),
    mode_spacing=(5.5, 5.5, 2.5),
    modes_per_axis=(5, 5, 7),
)
# Bound, in standard errors, of an estimate about its exact target (bench/checks.Z_MAX).
Z_MAX = 5.0
# Seeds of the coverage test, and the central 99 % range of Bin(300, 0.95):
# the counts of fits that a 95 % error bar covers.
COVERAGE_SEEDS = range(1, 301)
COVERAGE_RANGE = (275, 294)


@pytest.fixture(scope="module")
def matched_chain():
    binned = bin_events(simulate_counting_run(MATCHED_SOURCE), MATCHED_SOURCE.shots, CellGrid())
    hists = cell_histograms(binned)
    means = cell_means(hists)
    kept = filter_cells(means, min_mean=0.135)
    return hists, means, kept, binned


@functools.cache
def mode_cell_masses(source, grid) -> tuple[np.ndarray, np.ndarray]:
    """Each mode's true mean ``nu_m``, and ``f[m, c]``, its Gaussian mass in cell ``c``.

    Cached, so callers must not write to the arrays.
    """
    axes, masses = [], []
    for n, s, c, w, lower, width, cells in zip(
        source.modes_per_axis, source.mode_spacing, source.grid_center, source.mode_widths,
        grid.origin, grid.cell_widths, grid.counts_per_axis,
    ):
        centres = (np.arange(n) - (n - 1) / 2.0) * s + c
        edges = lower + np.arange(cells + 1) * width
        cdf = [[0.5 * math.erfc((x - e) / (w * math.sqrt(2.0))) for e in edges] for x in centres]
        axes.append(centres - c)
        masses.append(np.diff(cdf, axis=1))
    r_sq = sum(np.meshgrid(*[a**2 for a in axes], indexing="ij"))
    nus = source.nu_per_mode * np.exp(-r_sq / (2.0 * source.peak_width**2)).ravel()
    return nus, np.einsum("ia,jb,kc->ijkabc", *masses).reshape(len(nus), -1)


def target_degeneracy(source, grid, kept) -> float:
    """The population target M* of the fixed-mean degeneracy fit on the kept cells.

    Mode m puts a thinned thermal count of mean ``mu_m = eta nu_m f_m``
    into the kept cells, ``f_m`` being its Gaussian mass there, so the
    pooled count is the convolution of these geometric laws.  M* maximises
    that law's expected negative-binomial log-likelihood at the exact mean
    ``sum mu_m``: the root of ``E[sum_{j<n} 1/(M + j)] + log(M / (M + mean))``.
    """
    nus, mass = mode_cell_masses(source, grid)
    mu = source.eta * nus * mass[:, kept].sum(axis=1)
    n = np.arange(120)
    law = np.zeros(len(n))
    law[0] = 1.0
    for m in mu:
        law = np.convolve(law, (m / (1 + m)) ** n / (1 + m))[: len(n)]
    mean = mu.sum()

    def score(M):
        return law[1:] @ np.cumsum(1.0 / (M + n[:-1])) + math.log(M / (M + mean))

    lo, hi = 1e-3, 1e6  # score > 0 below M*, < 0 above
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if score(mid) > 0 else (lo, mid)
    return lo


def pooled_chi2_p(occurrences, model_probs, n_fitted=0):
    total = occurrences.sum()
    width = max(len(occurrences), len(model_probs))
    obs = np.zeros(width)
    obs[: len(occurrences)] = occurrences
    exp = np.zeros(width)
    exp[: len(model_probs)] = model_probs * total
    k = width
    while k > 2 and exp[k - 1 :].sum() < 5.0:
        k -= 1
    obs_b = np.concatenate([obs[: k - 1], [obs[k - 1 :].sum()]])
    exp_b = np.concatenate([exp[: k - 1], [exp[k - 1 :].sum()]])
    exp_b *= obs_b.sum() / exp_b.sum()
    stat = float(((obs_b - exp_b) ** 2 / exp_b).sum())
    dof = len(obs_b) - 1 - n_fitted
    return float(sps.chi2.sf(stat, dof))


def test_cell_means_span_published_range(matched_chain):
    _, means, kept, _ = matched_chain
    assert means.min() > 0.02
    assert 0.05 < means.min() + 0.03 < 0.25
    assert means.max() < 0.25
    assert 8 <= len(kept) <= 26
    assert 0.135 <= means[kept].mean() <= 0.20


@pytest.mark.parametrize("source", [MATCHED_SOURCE, SourceConfig()], ids=["matched", "shipped"])
def test_every_cell_mean_within_z_max_of_its_exact_expectation(source):
    # A cell's count is a sum of independent thinned thermal counts, one per
    # mode, of means mu_m = eta nu_m f_m: its mean is sum mu_m and its
    # variance sum mu_m (1 + mu_m).
    grid = CellGrid()
    nus, mass = mode_cell_masses(source, grid)
    mu = source.eta * nus[:, None] * mass
    expected = mu.sum(axis=0)
    std_err = np.sqrt((mu * (1.0 + mu)).sum(axis=0) / source.shots)
    binned = bin_events(simulate_counting_run(source), source.shots, grid)
    means = cell_means(cell_histograms(binned))
    z = (means - expected) / std_err
    assert z.shape == (grid.n_cells,)
    assert np.abs(z).max() <= Z_MAX, z


@pytest.mark.parametrize("source", [MATCHED_SOURCE, SourceConfig()], ids=["matched", "shipped"])
def test_degeneracy_within_z_max_of_its_exact_target(source):
    # The pooled counts of the kept cells, fitted at their own mean, give an
    # M within Z_MAX standard errors of the population target M*.
    grid = CellGrid()
    binned = bin_events(simulate_counting_run(source), source.shots, grid)
    kept = filter_cells(cell_means(cell_histograms(binned)), min_mean=0.135)
    pooled = pooled_counts_histogram(binned.counts[:, kept])
    fit = fit_degeneracy(pooled, fixed_mean=cell_means(pooled))
    target = target_degeneracy(source, grid, kept)
    assert abs(fit.degeneracy - target) <= Z_MAX * fit.std_err, (fit.degeneracy, target, fit.std_err)


@pytest.mark.parametrize("source", [MATCHED_SOURCE, SourceConfig()], ids=["matched", "shipped"])
def test_degeneracy_std_err_covers_its_exact_target(source):
    # Each seed's pooled counts, fitted at their own mean, against the M* of
    # that seed's own kept cells at +-1.96 std_err.  A fit at a bound counts
    # as not covered, and no seed is left out.
    grid = CellGrid()
    targets = {}
    covered = 0
    for seed in COVERAGE_SEEDS:
        run = dataclasses.replace(source, master_seed=seed, shots=1876)
        binned = bin_events(simulate_counting_run(run), run.shots, grid)
        kept = filter_cells(cell_means(cell_histograms(binned)), min_mean=0.135)
        pooled = pooled_counts_histogram(binned.counts[:, kept])
        fit = fit_degeneracy(pooled, fixed_mean=cell_means(pooled))
        if (key := kept.tobytes()) not in targets:
            targets[key] = target_degeneracy(source, grid, kept)
        covered += not fit.at_bound and abs(fit.degeneracy - targets[key]) <= 1.96 * fit.std_err
    assert COVERAGE_RANGE[0] <= covered <= COVERAGE_RANGE[1], covered


def test_summed_histogram_is_thermal(matched_chain):
    hists, means, kept, _ = matched_chain
    summed = sum_histograms(hists[kept])
    p = pooled_chi2_p(summed, thermal_pmf(means[kept].mean(), 30).probs)
    assert p > 0.01


def test_pooled_histogram_rejects_thermal_accepts_multimode(matched_chain):
    _, _, kept, binned = matched_chain
    pooled = pooled_counts_histogram(binned.counts[:, kept])
    fit = fit_degeneracy(pooled, fixed_mean=cell_means(pooled))
    target = target_degeneracy(MATCHED_SOURCE, CellGrid(), kept)
    assert 1.0 < fit.degeneracy
    assert abs(fit.degeneracy - target) <= Z_MAX * fit.std_err

    p_thermal = pooled_chi2_p(pooled, thermal_pmf(cell_means(pooled), 40).probs)
    from twinbeam.distributions import multimode_pmf

    p_multi = pooled_chi2_p(
        pooled,
        multimode_pmf(cell_means(pooled), fit.degeneracy, 40).probs,
        n_fitted=1,
    )
    assert p_thermal < 0.01
    assert p_multi > 0.01


def test_pooled_counts_prefer_multimode_by_likelihood(matched_chain):
    _, _, kept, binned = matched_chain
    pooled = pooled_counts_histogram(binned.counts[:, kept])
    fit = fit_degeneracy(pooled, fixed_mean=cell_means(pooled))
    ns = np.flatnonzero(pooled)
    occ = pooled[ns]

    ll_multi = fit.log_likelihood
    ll_thermal = float(occ @ multimode_log_pmf(cell_means(pooled), 1.0, ns))
    with np.errstate(divide="ignore"):
        log_poisson = np.log(poisson_pmf(cell_means(pooled), int(ns.max())).probs[ns])
    ll_poisson = float(occ @ log_poisson)
    assert ll_multi > ll_thermal
    assert ll_multi > ll_poisson
