"""End-to-end reproduction of the published counting-statistics figures.

One matched simulation (45 cells, 1876 shots, detected means targeting
0.08-0.20) must yield a summed per-cell histogram consistent with a
thermal law, and a pooled histogram that a thermal fit cannot describe
but the M-mode law can.
"""

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


@pytest.fixture(scope="module")
def matched_chain():
    # Modes the size of the cells, one per cell, with a population profile
    # wide enough to spread detected means over the published 0.08-0.20.
    config = SourceConfig(
        nu_per_mode=0.95,
        eta=0.25,
        shots=1876,
        master_seed=20260811,
        peak_width=6.0,
        mode_widths=(1.1, 1.1, 0.5),
        mode_spacing=(5.5, 5.5, 2.5),
        modes_per_axis=(5, 5, 7),
    )
    table = simulate_counting_run(config)
    binned = bin_events(table, CellGrid())
    hists = cell_histograms(binned)
    means = cell_means(hists)
    kept = filter_cells(means, min_mean=0.135)
    return hists, means, kept, binned


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


def test_summed_histogram_is_thermal(matched_chain):
    hists, means, kept, _ = matched_chain
    summed = sum_histograms(hists[kept])
    p = pooled_chi2_p(summed.occurrences, thermal_pmf(means[kept].mean(), 30).probs)
    assert p > 0.01


def test_pooled_histogram_rejects_thermal_accepts_multimode(matched_chain):
    _, _, kept, binned = matched_chain
    pooled = pooled_counts_histogram(binned.counts[:, kept])
    fit = fit_degeneracy(pooled, fixed_mean=pooled.mean)
    assert 1.0 < fit.degeneracy < 18.0

    p_thermal = pooled_chi2_p(pooled.occurrences, thermal_pmf(pooled.mean, 40).probs)
    from twinbeam.distributions import multimode_pmf

    p_multi = pooled_chi2_p(
        pooled.occurrences,
        multimode_pmf(pooled.mean, fit.degeneracy, 40).probs,
        n_fitted=1,
    )
    assert p_thermal < 0.01
    assert p_multi > 0.01


def test_pooled_counts_prefer_multimode_by_likelihood(matched_chain):
    _, _, kept, binned = matched_chain
    pooled = pooled_counts_histogram(binned.counts[:, kept])
    fit = fit_degeneracy(pooled, fixed_mean=pooled.mean)
    ns = np.flatnonzero(pooled.occurrences)
    occ = pooled.occurrences[ns]

    ll_multi = fit.log_likelihood
    ll_thermal = float(occ @ multimode_log_pmf(pooled.mean, 1.0, ns))
    with np.errstate(divide="ignore"):
        log_poisson = np.log(poisson_pmf(pooled.mean, int(ns.max())).probs[ns])
    ll_poisson = float(occ @ log_poisson)
    assert ll_multi > ll_thermal
    assert ll_multi > ll_poisson
