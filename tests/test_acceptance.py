"""Acceptance suite: every gate criterion at its stated tolerance.

Each test records a one-line pass/fail verdict (printed in the terminal
summary) and then asserts.  Criterion 5b is expected to fail: the exact
visibility approaches 1/2 from above (V(100) = 0.50125), so the stated
acceptance interval [0.4975, 0.5] cannot contain any faithfully computed
value; the test keeps the stated bounds rather than widening them.
"""

import hashlib
import json

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import stats as sps

from fock_reference import build_tmsv, marginal_counts
from twinbeam.analysis import (
    CellGrid,
    bin_events,
    cell_histograms,
    cell_means,
    filter_cells,
    pooled_counts_histogram,
    sum_histograms,
)
from twinbeam.cli import main
from twinbeam.config import default_config
from twinbeam.distributions import (
    DetectorModel,
    TmsvParams,
    binomial_thin,
    multimode_pmf,
    poisson_pmf,
    thermal_pmf,
)
from twinbeam.fitting import fit_degeneracy, fit_gaussian_dip
from twinbeam.fock import thermal_input_visibility, visibility_oracle
from twinbeam.simulate import (
    HomScanConfig,
    SourceConfig,
    correlation_scan,
    simulate_counting_run,
    simulate_hom_run,
)


def formula_visibility(nu):
    return 1.0 - 1.0 / (2.0 + 1.0 / (2.0 * nu))


def pooled_chisquare(occurrences, model_probs, min_expected=5.0, start=0):
    """Chi-square p-value with tail bins pooled to ``min_expected``."""
    total = occurrences.sum()
    width = max(len(occurrences), len(model_probs))
    obs = np.zeros(width)
    obs[: len(occurrences)] = occurrences
    exp = np.zeros(width)
    exp[: len(model_probs)] = model_probs * total
    k = width
    while k - 1 > start + 1 and exp[k - 1 :].sum() < min_expected:
        k -= 1
    obs_binned = np.concatenate([obs[start : k - 1], [obs[k - 1 :].sum()]])
    exp_binned = np.concatenate([exp[start : k - 1], [exp[k - 1 :].sum()]])
    if start == 0:
        exp_binned *= obs_binned.sum() / exp_binned.sum()
        stat, p = sps.chisquare(obs_binned, exp_binned)
        return float(p)
    stat = float(((obs_binned - exp_binned) ** 2 / exp_binned).sum())
    return float(sps.chi2.sf(stat, len(obs_binned)))


def test_acceptance_1_multimode_reduces_to_thermal(acceptance):
    worst = 0.0
    for nu in (0.1, 0.158, 0.8, 2.8):
        gap = np.max(np.abs(multimode_pmf(nu, 1.0, 60).probs - thermal_pmf(nu, 60).probs))
        worst = max(worst, float(gap))
    acceptance(
        "1 multimode law reduces to thermal at M=1",
        worst < 1e-12,
        f"sup-norm gap {worst:.2e} (tolerance 1e-12)",
    )
    assert worst < 1e-12


def test_acceptance_2_thinning_closure(acceptance):
    worst = 0.0
    for eta in (0.1, 0.25, 1.0):
        thinned = binomial_thin(thermal_pmf(0.632, 60), DetectorModel(eta=eta))
        ref = thermal_pmf(eta * 0.632, 60)
        worst = max(worst, float(np.max(np.abs(thinned.probs - ref.probs))))
    acceptance(
        "2 binomial thinning preserves the thermal form",
        worst < 1e-9,
        f"sup-norm gap {worst:.2e} over eta in {{0.1, 0.25, 1.0}} (tolerance 1e-9)",
    )
    assert worst < 1e-9


def test_acceptance_3_pair_state_marginal_is_thermal(acceptance):
    worst = 0.0
    for nu in (0.1, 0.33, 0.8, 1.0):
        state = build_tmsv(TmsvParams(nu=nu), 40)
        for mode in (0, 1):
            gap = np.max(np.abs(marginal_counts(state, mode).probs - thermal_pmf(nu, 40).probs))
            worst = max(worst, float(gap))
    acceptance(
        "3 pair-state marginal equals the thermal law",
        worst < 1e-10,
        f"sup-norm gap {worst:.2e} at n_max=40 (tolerance 1e-10)",
    )
    assert worst < 1e-10


def test_acceptance_4_visibility_oracle_matches_formula(acceptance):
    worst = 0.0
    for nu in (0.1, 0.33, 0.8):
        gap = abs(visibility_oracle(TmsvParams(nu=nu), n_max=60) - formula_visibility(nu))
        worst = max(worst, float(gap))
    rounded_ok = (
        round(visibility_oracle(TmsvParams(nu=0.33)), 2) == 0.72
        and round(visibility_oracle(TmsvParams(nu=0.8)), 2) == 0.62
    )
    ok = worst < 1e-6 and rounded_ok
    acceptance(
        "4 state-vector visibility equals the closed formula",
        ok,
        f"max |oracle - formula| {worst:.2e} (tolerance 1e-6); "
        f"rounded predictions 0.72/0.62 {'ok' if rounded_ok else 'WRONG'}",
    )
    assert ok


def test_acceptance_5a_thermal_input_bound(acceptance):
    v = thermal_input_visibility(0.5)
    ok = v <= 1.0 / 3.0 + 1e-3
    acceptance(
        "5a independent thermal inputs capped at 1/3",
        ok,
        f"visibility {v:.6f} <= 1/3 + 1e-3",
    )
    assert ok


def test_acceptance_5b_large_occupation_interval_as_stated(acceptance):
    v = visibility_oracle(TmsvParams(nu=100.0))
    ok = 0.4975 <= v <= 0.5
    acceptance(
        "5b large-occupation visibility inside [0.4975, 0.5]",
        ok,
        f"computed V(100) = {v:.7f}; the exact value 0.5012469 approaches 1/2 "
        "from above, so the stated interval excludes every faithful result "
        "(known defect of the stated bounds; see decisions ledger)",
    )
    assert ok


def _single_mode_grid_run():
    # 18 cells, one compact emitter per cell, uniform detected mean 0.158.
    config = SourceConfig(
        nu_per_mode=0.632,
        eta=0.25,
        shots=1876,
        master_seed=20260811,
        peak_width=None,
        mode_widths=(0.55, 0.55, 0.25),
        mode_spacing=(5.5, 5.5, 2.5),
        modes_per_axis=(3, 3, 2),
    )
    table = simulate_counting_run(config)
    grid = CellGrid(counts_per_axis=(3, 3, 2))
    hists = cell_histograms(bin_events(table, grid))
    return sum_histograms(hists[filter_cells(cell_means(hists), min_mean=0.0)])


def test_acceptance_6_counting_histogram_thermal_not_poisson(acceptance):
    summed = _single_mode_grid_run()
    p_thermal = pooled_chisquare(summed, thermal_pmf(0.158, 30).probs)
    p_poisson = pooled_chisquare(
        summed, poisson_pmf(0.158, 30).probs, start=2
    )
    ok = p_thermal > 0.01 and p_poisson < 0.01
    acceptance(
        "6 summed cell histogram is thermal, not Poisson",
        ok,
        f"thermal p = {p_thermal:.3f} (> 0.01), Poisson p (counts >= 2) = "
        f"{p_poisson:.2e} (< 0.01), 18 cells x 1876 shots",
    )
    assert ok


def test_acceptance_7_degeneracy_fit(acceptance):
    # Matched pipeline: default geometry, 45 cells, threshold 0.135.
    table = simulate_counting_run(SourceConfig())
    binned = bin_events(table, CellGrid())
    kept = filter_cells(cell_means(cell_histograms(binned)), min_mean=0.135)
    pooled = pooled_counts_histogram(binned.counts[:, kept])
    fit_sim = fit_degeneracy(pooled, fixed_mean=cell_means(pooled))
    sim_ok = 1.0 < fit_sim.degeneracy < 18.0 and abs(cell_means(pooled) - 2.8) < 0.5

    # Direct draw from the M-mode law at the published parameters.
    rng = np.random.default_rng(606)
    big = sps.nbinom.rvs(5.6, 5.6 / (5.6 + 2.8), size=1876 * 18, random_state=rng)
    fit_big = fit_degeneracy(np.bincount(big), fixed_mean=2.8)
    recover_ok = abs(fit_big.degeneracy - 5.6) < 2 * fit_big.std_err

    small = sps.nbinom.rvs(5.6, 5.6 / (5.6 + 2.8), size=1876, random_state=rng)
    fit_small = fit_degeneracy(np.bincount(small), fixed_mean=2.8)
    error_ok = 0.7 / 3 < fit_small.std_err < 0.7 * 3

    ok = sim_ok and recover_ok and error_ok
    acceptance(
        "7 degeneracy-parameter fit",
        ok,
        f"matched sim: pooled mean {cell_means(pooled):.2f}, M = {fit_sim.degeneracy:.2f} "
        f"+/- {fit_sim.std_err:.2f} in (1, 18); direct sample: M = "
        f"{fit_big.degeneracy:.2f} +/- {fit_big.std_err:.2f} (true 5.6); "
        f"error at 1876 samples {fit_small.std_err:.2f} ~ 0.7",
    )
    assert ok


@pytest.fixture(scope="module")
def hom_dips():
    """Fitted dips at three detection efficiencies, 1e4 shots/point."""
    t2_values = tuple(np.linspace(-260.0, 260.0, 13))
    fits = {}
    for i, eta in enumerate((0.1, 0.25, 1.0)):
        config = HomScanConfig(
            t2_values=t2_values,
            t0=0.0,
            sigma_m=86.0,
            nu=0.33,
            eta=eta,
            shots_per_point=10_000,
            master_seed=900 + i,
        )
        run = simulate_hom_run(config)
        fits[eta] = fit_gaussian_dip(correlation_scan(run, resamples=400))
    return fits


def test_acceptance_8_visibility_independent_of_efficiency(acceptance, hom_dips):
    pairs_ok = []
    detail = []
    etas = sorted(hom_dips)
    for i, ea in enumerate(etas):
        for eb in etas[i + 1 :]:
            fa, fb = hom_dips[ea], hom_dips[eb]
            gap = abs(fa.visibility - fb.visibility)
            bound = 2.0 * np.hypot(fa.visibility_err, fb.visibility_err)
            pairs_ok.append(gap <= bound)
            detail.append(f"|V({ea})-V({eb})| = {gap:.3f} <= {bound:.3f}")
    summary = "; ".join(
        f"V({eta}) = {fit.visibility:.3f} +/- {fit.visibility_err:.3f}"
        for eta, fit in sorted(hom_dips.items())
    )
    ok = all(pairs_ok)
    acceptance(
        "8 fitted dip visibility independent of detection efficiency",
        ok,
        summary + " | " + "; ".join(detail),
    )
    assert ok


def test_acceptance_9_dip_fit_exact_on_noiseless_data(acceptance):
    t = np.linspace(-300.0, 300.0, 15)
    truth = dict(baseline=0.38, visibility=0.78, t0=0.0, sigma=86.0)
    model = truth["baseline"] * (
        1 - truth["visibility"] * np.exp(-((t - truth["t0"]) ** 2) / (2 * truth["sigma"] ** 2))
    )
    fit = fit_gaussian_dip(np.column_stack([t, model, np.full(len(t), 0.01)]))
    scale = {"t0": truth["sigma"]}
    errors = {
        name: abs(getattr(fit, name) - value) / scale.get(name, abs(value))
        for name, value in truth.items()
    }
    worst = max(errors.values())
    acceptance(
        "9 noiseless dip parameters recovered exactly",
        worst < 1e-6,
        f"worst relative parameter error {worst:.2e} (tolerance 1e-6)",
    )
    assert worst < 1e-6


def _digest_tree(out_dir):
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(out_dir.iterdir())
    }


def test_acceptance_10_commands_rerun_byte_identical(acceptance, tmp_path):
    runner = CliRunner()
    doc = default_config()
    doc["source"]["shots"] = 200
    doc["analysis"]["bootstrap_resamples"] = 60
    doc["hom"].update({"shots_per_point": 150,
                       "t2_values": [-180.0, -60.0, 0.0, 60.0, 180.0]})
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc, indent=2))

    mismatches = []
    for attempt in ("one", "two"):
        base = tmp_path / attempt
        r = runner.invoke(main, ["simulate-source", "--config", str(config),
                                 "--out", str(base / "source")])
        assert r.exit_code == 0, r.output
        r = runner.invoke(main, ["analyze-counts",
                                 "--events", str(base / "source" / "events.csv"),
                                 "--config", str(config), "--out", str(base / "counts")])
        assert r.exit_code == 0, r.output
        r = runner.invoke(main, ["simulate-hom", "--config", str(config),
                                 "--out", str(base / "hom")])
        assert r.exit_code == 0, r.output
        r = runner.invoke(main, ["fit-dip", str(base / "hom" / "hom_scan.csv"),
                                 "--nu", "0.33", "--out", str(base / "dip")])
        assert r.exit_code == 0, r.output
        r = runner.invoke(main, ["predict-visibility", "--nu", "0.33",
                                 "--nu-std", "0.07", "--out", str(base / "pred")])
        assert r.exit_code == 0, r.output
    for sub in ("source", "counts", "hom", "dip", "pred"):
        if _digest_tree(tmp_path / "one" / sub) != _digest_tree(tmp_path / "two" / sub):
            mismatches.append(sub)
    ok = not mismatches
    acceptance(
        "10 command reruns are byte-identical",
        ok,
        "all five commands reproduced exactly" if ok else f"mismatch in {mismatches}",
    )
    assert ok
