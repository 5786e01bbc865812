"""Tests for velocity-space binning, histograms, selection, bootstrap."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from memory_peak import traced_peak
from twinbeam import analysis
from twinbeam.analysis import (
    BinnedCounts,
    CellGrid,
    bin_events,
    bootstrap_std,
    cell_histograms,
    cell_means,
    filter_cells,
    pooled_counts_histogram,
    shot_histograms,
    sum_histograms,
    write_cell_stats,
)
from twinbeam.checks import write_csv, write_json
from twinbeam.distributions import thermal_pmf
from twinbeam.simulate import EventTable, HomRun, HomScanConfig, correlation_scan


def table_from_events(event_rows):
    """EventTable with one shot per entry of ``event_rows``."""
    per_shot = [np.asarray(rows, dtype=float).reshape(-1, 3) for rows in event_rows]
    return EventTable(
        shot=np.repeat(np.arange(len(per_shot)), [len(rows) for rows in per_shot]),
        velocities=np.concatenate([np.empty((0, 3)), *per_shot]),
        n_shots=len(per_shot),
        config={"shots": len(per_shot)},
    )


def bin_per_event(event_rows, grid):
    """Reference binning: one shot, one event and one axis at a time."""
    counts = np.zeros((len(event_rows), grid.n_cells), dtype=int)
    dropped = np.zeros(len(event_rows), dtype=int)
    for shot, events in enumerate(event_rows):
        for velocity in events:
            idx = tuple(
                math.floor((v - o) / w)
                for v, o, w in zip(velocity, grid.origin, grid.cell_widths)
            )
            if all(0 <= i < n for i, n in zip(idx, grid.counts_per_axis)):
                counts[shot, np.ravel_multi_index(idx, grid.counts_per_axis)] += 1
            else:
                dropped[shot] += 1
    return counts, dropped


# Exact binary widths, so origin + k * width / 2 lands on cell boundaries.
_GRID = CellGrid(origin=(-2.0, 0.0, -1.5), cell_widths=(1.0, 0.5, 2.0), counts_per_axis=(2, 3, 4))


def _axis(o, w, n):
    on_edges = st.integers(min_value=-3, max_value=2 * n + 3).map(lambda k: o + k * w / 2)
    return on_edges | st.floats(min_value=o - 3 * w, max_value=o + (n + 3) * w)


_VELOCITY = st.tuples(*map(_axis, _GRID.origin, _GRID.cell_widths, _GRID.counts_per_axis))


class TestCellGrid:
    def test_centered_origin(self):
        grid = CellGrid()
        assert grid.origin == pytest.approx((-8.25, -8.25, -6.25))
        assert grid.n_cells == 45

    def test_invalid_widths(self):
        with pytest.raises(ValueError):
            CellGrid(origin=(0, 0, 0), cell_widths=(1.0, 0.0, 1.0))


class TestBinEvents:
    def test_interior_boundary_goes_to_higher_cell(self):
        grid = CellGrid(origin=(0.0, 0.0, 0.0), cell_widths=(1.0, 1.0, 1.0),
                        counts_per_axis=(2, 2, 2))
        table = table_from_events([[(1.0, 0.5, 0.5)]])
        binned = bin_events(table, grid)
        flat = np.ravel_multi_index((1, 0, 0), (2, 2, 2))
        assert binned.counts[0, flat] == 1
        assert binned.counts[0].sum() == 1

    def test_empty_table(self):
        grid = CellGrid()
        binned = bin_events(table_from_events([[], []]), grid)
        assert binned.counts.sum() == 0
        assert binned.dropped.sum() == 0

    def test_out_of_grid_events_counted(self):
        grid = CellGrid(origin=(0.0, 0.0, 0.0), cell_widths=(1.0, 1.0, 1.0),
                        counts_per_axis=(2, 2, 2))
        table = table_from_events([[(-0.5, 0.5, 0.5), (0.5, 0.5, 0.5), (2.5, 0.5, 0.5)]])
        binned = bin_events(table, grid)
        assert binned.counts[0].sum() == 1
        assert binned.dropped[0] == 2

    def test_uniform_density_fills_cells_evenly(self):
        rng = np.random.default_rng(0)
        grid = CellGrid()
        lo = np.asarray(grid.origin)
        span = np.asarray(grid.cell_widths) * np.asarray(grid.counts_per_axis)
        shots = 400
        per_shot = 90
        rows = [lo + rng.random((per_shot, 3)) * span for _ in range(shots)]
        binned = bin_events(table_from_events(rows), grid)
        means = binned.counts.mean(axis=0)
        expected = per_shot / grid.n_cells
        sigma = np.sqrt(expected / shots)
        assert np.all(np.abs(means - expected) < 5 * sigma)
        assert binned.dropped.sum() == 0

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_count_conservation(self, seed):
        rng = np.random.default_rng(seed)
        grid = CellGrid()
        rows = [rng.normal(0.0, 8.0, size=(rng.integers(0, 40), 3)) for _ in range(10)]
        binned = bin_events(table_from_events(rows), grid)
        for shot, events in enumerate(rows):
            assert binned.counts[shot].sum() + binned.dropped[shot] == len(events)

    @given(st.lists(st.lists(_VELOCITY, max_size=8), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_equals_per_event_reference(self, event_rows):
        assert_bins_like_per_event_reference(event_rows)

    @given(st.lists(st.lists(_VELOCITY, max_size=8), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_equals_per_event_reference_in_blocks_of_three_rows(self, event_rows):
        # Shots straddle blocks, whole blocks fall outside the grid and
        # empty shots sit at block ends.
        with mock.patch.object(analysis, "_BLOCK_ROWS", 3):
            assert_bins_like_per_event_reference(event_rows)

    def test_memory_beyond_its_results_stays_under_2_mb(self):
        rng = np.random.default_rng(3)
        table = table_from_events([rng.normal(0.0, 8.0, size=(20, 3)) for _ in range(10_000)])
        binned, peak = traced_peak(bin_events, table, CellGrid())
        assert binned.counts.sum() + binned.dropped.sum() == 200_000
        assert peak <= binned.counts.nbytes + binned.dropped.nbytes + (2 << 20)


def assert_bins_like_per_event_reference(event_rows):
    binned = bin_events(table_from_events(event_rows), _GRID)
    counts, dropped = bin_per_event(event_rows, _GRID)
    assert np.array_equal(binned.counts, counts)
    assert np.array_equal(binned.dropped, dropped)


def histograms(*cells):
    """Histogram rows of per-cell count columns, one row per cell."""
    counts = np.column_stack(cells)
    return shot_histograms(counts.T, counts.max() + 1)


class TestCellHistograms:
    def test_all_zero_counts(self):
        grid = CellGrid()
        binned = bin_events(table_from_events([[] for _ in range(7)]), grid)
        hists = cell_histograms(binned)
        assert hists.shape == (grid.n_cells, 1)
        assert np.all(hists[:, 0] == 7)
        assert np.all(cell_means(hists) == 0.0)

    def test_histogram_totals_match_shots(self):
        rng = np.random.default_rng(1)
        rows = [rng.normal(0.0, 6.0, size=(20, 3)) for _ in range(50)]
        hists = cell_histograms(bin_events(table_from_events(rows), CellGrid()))
        assert np.all(hists.sum(axis=1) == 50)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        rows = [rng.normal(0.0, 6.0, size=(15, 3)) for _ in range(30)]
        hists = cell_histograms(bin_events(table_from_events(rows), CellGrid()))
        shuffled = [rows[i] for i in rng.permutation(len(rows))]
        assert_same_bytes(
            cell_histograms(bin_events(table_from_events(shuffled), CellGrid())), hists
        )

    def test_rows_and_means_equal_per_cell_reference(self):
        # Per cell: a bincount of its counts, and the mean as a Python
        # float of the integer sum divided by the shot count.
        rng = np.random.default_rng(9)
        counts = rng.geometric(1 / 1.16, size=(1876, 45)) - 1
        counts[:, 7] = 0
        binned = BinnedCounts(counts=counts, dropped=np.zeros(1876))
        hists = cell_histograms(binned)
        means = cell_means(hists)
        assert hists.shape == (45, counts.max() + 1)
        for cell in range(45):
            occ = np.bincount(counts[:, cell])
            assert np.array_equal(np.trim_zeros(hists[cell], "b"), occ)
            assert means[cell] == float(np.arange(len(occ)) @ occ) / 1876

    def test_memory_stays_within_a_quarter_over_one_count_matrix(self):
        rng = np.random.default_rng(5)
        counts = rng.geometric(1 / 1.16, size=(20_000, 45)) - 1
        hists, peak = traced_peak(cell_histograms, BinnedCounts(counts, np.zeros(20_000)))
        assert np.all(hists.sum(axis=1) == 20_000)
        assert peak <= 1.25 * counts.nbytes


class TestFilterCells:
    def test_threshold_zero_keeps_all(self):
        kept = filter_cells(np.array([0.0, 0.1, 0.2]), min_mean=0.0)
        assert len(kept) == 3

    def test_threshold_above_all_flags_empty(self):
        kept = filter_cells(np.array([0.1, 0.2]), min_mean=0.5)
        assert len(kept) == 0
        assert kept.dtype.kind == "i"

    def test_keeps_and_reports(self):
        means = np.array([0.1, 0.14, 0.2])
        kept = filter_cells(means, min_mean=0.135)
        assert kept.tolist() == [1, 2]
        assert means[kept].mean() == pytest.approx(0.17)


class TestSumHistograms:
    def test_single_cell_identity(self):
        hists = histograms([0, 1, 0, 2])
        summed = sum_histograms(hists)
        assert np.array_equal(summed, hists[0])
        assert summed.sum() == 4

    def test_order_invariance(self):
        hists = histograms(*([i, 1, 0, 2] for i in range(3)))
        a = sum_histograms(hists)
        b = sum_histograms(hists[::-1])
        assert np.array_equal(a, b)

    def test_width_is_largest_kept_count_plus_one(self):
        hists = histograms([0, 5, 0], [1, 1, 0], [2, 0, 0])
        assert hists.shape[1] == 6
        summed = sum_histograms(hists[[1, 2]])
        assert summed.tolist() == [3, 2, 1]
        assert summed.sum() == 6

    def test_simulated_thermal_cells_match_thermal_law(self):
        # 18 independent synthetic thermal cells at the measured mean.
        rng = np.random.default_rng(3)
        cells = [rng.geometric(1 / 1.158, size=1876) - 1 for i in range(18)]
        summed = sum_histograms(histograms(*cells))
        model = thermal_pmf(0.158, 20).probs * summed.sum()
        k = 5
        obs = np.zeros(k)
        obs[: len(summed[: k - 1])] = summed[: k - 1]
        obs[k - 1] = summed[k - 1 :].sum()
        exp = np.concatenate([model[: k - 1], [model[k - 1 :].sum()]])
        exp *= obs.sum() / exp.sum()
        _, p = sps.chisquare(obs, exp)
        assert p > 0.01

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            sum_histograms(histograms([0, 1, 2])[[]])


class TestPooledCounts:
    def test_single_cell_equals_own_histogram(self):
        rng = np.random.default_rng(4)
        rows = [rng.normal(0.0, 3.0, size=(6, 3)) for _ in range(40)]
        binned = bin_events(table_from_events(rows), CellGrid())
        hists = cell_histograms(binned)
        target = int(np.argmax(cell_means(hists)))
        pooled = pooled_counts_histogram(binned.counts[:, [target]])
        assert np.array_equal(pooled, np.trim_zeros(hists[target], "b"))

    def test_pooled_mean_adds_cell_means(self):
        rng = np.random.default_rng(5)
        rows = [rng.normal(0.0, 6.0, size=(25, 3)) for _ in range(100)]
        binned = bin_events(table_from_events(rows), CellGrid())
        means = cell_means(cell_histograms(binned))
        kept = filter_cells(means, min_mean=0.0)
        pooled = pooled_counts_histogram(binned.counts[:, kept])
        assert cell_means(pooled) == pytest.approx(means.sum(), rel=1e-12)

    def test_empty_selection_rejected(self):
        rows = [[(0.0, 0.0, 0.0)]]
        binned = bin_events(table_from_events(rows), CellGrid())
        with pytest.raises(ValueError):
            pooled_counts_histogram(binned.counts[:, []])


def assert_same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def sd_tolerance(resamples, z=4.0):
    """``z`` times the relative standard error of an SD estimated from
    ``resamples`` near-normal values, ``1/sqrt(2 (R - 1))``."""
    return z / math.sqrt(2 * (resamples - 1))


class TestBootstrapStd:
    def test_constant_statistic_is_zero(self):
        assert bootstrap_std([7], [100], resamples=200, seed=0) == 0.0
        err = bootstrap_std([[3, 1]], [500], resamples=200, seed=0)
        assert_same_bytes(err, np.zeros(2))

    def test_mean_statistic_matches_analytic_error(self):
        rng = np.random.default_rng(6)
        data = rng.geometric(1 / 1.158, size=10_000) - 1
        boot = float(bootstrap_std(*np.unique(data, return_counts=True), 1000, seed=1))
        analytic = data.std() / math.sqrt(len(data))
        assert abs(boot - analytic) / analytic < sd_tolerance(1000)

    def test_vector_statistic(self):
        # One-hot rows of the distinct per-shot values: each column's SD is
        # the binomial sqrt(p (1 - p) / n) of that value's frequency, and it
        # is the SD the column alone gets under the same draws.
        rng = np.random.default_rng(8)
        _, shots = np.unique(rng.integers(0, 4, size=2000), return_counts=True)
        rows = np.eye(len(shots))
        err = bootstrap_std(rows, shots, resamples=1000, seed=2)
        assert err.shape == (len(shots),)
        p = shots / shots.sum()
        analytic = np.sqrt(p * (1 - p) / shots.sum())
        assert np.all(np.abs(err - analytic) / analytic < sd_tolerance(1000))
        for column in range(len(shots)):
            alone = bootstrap_std(rows[:, column], shots, resamples=1000, seed=2)
            assert alone == pytest.approx(err[column], rel=1e-12)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(7)
        rows, shots = np.unique(rng.integers(0, 9, size=(500, 2)), axis=0, return_counts=True)
        a = bootstrap_std(rows, shots, resamples=300, seed=9)
        assert_same_bytes(a, bootstrap_std(rows, shots, resamples=300, seed=9))
        assert not np.array_equal(a, bootstrap_std(rows, shots, resamples=300, seed=10))

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            bootstrap_std(np.empty((0, 2)), np.empty(0, dtype=int))

    @pytest.mark.parametrize("resamples", [0, 1])
    def test_fewer_than_two_resamples_rejected(self, resamples):
        with pytest.raises(ValueError, match="resamples"):
            bootstrap_std([0, 1], [5, 5], resamples=resamples)

    def test_rows_and_shot_counts_must_align(self):
        with pytest.raises(ValueError):
            bootstrap_std([0, 1, 2], [5, 5])

    def test_scan_point_without_coincidences_gets_floor(self):
        counts_a = np.array([[0, 2, 0, 1], [1, 1, 2, 0]])
        counts_b = np.array([[3, 0, 0, 0], [1, 2, 1, 1]])
        config = HomScanConfig(t2_values=(0.0, 1.0), master_seed=5)
        run = HomRun(config, counts_a, counts_b, (0.0, 0.0))
        (_, corr_0, err_0), (_, corr_1, err_1) = correlation_scan(run, resamples=50)
        assert (corr_0, err_0) == (0.0, 0.25)
        assert corr_1 == 1.25 and err_1 > 0.25


class TestShotHistograms:
    def test_rows_count_cell_values(self):
        counts = np.array([[0, 2, 2], [1, 0, 0], [0, 0, 0]])
        assert_same_bytes(
            shot_histograms(counts, 4),
            np.array([[1, 0, 2, 0], [2, 1, 0, 0], [3, 0, 0, 0]]),
        )

    def test_one_dimensional_counts(self):
        assert_same_bytes(
            shot_histograms(np.array([2, 0]), 3), np.array([[0, 0, 1], [1, 0, 0]])
        )


class TestSerialization:
    def test_cell_stats_csv(self, tmp_path):
        grid = CellGrid(counts_per_axis=(1, 1, 2))
        means = cell_means(histograms([0, 1], [2, 2]))
        kept = filter_cells(means, min_mean=1.0)
        path = tmp_path / "cells.csv"
        write_cell_stats(path, grid, means, kept)
        lines = path.read_text().splitlines()
        assert lines[0] == "ix,iy,iz,mean,kept"
        assert lines[1] == "0,0,0,0.5,0"
        assert lines[2] == "0,0,1,2.0,1"

    def test_result_csv_values_are_plain_repr(self, tmp_path):
        floats = [0.1, -0.0, 1e-300, 5e-324]
        path = tmp_path / "values.csv"
        write_csv(
            path,
            "a,b,c,d,e",
            np.array([3, -1, 0, 2**62], dtype=np.int64),
            np.array(floats),
            [7, -2, 0, 1],
            floats,
            [np.float64(x) for x in floats],
        )
        text = path.read_text()
        assert "np." not in text
        assert text.splitlines() == [
            "a,b,c,d,e",
            "3,0.1,7,0.1,0.1",
            "-1,-0.0,-2,-0.0,-0.0",
            "0,1e-300,0,1e-300,1e-300",
            f"{2**62},5e-324,1,5e-324,5e-324",
        ]
        read = [float(line.split(",")[1]) for line in text.splitlines()[1:]]
        assert [math.copysign(1.0, x) for x in read] == [math.copysign(1.0, x) for x in floats]
        assert read == floats

    def test_result_csv_columns_must_align(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "ragged.csv", "a,b", [1, 2], [1.0])

    def test_result_json_form(self, tmp_path):
        payload = {"b": [1, (2.5, None)], "a": {"z": -0.0, "y": 5e-324}, "c": True}
        path = tmp_path / "result.json"
        write_json(path, payload)
        assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
