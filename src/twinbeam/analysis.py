"""Velocity-space cell analysis: binning, histograms, selection, bootstrap.

The chain mirrors how the detector data is reduced: events are binned
into a grid of contiguous velocity-space cells, each cell gets a
count-occurrence histogram over shots, low-occupancy cells are dropped,
and the survivors are either summed histogram-wise (single-mode view) or
pooled shot-wise (multimode view).  An occurrence histogram is a 1-D
integer array whose entry ``n`` counts the samples holding ``n`` atoms;
the per-cell histograms are the rows of one ``(cells, width)`` matrix and
the kept cells one array of flat indices.
Uncertainties come from resampling whole shots with replacement, shots
being the independent unit of the experiment.  Every bootstrapped
statistic is a shot mean of a per-shot row that takes few distinct
values, so a resample is a multinomial weight on the distinct rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import check_field, write_csv

__all__ = [
    "AnalysisParams",
    "CellGrid",
    "BinnedCounts",
    "bin_events",
    "cell_histograms",
    "cell_means",
    "filter_cells",
    "sum_histograms",
    "pooled_counts_histogram",
    "shot_histograms",
    "bootstrap_std",
    "write_cell_stats",
]

# Rows binned at a time by bin_events: a block's temporaries stay under 1 MB.
_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class CellGrid:
    """Axis-aligned box grid in velocity space (mm/s).

    Cells are half-open, ``[lower, upper)`` on every axis, so an event
    sitting exactly on an interior boundary lands in the higher-index
    cell.  ``origin`` is the lower corner; ``None`` centres the grid on
    zero velocity.
    """

    origin: tuple[float, float, float] | None = None
    cell_widths: tuple[float, float, float] = (5.5, 5.5, 2.5)
    counts_per_axis: tuple[int, int, int] = (3, 3, 5)

    def __post_init__(self):
        check_field(self, "origin", length=3, optional=True)
        check_field(self, "cell_widths", 0, positive=True, length=3)
        check_field(self, "counts_per_axis", 1, integer=True, length=3)
        if self.origin is None:
            origin = (-(n * w / 2.0) for n, w in zip(self.counts_per_axis, self.cell_widths))
            object.__setattr__(self, "origin", tuple(origin))

    @property
    def n_cells(self) -> int:
        nx, ny, nz = self.counts_per_axis
        return nx * ny * nz


@dataclass(frozen=True)
class AnalysisParams:
    """Cell-selection threshold and bootstrap size of a counting analysis."""

    min_mean: float = 0.135
    bootstrap_resamples: int = 1000

    def __post_init__(self):
        check_field(self, "min_mean", 0)
        check_field(self, "bootstrap_resamples", 2, integer=True)


@dataclass(frozen=True)
class BinnedCounts:
    """Per-shot, per-cell counts and per-shot dropped events, as :func:`bin_events` gives them."""

    counts: np.ndarray  # (shots, n_cells)
    dropped: np.ndarray  # (shots,)


def bin_events(events, grid: CellGrid) -> BinnedCounts:
    """Assign every event to at most one cell; out-of-grid events counted.

    ``events`` is an ``EventTable``; binning uses its ``shot`` and
    ``velocities`` columns.  Rows are binned ``_BLOCK_ROWS`` at a time into
    one preallocated count matrix, so the memory beyond that matrix does
    not grow with the number of events.
    """
    shape = grid.counts_per_axis
    origin, widths = np.asarray(grid.origin), np.asarray(grid.cell_widths)
    counts = np.zeros((events.n_shots, grid.n_cells), dtype=np.intp)
    dropped = np.zeros(events.n_shots, dtype=np.intp)
    for start in range(0, len(events.shot), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        shot = events.shot[rows]
        idx = np.floor((events.velocities[rows] - origin) / widths).astype(int)
        inside = np.all((idx >= 0) & (idx < shape), axis=1)
        cell = shot[inside] * grid.n_cells + np.ravel_multi_index(idx[inside].T, shape)
        np.add.at(counts.reshape(-1), cell, 1)
        np.add.at(dropped, shot[~inside], 1)
    return BinnedCounts(counts, dropped)


def cell_histograms(binned: BinnedCounts) -> np.ndarray:
    """Per-cell occurrence histograms, one ``(n_cells, width)`` matrix.

    Row ``c`` counts the shots in which cell ``c`` holds each count;
    ``width`` is the largest count of any cell plus one.
    """
    counts = binned.counts
    n_cells, width = counts.shape[1], counts.max(initial=0) + 1
    cell = counts + np.arange(n_cells) * width
    return np.bincount(cell.ravel(), minlength=n_cells * width).reshape(n_cells, width)


def cell_means(hists: np.ndarray) -> np.ndarray:
    """Mean count of each histogram row of ``hists``; a scalar for one 1-D histogram."""
    return hists @ np.arange(hists.shape[-1]) / hists.sum(axis=-1)


def filter_cells(means: np.ndarray, min_mean: float) -> np.ndarray:
    """Flat indices of the cells whose per-shot mean reaches ``min_mean``."""
    return np.flatnonzero(means >= min_mean)


def sum_histograms(hists: np.ndarray) -> np.ndarray:
    """Sum of the histogram rows ``hists``, e.g. ``cell_histograms(b)[kept]``.

    The result treats every (cell, shot) pair as one sample, so it sums to
    the shot count times the number of cells, and its width is the largest
    count present plus one.
    """
    if len(hists) == 0:
        raise ValueError("cannot sum an empty cell selection")
    return np.trim_zeros(hists.sum(axis=0), "b")


def pooled_counts_histogram(counts: np.ndarray) -> np.ndarray:
    """Histogram of the per-shot total of ``counts``, e.g. ``binned.counts[:, kept]``."""
    if counts.shape[1] == 0:
        raise ValueError("cannot pool an empty cell selection")
    return np.bincount(counts.sum(axis=1))


def shot_histograms(counts: np.ndarray, width: int) -> np.ndarray:
    """Per-shot occurrence histograms of integer ``counts``.

    ``counts`` is ``(shots,)`` or ``(shots, cells)`` with values below
    ``width``; row ``s`` of the ``(shots, width)`` result counts the
    cells of shot ``s`` holding each value.
    """
    counts = np.asarray(counts).reshape(len(counts), -1)
    n = len(counts)
    cell = np.arange(n)[:, None] * width + counts
    return np.bincount(cell.ravel(), minlength=n * width).reshape(n, width)


def bootstrap_std(
    rows, shots, resamples: int = AnalysisParams.bootstrap_resamples, seed: int = 0
):
    """Bootstrap standard deviation of the shot mean of per-shot rows.

    ``rows`` holds the distinct per-shot rows (scalars or vectors) along
    its first axis and ``shots[i]`` the number of shots showing row ``i``,
    e.g. ``np.unique(per_shot, axis=0, return_counts=True)``.  Drawing the
    ``n`` shots with replacement puts a Multinomial(``n``, ``shots / n``)
    weight on the distinct rows, so all ``resamples`` resamples are one
    ``multinomial`` draw ``W`` and the result is the SD of ``W @ rows / n``
    over them: a scalar for scalar rows, one SD per column otherwise.
    Seeded, hence deterministic.
    """
    rows, shots = np.asarray(rows), np.asarray(shots)
    n = int(shots.sum())
    if n == 0:
        raise ValueError("cannot bootstrap empty data")
    if resamples < 2:
        raise ValueError(f"resamples must be >= 2, got {resamples}")
    weights = np.random.default_rng(seed).multinomial(n, shots / n, size=resamples)
    return np.std(weights @ rows / n, axis=0, ddof=1)


def write_cell_stats(path, grid: CellGrid, means: np.ndarray, kept: np.ndarray) -> None:
    """CSV export with ``ix,iy,iz,mean,kept`` columns, one row per cell."""
    cells = np.arange(grid.n_cells)
    index = np.unravel_index(cells, grid.counts_per_axis)
    write_csv(path, "ix,iy,iz,mean,kept", *index, means, np.isin(cells, kept).astype(int))
