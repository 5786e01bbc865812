"""Velocity-space cell analysis: binning, histograms, selection, shot-mean errors.

The chain mirrors how the detector data is reduced: events are binned
into a grid of contiguous velocity-space cells, each cell gets a
count-occurrence histogram over shots, low-occupancy cells are dropped,
and the survivors are either summed histogram-wise (single-mode view) or
pooled shot-wise (multimode view).  An occurrence histogram is a 1-D
integer array whose entry ``n`` counts the samples holding ``n`` atoms;
the per-cell histograms are the rows of one ``(cells, width)`` matrix and
the kept cells one array of flat indices.  Per-shot cell counts start in
one byte a cell and widen to ``intp`` before a block of events could
overflow them.
Shots are the independent unit of the experiment, and every error here
is the standard error of a shot mean, :func:`mean_std_err`, in closed
form: the standard deviation of the mean over every redraw of the shots
with replacement (Efron & Tibshirani, *An Introduction to the Bootstrap*,
1993, ch. 6).
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
    "kept_shot_rows",
    "mean_std_err",
    "bootstrap_std",
    "write_cell_stats",
]

# Rows binned at a time by bin_events: a block's temporaries stay under 256 KB.
_BLOCK_ROWS = 2048
# Shots histogrammed at a time by cell_histograms, shot_histograms and kept_shot_rows.
_HIST_ROWS = 256


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
    """Cell-selection threshold of a counting analysis: the least per-shot mean a kept cell has."""

    min_mean: float = 0.135

    def __post_init__(self):
        check_field(self, "min_mean", 0)


@dataclass(frozen=True)
class BinnedCounts:
    """Per-shot, per-cell counts and per-shot dropped events, as :func:`bin_events` gives them.

    ``counts`` is ``uint8`` unless some shot binned more than 255 events,
    and ``intp`` then; compute with Python ints, not its scalars.
    """

    counts: np.ndarray  # (shots, n_cells)
    dropped: np.ndarray  # (shots,)


def bin_events(blocks, n_shots: int, grid: CellGrid) -> BinnedCounts:
    """Assign every event of ``blocks`` to at most one cell; out-of-grid events counted.

    ``blocks`` yields ``(shot, velocities)`` columns of events, in any
    order.  Rows are binned ``_BLOCK_ROWS`` at a time into one
    preallocated count matrix, so the memory beyond that matrix and one
    block does not grow with the number of events.  The matrix starts as
    ``uint8``; each shot's binned total, which no cell of the shot
    exceeds, is kept next to ``dropped``, and once a block would take a
    total past 255 the matrix is widened to ``intp`` before the block is
    added, so no count wraps.
    """
    shape = grid.counts_per_axis
    origin, widths = np.asarray(grid.origin), np.asarray(grid.cell_widths)
    counts = np.zeros((n_shots, grid.n_cells), dtype=np.uint8)
    dropped = np.zeros(n_shots, dtype=np.intp)
    totals = np.zeros(n_shots, dtype=np.intp)
    for block_shot, block_velocities in blocks:
        for start in range(0, len(block_shot), _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            shot = block_shot[rows]
            idx = np.floor((block_velocities[rows] - origin) / widths).astype(int)
            inside = np.all((idx >= 0) & (idx < shape), axis=1)
            binned = shot[inside]
            cell = binned * grid.n_cells + np.ravel_multi_index(idx[inside].T, shape)
            np.add.at(totals, binned, 1)
            if counts.dtype == np.uint8 and totals[binned].max(initial=0) > 255:
                counts = counts.astype(np.intp)
            np.add.at(counts.reshape(-1), cell, 1)
            np.add.at(dropped, shot[~inside], 1)
    return BinnedCounts(counts, dropped)


def cell_histograms(binned: BinnedCounts) -> np.ndarray:
    """Per-cell occurrence histograms, one ``(n_cells, width)`` matrix.

    Row ``c`` counts the shots in which cell ``c`` holds each count;
    ``width`` is the largest count of any cell plus one.  Shots are
    histogrammed ``_HIST_ROWS`` at a time, so no temporary is the size of
    the count matrix.
    """
    counts = binned.counts
    n_cells, width = counts.shape[1], int(counts.max(initial=0)) + 1
    offsets = np.arange(n_cells) * width
    hists = np.zeros(n_cells * width, dtype=np.intp)
    for start in range(0, len(counts), _HIST_ROWS):
        cell = counts[start : start + _HIST_ROWS] + offsets
        hists += np.bincount(cell.ravel(), minlength=n_cells * width)
    return hists.reshape(n_cells, width)


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
    return np.bincount(counts.sum(axis=1, dtype=np.intp))


def shot_histograms(counts: np.ndarray, width: int) -> np.ndarray:
    """Per-shot occurrence histograms of integer ``counts``.

    ``counts`` is ``(shots,)`` or ``(shots, cells)`` with values below
    ``width``; row ``s`` of the ``(shots, width)`` result counts the
    cells of shot ``s`` holding each value.  Shots are histogrammed
    ``_HIST_ROWS`` at a time, so no temporary is the size of ``counts``.
    """
    counts = np.asarray(counts).reshape(len(counts), -1)
    hists = np.empty((len(counts), width), dtype=np.intp)
    for start in range(0, len(counts), _HIST_ROWS):
        block = counts[start : start + _HIST_ROWS]
        cell = np.arange(len(block))[:, None] * width + block
        hists[start : start + len(block)] = np.bincount(
            cell.ravel(), minlength=len(block) * width
        ).reshape(-1, width)
    return hists


def kept_shot_rows(counts: np.ndarray, kept: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-value sums of squares and per-shot totals of the ``kept`` columns of ``counts``.

    With ``x[s, v]`` the number of kept cells of shot ``s`` holding ``v``,
    i.e. ``shot_histograms(counts[:, kept], width)``, entry ``v`` of the
    first ``intp`` result is ``sum_s x[s, v]**2``, and entry ``s`` of the
    second is ``counts[s, kept].sum()``.  The kept columns are taken
    ``_HIST_ROWS`` shots at a time, never copied whole, so the memory
    beyond the totals does not grow with the shots.
    """
    squares = np.zeros(width, dtype=np.intp)
    totals = np.empty(len(counts), dtype=np.intp)
    for start in range(0, len(counts), _HIST_ROWS):
        block = counts[start : start + _HIST_ROWS, kept]
        hists = shot_histograms(block, width)
        squares += (hists * hists).sum(axis=0)
        totals[start : start + len(block)] = block.sum(axis=1, dtype=np.intp)
    return squares, totals


def mean_std_err(sums, sums_sq, n: int) -> np.ndarray:
    """Standard error of the means of ``n`` integer samples: ``sqrt(n sum x^2 - (sum x)^2) / n^1.5``.

    ``sums`` and ``sums_sq`` hold ``sum x`` and ``sum x^2`` of one sample
    per entry, of matching shapes.  The result is the plug-in
    ``sqrt(sum (x - mean)^2) / n``, the standard deviation of the mean over
    all ``n^n`` redraws of the samples with replacement, i.e. the bootstrap
    error in the limit of infinitely many redraws.  The numerator is formed in Python ints, so
    it is exact and never cancels.
    """
    sums, n = np.asarray(sums), int(n)
    numerators = [
        float(n * q - s * s) for s, q in zip(sums.ravel().tolist(), np.ravel(sums_sq).tolist())
    ]
    return np.sqrt(numerators).reshape(sums.shape) / n**1.5


def bootstrap_std(rows, shots, resamples: int = 1000, seed: int = 0):
    """Bootstrap standard deviation of the shot mean of per-shot rows.

    ``rows`` holds the distinct per-shot rows (scalars or vectors) along
    its first axis and ``shots[i]`` the number of shots showing row ``i``.
    Drawing the ``n`` shots with replacement puts a Multinomial(``n``,
    ``shots / n``) weight on the distinct rows, so all ``resamples``
    resamples are one ``multinomial`` draw ``W`` and the result is the SD
    of ``W @ rows / n`` over them: a scalar for scalar rows, one SD per
    column otherwise.  Seeded, hence deterministic.  No command calls it;
    :func:`mean_std_err` is its limit in ``resamples``.
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
