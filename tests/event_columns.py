"""Event columns for tests: the blocks of a counting run or an event CSV, joined."""

from typing import NamedTuple

import numpy as np

from twinbeam.analysis import bin_events
from twinbeam.simulate import read_event_table, simulate_counting_run


class Events(NamedTuple):
    """Row ``i`` is one detected atom of shot ``shot[i]`` at ``velocities[i]`` (mm/s).

    Empty shots hold no rows; ``n_shots`` counts them.
    """

    shot: np.ndarray
    velocities: np.ndarray
    n_shots: int


def join(blocks, n_shots: int) -> Events:
    """The ``(shot, velocities)`` ``blocks``, one or more, as one pair of columns."""
    shot, velocities = zip(*blocks)
    return Events(np.concatenate(shot), np.concatenate(velocities), n_shots)


def counting_events(config) -> Events:
    """Every event of ``simulate_counting_run(config)``."""
    return join(simulate_counting_run(config), config.shots)


def read_events(csv_path) -> Events:
    """Every row of the event CSV at ``csv_path``, in file order."""
    shots, blocks = read_event_table(csv_path)
    return join(blocks, shots)


def bin_event_file(csv_path, grid):
    """The event CSV at ``csv_path`` binned chunk by chunk, as ``analyze-counts`` bins it."""
    shots, blocks = read_event_table(csv_path)
    return bin_events(blocks, shots, grid)
