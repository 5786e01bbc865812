"""Seedable Monte Carlo generator of detected-atom events in velocity space.

Shots are statistically independent repetitions of the experiment.  Every
random stream is a counter-based Philox generator (128-bit key) whose key
is derived from the master seed and a stream id through an injective
SplitMix64 mix, so streams can be generated in any order, or in parallel,
and reproduce the sequential run bit for bit.

Two run types are provided.  A counting run, where a grid of independent
thermal emitter modes populates one velocity-space peak, draws each block
of ``_STREAM_SHOTS`` shots from one stream of its own, so any block can be
generated alone, in any order, and its event CSV is written and binned
block by block.  In an interferometer scan every shot owns its stream:
joint output-port counts are drawn from the exact Fock-space law of
:func:`twinbeam.fock.hom_joint_pmf` and thinned by the detector.  A scan
shot reads at most the first 4 words of its stream, one Philox4x64-10
block (Salmon et al., SC'11), so the scan computes those blocks for all
its shots at once in numpy and copies numpy's small-mean binomial
inversion onto them; the draws are the per-shot stream's, bit for bit.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

# bootstrap_std stays importable here because bench/tracer.py wraps it at
# this name; nothing here calls it.
from .analysis import bootstrap_std, mean_std_err
from .checks import check_field, csv_row_error, read_csv_chunks, write_json
from .distributions import TmsvParams
from .fock import OverlapModel, check_basis_size, hom_basis, hom_joint_pmf, hom_n_max

__all__ = [
    "GENERATOR_ID",
    "PORT_VELOCITIES",
    "SourceConfig",
    "HomScanConfig",
    "HomRun",
    "MAX_SEED",
    "SHOT_ID_LIMIT",
    "shot_rng",
    "simulate_counting_run",
    "simulate_hom_run",
    "correlation_scan",
    "write_event_table",
    "read_event_table",
    "write_hom_events",
]

_STREAM_SHOTS = 512  # counting shots drawn from one stream
GENERATOR_ID = f"numpy.random.Philox4x64 (numpy {np.__version__}), {_STREAM_SHOTS}-shot counting streams"

# Fixed detector cells for the two interferometer output ports, mm/s.
PORT_VELOCITIES = {"a": (0.0, 0.0, 25.0), "b": (0.0, 0.0, -25.0)}

_MASK64 = (1 << 64) - 1
# Master seeds are 64-bit: 0 <= seed <= MAX_SEED.
MAX_SEED = _MASK64
DEFAULT_MASTER_SEED = 20260811

# Shot ids count up from 0 and stay below SHOT_ID_LIMIT; the streams of
# counting blocks are keyed above them, at STREAM_COUNTING_BLOCK OR the block.
SHOT_ID_LIMIT = 10**12
STREAM_COUNTING_BLOCK = 2**63

_UNIFORM_ROWS = 1 << 7  # counting shots whose uniforms are held at once
# Scan shots drawn per array pass; bounds the memory of the Philox kernel.
_SCAN_BLOCK = 1 << 16

_U64 = np.uint64


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """One SplitMix64 finalizer round on a uint64 array; a bijection modulo 2**64.

    Constants are ``np.uint64``: numpy 1.x promotes uint64 and a Python int to float64.
    """
    z = z + _U64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


def _key_words(master_seed: int, first: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Low and high Philox key words of shots ``first .. first + count - 1``.

    The low word is ``splitmix64(master XOR splitmix64(shot_id))``: both
    stages are bijections of their 64-bit input, so distinct shot ids can
    never collide under the same master seed.  The high word is one more
    SplitMix64 round of the low word.
    """
    ids = np.arange(count, dtype=np.uint64) + _U64(first)
    lo = _splitmix64(_U64(master_seed & _MASK64) ^ _splitmix64(ids))
    return lo, _splitmix64(lo)


# Philox4x64 round multipliers and key increments (Salmon et al., SC'11).
_PHILOX_M = (_U64(0xD2E7470EE14C6C93), _U64(0xCA5A826395121157))
_PHILOX_W = (_U64(0x9E3779B97F4A7C15), _U64(0xBB67AE8584CAA73B))
_LO32, _32 = _U64(0xFFFFFFFF), _U64(32)


def _mulhilo(a: np.uint64, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products ``a * b``, from 32-bit halves."""
    a_lo, a_hi, b_lo, b_hi = a & _LO32, a >> _32, b & _LO32, b >> _32
    lo_hi, hi_lo = a_lo * b_hi, a_hi * b_lo
    carry = ((a_lo * b_lo) >> _32) + (lo_hi & _LO32) + (hi_lo & _LO32)
    return a_hi * b_hi + (lo_hi >> _32) + (hi_lo >> _32) + (carry >> _32), a * b


def _first_blocks(master_seed: int, first: int, count: int) -> np.ndarray:
    """The first 4 raw words of the streams of shots ``first .. first + count - 1``.

    A fresh generator's first 4 words are one Philox4x64-10 block: 10
    rounds on counter ``(1, 0, 0, 0)`` under the shot's key, which is
    bumped between rounds.  Returns a ``(count, 4)`` uint64 array, row ``i``
    equal to ``shot_rng(master_seed, first + i).bit_generator.random_raw(4)``.
    """
    k0, k1 = _key_words(master_seed, first, count)
    zero = np.zeros_like(k0)
    c0, c1, c2, c3 = zero + _U64(1), zero, zero, zero
    for rnd in range(10):
        if rnd:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=1)


def _doubles(words: np.ndarray) -> np.ndarray:
    """``rng.random()`` of each raw word: its top 53 bits times 2**-53."""
    return (words >> _U64(11)) * 2.0**-53


def _binomial_inversion(
    n: np.ndarray, eta: float, words: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``rng.binomial(n[i], eta)`` from the one word ``words[i]``, where that settles it.

    A copy of numpy's ``random_binomial_inversion`` in its operation order,
    for all entries at once: with ``p = min(eta, 1 - eta)`` (as ``1 - eta``
    when ``eta > 0.5``, which returns ``n - X``), ``q = 1 - p``,
    ``qn = exp(n log1p(-p))`` and ``bound`` per distinct ``n`` from
    :mod:`math`.  Nothing is drawn where ``n = 0`` or ``eta = 0``.  Returns
    the counts and the mask of settled entries; an entry is unsettled where
    numpy leaves inversion: ``n p > 30`` (BTPE) or a restart (``X > bound``),
    which takes a further word.
    """
    counts = np.zeros_like(n)
    settled = (n == 0) | (eta == 0.0)
    p = 1.0 - eta if eta > 0.5 else eta
    q = 1.0 - p
    shots = np.flatnonzero(~settled & (n * p <= 30.0))
    m, u = n[shots], _doubles(words[shots])
    support = range(int(m.max(initial=0)) + 1)
    px = np.array([math.exp(k * math.log1p(-p)) for k in support])[m]
    bound = np.array([int(min(k, k * p + 10.0 * math.sqrt(k * p * q + 1))) for k in support])[m]
    x = 0
    while shots.size:
        done = u <= px
        counts[shots[done]] = x
        settled[shots[done]] = True
        x += 1
        go = ~done & (x <= bound)
        shots, m, u, px, bound = shots[go], m[go], u[go] - px[go], px[go], bound[go]
        px = (m - x + 1) * p * px / (x * q)
    return (n - counts if eta > 0.5 else counts), settled


def shot_rng(master_seed: int, shot_id: int) -> np.random.Generator:
    """Counter-based generator for one shot; see :data:`GENERATOR_ID`."""
    key = np.concatenate(_key_words(master_seed, shot_id & _MASK64, 1))
    return np.random.Generator(np.random.Philox(key=key))


def check_seed(obj) -> None:
    """Raise ``ValueError`` unless field ``master_seed`` of ``obj`` is 64-bit."""
    check_field(obj, "master_seed", 0, MAX_SEED, integer=True)


def _config_dict(config) -> dict:
    """The fields of a config dataclass as JSON values (tuples as lists)."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(config).items()}


@dataclass(frozen=True)
class SourceConfig:
    """Counting-run parameters.

    The emitter modes sit on a regular 3-D grid of spacing
    ``mode_spacing`` centred on ``grid_center``; each mode scatters its
    atoms with an axis-aligned Gaussian envelope of RMS ``mode_widths``.
    ``peak_width``, when set, is the RMS of an isotropic Gaussian profile
    that scales the mean occupation away from the grid centre so the
    population falls off across the peak; ``None`` populates every mode
    equally.

    The defaults put the modes on a grid 1.5x coarser than the analysis
    cells with envelopes of half the grid spacing, so several modes reach
    each cell.  A cell's count is then a sum of independent thinned
    thermal counts, one per mode of mean ``mu`` there, whose Mandel
    ``M = (sum mu)^2 / sum mu^2`` is 2.7-5.2 over the 17 cells with an
    exact mean above the threshold, not 1.  With the default occupation
    and profile this reproduces the published pipeline figures: of the 45
    analysis cells, about 18 pass the 0.135 mean threshold with average
    detected mean near 0.16, the pooled mean lands near 2.9, and the
    pooled counts fit an effective mode number of about 8, well below the
    cell count.
    """

    nu_per_mode: float = 4.5
    eta: float = 0.25
    shots: int = 1876
    master_seed: int = DEFAULT_MASTER_SEED
    peak_width: float | None = 6.25
    mode_widths: tuple[float, float, float] = (4.125, 4.125, 1.875)
    mode_spacing: tuple[float, float, float] = (8.25, 8.25, 3.75)
    modes_per_axis: tuple[int, int, int] = (5, 5, 7)
    grid_center: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        check_field(self, "nu_per_mode", 0)
        check_field(self, "eta", 0, 1)
        check_field(self, "shots", 1, SHOT_ID_LIMIT, integer=True)
        check_seed(self)
        check_field(self, "peak_width", 0, positive=True, optional=True)
        check_field(self, "mode_widths", 0, positive=True, length=3)
        check_field(self, "mode_spacing", 0, positive=True, length=3)
        check_field(self, "modes_per_axis", 1, integer=True, length=3)
        check_field(self, "grid_center", length=3)


@dataclass(frozen=True)
class HomScanConfig:
    """Interferometer-scan parameters.

    The splitter time ``t2`` controls the overlap of the two input
    wavepackets through the declared model
    ``lam(t2) = exp(-(t2 - t0)^2 / (2 sigma_m^2))``; the resulting dip in
    the cross correlation is then Gaussian with RMS ``sigma_m/sqrt(2)``.
    Shot ids run across the whole scan, so the scan holds at most
    ``SHOT_ID_LIMIT`` shots, and ``nu`` is held to the Fock basis the scan
    builds (:func:`twinbeam.fock.check_basis_size`).
    """

    t2_values: tuple[float, ...] = tuple(round(-260.0 + i * 520.0 / 12.0, 6) for i in range(13))
    t0: float = 0.0
    sigma_m: float = 86.0
    nu: float = 0.33
    eta: float = 0.25
    shots_per_point: int = 800
    master_seed: int = DEFAULT_MASTER_SEED

    def __post_init__(self):
        check_field(self, "t2_values", length=...)
        check_field(self, "t0")
        check_field(self, "sigma_m", 0, positive=True)
        check_field(self, "nu", 0)
        check_basis_size(hom_n_max(TmsvParams(nu=self.nu)))
        check_field(self, "eta", 0, 1)
        check_field(
            self, "shots_per_point", 1, SHOT_ID_LIMIT // len(self.t2_values), integer=True
        )
        check_seed(self)
        object.__setattr__(self, "t2_values", tuple(float(t) for t in self.t2_values))


@dataclass(frozen=True)
class HomRun:
    """Detected port-a/port-b counts, one row per splitter time, one column per shot."""

    config: HomScanConfig
    counts_a: np.ndarray  # (points, shots_per_point), row i at config.t2_values[i]
    counts_b: np.ndarray
    tail_mass: tuple[float, ...]  # per point, the mass the sampled law lacked


def _mode_grid(config: SourceConfig) -> tuple[np.ndarray, np.ndarray]:
    """Mode centre positions and their mean true occupations."""
    axes = [
        (np.arange(n) - (n - 1) / 2.0) * s + c
        for n, s, c in zip(
            config.modes_per_axis, config.mode_spacing, config.grid_center
        )
    ]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    centers = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    if config.peak_width is None:
        nus = np.full(len(centers), config.nu_per_mode)
    else:
        r_sq = ((centers - np.asarray(config.grid_center)) ** 2).sum(axis=1)
        nus = config.nu_per_mode * np.exp(-r_sq / (2.0 * config.peak_width**2))
    return centers, nus


def _counting_block(config: SourceConfig, block: int, per_shot: np.ndarray):
    """Draw block ``block`` of :func:`simulate_counting_run` alone; ``per_shot`` takes its totals."""
    centers, nus = _mode_grid(config)
    # Count floor(log1p(-u) / log q), q = mu / (1 + mu); log q = -log1p(1/mu)
    # stays accurate at large mu, and mu = 0 gives -inf, hence a count of 0.
    with np.errstate(divide="ignore", over="ignore"):
        log_q = -np.log1p(1.0 / (config.eta * nus))
    key = np.concatenate(_key_words(config.master_seed, STREAM_COUNTING_BLOCK | block, 1))
    rng = np.random.Generator(np.random.Philox(key=key))
    shots = np.arange(block * _STREAM_SHOTS, min((block + 1) * _STREAM_SHOTS, config.shots))
    uniforms = np.empty((_UNIFORM_ROWS, len(nus)))
    modes = np.tile(np.arange(len(nus)), _UNIFORM_ROWS)
    atoms = []  # the mode of each atom
    for lo in range(0, len(shots), _UNIFORM_ROWS):
        u = rng.random(out=uniforms[: len(shots) - lo])
        np.log1p(np.negative(u, out=u), out=u)
        counts = np.divide(u, log_q, out=u).astype(np.int64)  # cast floors
        per_shot[shots[lo : lo + _UNIFORM_ROWS]] = counts.sum(axis=1)
        atoms.append(modes[: counts.size].repeat(counts.ravel()))
    del uniforms, u, counts, modes  # before the atoms' velocities are drawn: a flat peak
    atoms = np.concatenate(atoms)
    velocities = rng.standard_normal((len(atoms), 3))
    velocities *= config.mode_widths
    velocities += centers[atoms]
    return shots.repeat(per_shot[shots]), np.round(velocities, 9, out=velocities)


def simulate_counting_run(config: SourceConfig) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Generate one counting run: yield the ``(shot, velocities)`` columns of each block of shots.

    Binomial thinning keeps a thermal count thermal, so per shot each mode's
    detected count is drawn by inversion from the thermal law of mean
    ``mu = eta * nu_mode``, and each detected atom lands at the mode centre
    plus Gaussian scatter.  Block ``b``, ``_STREAM_SHOTS`` shots or the
    rest, draws from one stream keyed by ``STREAM_COUNTING_BLOCK | b``, so
    it can be generated alone.  Its draw order pins the bytes: one uniform
    per mode, a row per shot, then one standard normal per axis for every
    atom, in shot and mode order.  Velocities are rounded to the event
    CSV's 1e-9 mm/s lattice.  A block's rows are sorted by shot, each
    shot's rows in draw order; empty shots hold no rows.
    """
    # Allocated before any draw, so a run too large for memory fails at once.
    per_shot = np.zeros(config.shots, dtype=np.int64)
    for block in range(-(-config.shots // _STREAM_SHOTS)):
        yield _counting_block(config, block, per_shot)


def overlap_amplitude(config: HomScanConfig, t2: float) -> float:
    """Declared overlap model: Gaussian in the splitter time."""
    return math.exp(-((t2 - config.t0) ** 2) / (2.0 * config.sigma_m**2))


def _thinned_pairs(cdf: np.ndarray, n_cols: int, eta: float, master_seed: int, first: int,
                   count: int) -> tuple[np.ndarray, np.ndarray]:
    """Detected ``(k_a, k_b)`` of shots ``first .. first + count - 1``, as their streams draw them.

    Word 0 of a shot's stream draws the pair ``(n_a, n_b)`` from ``cdf`` (the
    law flattened row by row, ``n_cols`` columns); port a is thinned by
    word 1 and port b by the next unused word: 2 if port a drew one
    (``n_a > 0``; at ``eta = 0`` neither port draws), else 1.
    Shots whose thinning needs more than their first block replay their
    own stream through :func:`shot_rng`.
    """
    words = _first_blocks(master_seed, first, count)
    n_a, n_b = np.divmod(np.searchsorted(cdf, _doubles(words[:, 0]), side="right"), n_cols)
    k_a, settled_a = _binomial_inversion(n_a, eta, words[:, 1])
    k_b, settled_b = _binomial_inversion(n_b, eta, np.where(n_a > 0, words[:, 2], words[:, 1]))
    for shot in np.flatnonzero(~(settled_a & settled_b)).tolist():
        rng = shot_rng(master_seed, first + shot)
        rng.random()  # word 0, which drew the pair
        k_a[shot] = rng.binomial(n_a[shot], eta) if n_a[shot] else 0
        k_b[shot] = rng.binomial(n_b[shot], eta) if n_b[shot] else 0
    return k_a, k_b


def simulate_hom_run(config: HomScanConfig) -> HomRun:
    """Scan the splitter time and record the detected port counts per shot.

    The scan builds one overlap-free Fock basis (:func:`hom_basis`) at the
    default pair support and frees it on return.  For each ``t2`` the joint
    output-count law contracts that basis at the modelled overlap
    (:func:`hom_joint_pmf`), one ``(n_a, n_b)`` pair is drawn
    per shot, and both counts are independently binomially thinned by the
    detector.  Shot ids are globally unique across the scan so every shot
    keeps a private stream.

    The draws are those of a fresh ``shot_rng`` per shot taking
    ``rng.random()``, then ``rng.binomial(n_a, eta)`` if ``n_a``, then
    ``rng.binomial(n_b, eta)`` if ``n_b``, but they are computed in blocks
    of shots: one Philox block per shot (:func:`_first_blocks`), a
    ``searchsorted`` for the pairs and numpy's binomial inversion copied
    onto the words (:func:`_binomial_inversion`).  The rare shot that numpy
    would thin by BTPE (``n min(eta, 1 - eta) > 30``) or by a restarted
    inversion falls back to its own ``shot_rng``.
    """
    params = TmsvParams(nu=config.nu)
    shape = (len(config.t2_values), config.shots_per_point)
    counts_a = np.zeros(shape, dtype=np.int64)
    counts_b = np.zeros(shape, dtype=np.int64)
    tail_mass = []
    basis = hom_basis(hom_n_max(params))
    for t2_index, t2 in enumerate(config.t2_values):
        lam = overlap_amplitude(config, t2)
        joint = hom_joint_pmf(params, OverlapModel(lam=lam), basis=basis)
        flat = joint.probs.ravel()
        # The law lacks only the pair tail, at most TAIL_TOLERANCE of its
        # mass; record it, then renormalize for sampling.
        kept = flat.sum()
        tail_mass.append(float(1.0 - kept))
        cdf = np.cumsum(flat / kept)
        # The sum may end a few ulps below 1; no uniform may fall past the support.
        cdf[np.flatnonzero(flat)[-1] :] = 1.0
        first = t2_index * config.shots_per_point
        for lo in range(0, config.shots_per_point, _SCAN_BLOCK):
            hi = min(lo + _SCAN_BLOCK, config.shots_per_point)
            counts_a[t2_index, lo:hi], counts_b[t2_index, lo:hi] = _thinned_pairs(
                cdf, joint.probs.shape[1], config.eta, config.master_seed, first + lo, hi - lo
            )
    return HomRun(config, counts_a, counts_b, tuple(tail_mass))


def correlation_scan(run: HomRun) -> list[tuple[float, float, float]]:
    """Per-``t2`` cross correlation with the standard error of its shot mean.

    Returns ``(t2, <n_a n_b>, err)`` triples ready for the dip fit; ``err``
    is :func:`~twinbeam.analysis.mean_std_err` of the per-shot products.
    When a point saw no coincidences at all that error is zero; it is then
    floored at ``1/shots`` (the resolution of a single coincidence) so
    weighted fits stay well posed.
    """
    points = []
    for t2, counts_a, counts_b in zip(run.config.t2_values, run.counts_a, run.counts_b):
        products = counts_a * counts_b
        err = mean_std_err(products.sum(), (products * products).sum(), len(products))
        err = max(float(err), 1.0 / len(products))
        points.append((t2, float(products.mean()), err))
    return points


# Event velocities stay below this magnitude (mm/s), so the whole part of
# one prints in at most 7 digits.
_V_LIMIT = 2.0**20
_WRITE_ROWS = 1 << 11  # rows formatted per pass


def _digits(values: np.ndarray, count: int) -> np.ndarray:
    """ASCII digits of the non-negative ints ``values``: ``count`` rows, the most significant first."""
    out = np.empty((count, *values.shape), dtype=np.uint8)
    for place in range(count - 1, -1, -1):
        quotient = values // 10  # numpy vectorises this, and not divmod
        np.subtract(values, quotient * 10, out=out[place], casting="unsafe")
        values = quotient
    return out + ord("0")


def _format_rows(shot: np.ndarray, velocities: np.ndarray) -> bytes:
    """The bytes of ``"%d,%.9f,%.9f,%.9f\\n" % row`` for each row.

    Each velocity prints as ``k = rint(v * 1e9)`` in fixed point, the digits
    of ``|k|`` going by integer division into a ``uint8`` matrix, one row per
    character column.  Leading zeros and the sign of non-negative values
    become NUL, which no row holds, and one pass deletes them.  The whole
    part gets the columns its block's largest value needs; its digits and
    the fraction's are taken in ``uint32``.  On the 1e-9 lattice below
    ``_V_LIMIT``, ``v * 1e9`` lies within 0.25 of the integer ``k``, so
    this is what ``%.9f`` prints, ``-0.0`` included.
    """
    n = len(shot)
    fixed = np.rint(velocities.T * 1e9).astype(np.int64)
    whole, frac = (part.astype(np.uint32) for part in np.divmod(np.abs(fixed), 10**9))
    shot_columns = len(str(int(shot.max(initial=0))))
    whole_columns = len(str(int(whole.max(initial=0))))
    v_columns = whole_columns + 12  # ",-", the whole part, "." and 9 digits
    chars = np.empty((shot_columns + 3 * v_columns + 1, n), dtype=np.uint8)
    keep = np.ones(chars.shape, dtype=bool)
    chars[:shot_columns] = _digits(shot, shot_columns)
    keep[: shot_columns - 1] = shot >= 10 ** np.arange(shot_columns - 1, 0, -1)[:, None]
    v_chars = chars[shot_columns : shot_columns + 3 * v_columns].reshape(3, v_columns, n)
    v_keep = keep[shot_columns : shot_columns + 3 * v_columns].reshape(3, v_columns, n)
    point = 2 + whole_columns
    v_chars[:, 0], v_chars[:, 1], v_chars[:, point] = ord(","), ord("-"), ord(".")
    v_keep[:, 1] = np.signbit(velocities.T)
    v_chars[:, 2:point] = _digits(whole, whole_columns).transpose(1, 0, 2)
    places = 10 ** np.arange(whole_columns - 1, 0, -1)[:, None]
    v_keep[:, 2 : point - 1] = whole[:, None] >= places
    v_chars[:, point + 1 :] = _digits(frac, 9).transpose(1, 0, 2)
    chars[-1] = ord("\n")
    return (chars * keep).T.tobytes().translate(None, b"\0")


def _write_rows(fh, shot: np.ndarray, velocities) -> None:
    """Write ``shot,vx,vy,vz`` rows to the binary ``fh``.

    Velocities print at 1e-9 mm/s, as ``%.9f`` prints the 1e-9 lattice.
    Raises ``ValueError``, writing no row, unless every velocity is finite
    and below ``_V_LIMIT`` in magnitude.
    """
    velocities = np.asarray(velocities, dtype=float)
    outside = ~(np.abs(velocities) < _V_LIMIT).all(axis=1)  # NaN compares False
    if outside.any():
        row = int(np.argmax(outside))
        raise ValueError(
            f"an event of shot {shot[row]} has velocity {velocities[row].tolist()}: "
            "the event format holds finite velocities below 2**20 mm/s in magnitude"
        )
    for lo in range(0, len(shot), _WRITE_ROWS):
        rows = slice(lo, lo + _WRITE_ROWS)
        fh.write(_format_rows(shot[rows], velocities[rows]))


def _meta_path(csv_path) -> Path:
    """The JSON sidecar of an event CSV: ``<name>.meta.json`` beside it."""
    return Path(csv_path).with_suffix(".meta.json")


def write_event_table(blocks, config: SourceConfig, csv_path) -> tuple[Path, Path, int]:
    """Write the ``(shot, velocities)`` ``blocks`` of a counting run as they come, then the sidecar.

    The CSV holds rows ``shot,vx,vy,vz``, velocities in fixed point at
    1e-9 mm/s, so generated runs read back exactly.  Empty shots produce no
    rows; the sidecar's ``shots``, with ``config``, its ``master_seed`` and
    the generator, is what makes them reconstructible.  Returns both paths
    and the number of rows written.  If a block raises, or writing it
    fails, the partial CSV is removed and no sidecar is written; a
    velocity that is not finite or not below 2**20 mm/s in magnitude
    raises ``ValueError``.
    """
    rows = 0
    fh = open(csv_path, "wb")
    try:
        with fh:
            fh.write(b"shot,vx,vy,vz\n")
            for shot, velocities in blocks:
                _write_rows(fh, shot, velocities)
                rows += len(shot)
    except BaseException:
        Path(csv_path).unlink(missing_ok=True)
        raise
    meta = {"shots": config.shots, "config": _config_dict(config),
            "master_seed": config.master_seed, "generator": GENERATOR_ID}
    write_json(_meta_path(csv_path), meta)
    return Path(csv_path), _meta_path(csv_path), rows


def read_event_table(csv_path) -> tuple[int, Iterator[tuple[np.ndarray, np.ndarray]]]:
    """The shot count of an event CSV, and an iterator of its ``(shot, velocities)`` chunks.

    The sidecar, ``<name>.meta.json`` beside the CSV, is read at once: it
    raises ``ValueError`` naming the sidecar unless it is a JSON object
    whose ``config`` is an object, whose ``shots`` is an integer in
    ``[1, SHOT_ID_LIMIT]``, and whose ``config.shots``, if any, agrees.
    Its ``master_seed`` and ``generator`` are not read.  The rows are read
    a chunk at a time as the iterator is advanced, in file order; it
    raises ``ValueError`` naming the line of a malformed row, a
    non-finite velocity or a shot outside ``0..shots - 1``.
    """
    meta_path = _meta_path(csv_path)
    with open(meta_path) as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict) or not isinstance(meta.get("config"), dict):
        raise ValueError(f"{meta_path}: sidecar must be a JSON object whose config is an object")
    try:
        check_field(meta, "shots", 1, SHOT_ID_LIMIT, integer=True)
    except ValueError as exc:
        raise ValueError(f"{meta_path}: {exc}") from None
    shots, declared = meta["shots"], meta["config"].get("shots")
    if declared is not None and declared != shots:
        raise ValueError(f"{meta_path}: config declares {declared} shots but shots is {shots}")

    def chunks():
        done = 0
        for rows in read_csv_chunks(csv_path, "shot,vx,vy,vz", [("shot", "i8"), ("v", "f8", 3)]):
            outside = (rows["shot"] < 0) | (rows["shot"] >= shots)
            if outside.any():
                row = int(np.argmax(outside))
                raise csv_row_error(
                    csv_path, done + row, f"shot {rows['shot'][row]} outside 0..{shots - 1}"
                )
            done += len(rows)
            yield rows["shot"], rows["v"]

    return shots, chunks()


def write_hom_events(run: HomRun, csv_path) -> tuple[Path, Path]:
    """Combined scan CSV with ``port`` and ``t2_us`` columns, plus a JSON sidecar.

    Each detected atom is one row at its port's fixed velocity, grouped
    by splitter time, then port, then shot.  Returns both paths.
    """
    csv_path, meta_path = Path(csv_path), _meta_path(csv_path)
    with open(csv_path, "wb") as fh:
        fh.write(b"shot,vx,vy,vz,port,t2_us\n")
        for t2, row_a, row_b in zip(run.config.t2_values, run.counts_a, run.counts_b):
            for port, counts in (("a", row_a), ("b", row_b)):
                # Every row of a group ends in the same text after its shot id.
                velocity = ",".join(f"{v:.9f}" for v in PORT_VELOCITIES[port])
                tail = f",{velocity},{port},{float(t2)!r}\n"
                shots = np.repeat(np.arange(len(counts)), counts).tolist()
                fh.write("".join(f"{shot}{tail}" for shot in shots).encode())
    config = _config_dict(run.config)
    write_json(
        meta_path,
        {
            "config": config,
            "t2_values": config["t2_values"],
            "tail_mass": list(run.tail_mass),
            "shots_per_point": config["shots_per_point"],
            "master_seed": config["master_seed"],
            "generator": GENERATOR_ID,
        },
    )
    return csv_path, meta_path
