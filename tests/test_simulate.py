"""Tests for the seeded Monte Carlo event generator."""

import io
import json
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from fock_reference import hom_joint_pmf_reference
from event_columns import bin_event_file, counting_events, read_events
from memory_peak import traced_peak
from twinbeam import checks, simulate
from twinbeam.analysis import CellGrid, bin_events
from twinbeam.cli import main
from twinbeam.distributions import TAIL_TOLERANCE, TmsvParams, _binomial_pmf, thermal_pmf
from twinbeam.fock import OverlapModel
from twinbeam.simulate import (
    DEFAULT_MASTER_SEED,
    MAX_SEED,
    PORT_VELOCITIES,
    SHOT_ID_LIMIT,
    STREAM_COUNTING_BLOCK,
    HomScanConfig,
    SourceConfig,
    correlation_scan,
    read_event_table,
    shot_rng,
    simulate_counting_run,
    simulate_hom_run,
    write_event_table,
    write_hom_events,
)
from twinbeam.simulate import _STREAM_SHOTS, _key_words


def _key(master_seed: int, shot_id: int) -> tuple[int, int]:
    """The low and high Philox key words of one shot's stream."""
    lo, hi = _key_words(master_seed, shot_id, 1)
    return int(lo[0]), int(hi[0])


class TestShotSeeds:
    def test_deterministic(self):
        assert _key(123, 42) == _key(123, 42)
        assert np.array_equal(shot_rng(123, 42).random(4), shot_rng(123, 42).random(4))

    def test_distinct_across_shots(self):
        keys = set(zip(*(words.tolist() for words in _key_words(99, 0, 10_000))))
        assert len(keys) == 10_000

    def test_distinct_across_masters(self):
        assert _key(1, 0) != _key(2, 0)

    def test_rng_streams_independent(self):
        a = shot_rng(7, 0).random(4)
        b = shot_rng(7, 1).random(4)
        assert not np.allclose(a, b)


class TestStreamKeys:
    def test_bulk_keys_match_scalar_seeds(self):
        # Key words first pinned when keys were derived one shot at a time.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block, last, first = (
                tuple(words.tolist() for words in _key_words(MAX_SEED, *shots))
                for shots in [(1023, 2), (SHOT_ID_LIMIT - 1, 1), (0, 1)]
            )
        assert block == ([0x7D9BC01394CD55D0, 0x7168CE796820D220],
                         [0x72931F7E10BE98B1, 0x4958DFE10D5C985F])
        assert last == ([0xF7FDE76B2AB8BF17], [0xD3590BAFC98B4A12])
        assert first == ([0x2DD82C88FA32B270], [0x7985575AA0F03783])


def _numpy_binomial(bit_generator, n: int, eta: float, word: int) -> tuple[int, int]:
    """numpy's ``binomial(n, eta)`` with ``word`` as the next raw word, and the words it took."""
    state = bit_generator.state
    state["state"]["counter"][:] = 0
    state["buffer"] = np.array([word, 0, 0, 0], dtype=np.uint64)
    state["buffer_pos"] = 0
    bit_generator.state = state
    count = np.random.Generator(bit_generator).binomial(n, eta)
    after = bit_generator.state
    return count, after["buffer_pos"] + 4 * int(after["state"]["counter"][0])


class TestScanBlockKernel:
    @pytest.mark.parametrize(
        "master, first, count",
        [
            (0, 0, 5),
            (MAX_SEED, 0, 3),
            (MAX_SEED, SHOT_ID_LIMIT - 4, 4),
            (0, SHOT_ID_LIMIT - 2, 2),
            (12345, 2**32 - 2, 4),  # a block that crosses 2**32
            (DEFAULT_MASTER_SEED, 2**32 + 17, 3),
        ],
    )
    def test_first_block_equals_stream(self, master, first, count):
        words = simulate._first_blocks(master, first, count)
        assert words.shape == (count, 4) and words.dtype == np.uint64
        for offset in range(count):
            want = shot_rng(master, first + offset).bit_generator.random_raw(4)
            assert np.array_equal(words[offset], want)
            want = shot_rng(master, first + offset).random(4)
            assert np.array_equal(simulate._doubles(words[offset]), want)

    @pytest.mark.parametrize("eta", [0.0, 0.1, 0.25, 0.5, 0.6, 0.9, 1.0])
    def test_inversion_equals_numpy_where_settled(self, eta):
        # Words at both ends of [0, 1) as well as random ones; the top words
        # push the inversion past its bound, where numpy restarts.
        top = [2**64 - d * 2**11 for d in (1, 2, 3, 4)]
        random_words = np.random.default_rng(11).integers(0, 2**64, 40, dtype=np.uint64)
        words = np.array([0, 1 << 63, *top, *random_words.tolist()], dtype=np.uint64)
        bit_generator = np.random.Philox(key=0)
        left = 0
        for n in range(121):
            counts, settled = simulate._binomial_inversion(
                np.full(len(words), n, dtype=np.int64), eta, words
            )
            for word, count, ok in zip(words.tolist(), counts.tolist(), settled.tolist()):
                want, taken = _numpy_binomial(bit_generator, n, eta, word)
                assert ok == (taken <= 1), (n, eta, word, taken)
                if ok:
                    assert count == want, (n, eta, word)
                left += not ok
        # The mask is not vacuous: at these eta the top words restart the
        # inversion, and n p > 30 (n > 60 at eta = 0.5, n > 75 at 0.6) takes BTPE.
        assert (left > 0) == (eta in (0.1, 0.5, 0.6, 0.9))


def _admitted(make) -> bool:
    try:
        make()
    except ValueError:
        return False
    return True


def _counting_block_ids(shots: int) -> range:
    """The stream ids ``STREAM_COUNTING_BLOCK | block`` of the blocks of a counting run."""
    last = (shots - 1) // _STREAM_SHOTS
    assert STREAM_COUNTING_BLOCK | last == STREAM_COUNTING_BLOCK + last  # consecutive ids
    return range(STREAM_COUNTING_BLOCK, STREAM_COUNTING_BLOCK + last + 1)


class TestShotIdsMissStreamDomains:
    @given(st.integers(min_value=1, max_value=2**64))
    @example(SHOT_ID_LIMIT)
    @example(SHOT_ID_LIMIT + 1)
    def test_counting_run(self, shots):
        admitted = _admitted(lambda: SourceConfig(shots=shots))
        assert admitted == (shots <= SHOT_ID_LIMIT)
        if admitted:
            blocks = _counting_block_ids(shots)
            assert blocks.start >= SHOT_ID_LIMIT  # above every shot id of either run type
            assert blocks.stop <= 2**64

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=2**64))
    @example(13, SHOT_ID_LIMIT // 13)
    @example(13, SHOT_ID_LIMIT // 13 + 1)
    def test_hom_scan(self, points, shots_per_point):
        t2_values = tuple(float(i) for i in range(points))
        admitted = _admitted(
            lambda: HomScanConfig(t2_values=t2_values, shots_per_point=shots_per_point)
        )
        # Admitted scans keep their shot ids below SHOT_ID_LIMIT, so below every counting block's id.
        assert admitted == (points * shots_per_point <= SHOT_ID_LIMIT)


def small_config(**overrides):
    defaults = dict(
        nu_per_mode=0.6,
        eta=0.25,
        shots=200,
        master_seed=101,
        peak_width=None,
        mode_widths=(0.55, 0.55, 0.25),
        mode_spacing=(5.5, 5.5, 2.5),
        modes_per_axis=(3, 3, 2),
    )
    defaults.update(overrides)
    return SourceConfig(**defaults)


def write_run(config, csv_path):
    """Write the event CSV of the counting run ``config``, as ``simulate-source`` does."""
    return write_event_table(simulate_counting_run(config), config, csv_path)


def counts_per_shot(table):
    """Detected atoms in each shot of an event table."""
    return np.bincount(table.shot, minlength=table.n_shots)


def assert_same_rows(got, want):
    """Assert ``(shot, velocities)`` columns equal bit for bit, naming the first differing row.

    Comparing whole columns at once would let a failure build a diff of every row.
    """
    (shot, velocities), (want_shot, want_velocities) = got, want
    assert (shot.shape, velocities.shape) == (want_shot.shape, want_velocities.shape)
    same = (shot == want_shot) & (velocities.view(np.uint64) == want_velocities.view(np.uint64)).all(1)
    bad = int(np.argmin(same))
    assert same.all(), f"row {bad}: {shot[bad]}, {velocities[bad]} != {want_shot[bad]}, {want_velocities[bad]}"


def assert_same_lines(lines, expected):
    """Assert two lists of lines are equal, naming the first differing line.

    One ``==`` on whole files would let a failure build a diff of every line.
    """
    bad = next((i for i, pair in enumerate(zip(lines, expected)) if pair[0] != pair[1]), None)
    assert bad is None, f"line {bad + 1}: {lines[bad]!r} != {expected[bad]!r}"
    assert len(lines) == len(expected)


class TestCountingRun:
    def test_empty_source(self):
        table = counting_events(small_config(nu_per_mode=0.0))
        assert counts_per_shot(table).sum() == 0

    @pytest.mark.parametrize(
        "overrides, empty",
        [
            (dict(eta=0.0), True),
            (dict(nu_per_mode=0.0), True),
            # Only the centre mode keeps a mean; the others underflow to 0.
            (dict(peak_width=0.01, modes_per_axis=(3, 3, 3)), False),
            # The nearest modes keep a subnormal mean, whose 1/mu overflows.
            (dict(peak_width=0.0659, modes_per_axis=(3, 3, 3)), False),
        ],
    )
    def test_zero_mode_means_draw_no_atoms_silently(self, overrides, empty):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = counting_events(small_config(**overrides))
        assert np.isfinite(table.velocities).all()
        assert (len(table.shot) == 0) == empty

    def test_single_mode_large_mean_is_geometric(self):
        # mu = eta * nu = 20: the inversion's tail decides the variance.
        config = small_config(
            shots=20_000, nu_per_mode=80.0, eta=0.25, modes_per_axis=(1, 1, 1), master_seed=3
        )
        counts = counts_per_shot(counting_events(config))
        mu, n = 20.0, config.shots
        var = mu * (1 + mu)
        # Excess kurtosis of the geometric law is 6 + p^2/(1 - p), p = 1/(1 + mu).
        p = 1 / (1 + mu)
        var_se = var * math.sqrt((8 + p**2 / (1 - p)) / n)
        tail = (mu / (1 + mu)) ** 60  # P(N >= 60) = q^60
        assert abs(counts.mean() - mu) < 4 * math.sqrt(var / n)
        assert abs(counts.var(ddof=1) - var) < 4 * var_se
        assert abs((counts >= 60).mean() - tail) < 4 * math.sqrt(tail * (1 - tail) / n)

    def test_bit_identical_rerun(self):
        a = counting_events(small_config())
        b = counting_events(small_config())
        assert a.n_shots == b.n_shots
        assert np.array_equal(a.shot, b.shot)
        assert np.array_equal(a.velocities, b.velocities)

    def test_velocities_on_the_write_lattice(self):
        velocities = counting_events(small_config()).velocities
        assert np.array_equal(np.round(velocities, 9), velocities)

    def test_law_of_large_numbers(self):
        config = small_config(shots=20_000, nu_per_mode=0.3, eta=0.4)
        table = counting_events(config)
        n_modes = np.prod(config.modes_per_axis)
        expected = config.eta * config.nu_per_mode * n_modes
        per_shot_var = config.eta * config.nu_per_mode * (
            1 + config.eta * config.nu_per_mode
        ) * n_modes
        counts = counts_per_shot(table)
        standard_error = np.sqrt(per_shot_var / config.shots)
        assert abs(counts.mean() - expected) < 3 * standard_error

    def test_single_mode_cell_counts_are_thermal(self):
        # One isolated emitter, cell much larger than the mode: detected
        # counts per shot must follow the thinned thermal law.
        config = SourceConfig(
            nu_per_mode=0.632,
            eta=0.25,
            shots=20_000,
            master_seed=5,
            peak_width=None,
            mode_widths=(0.5, 0.5, 0.25),
            mode_spacing=(5.5, 5.5, 2.5),
            modes_per_axis=(1, 1, 1),
        )
        table = counting_events(config)
        counts = counts_per_shot(table)
        model = thermal_pmf(0.158, 30).probs * config.shots
        observed = np.bincount(counts, minlength=31)[:31]
        k = 6
        obs = np.concatenate([observed[: k - 1], [observed[k - 1 :].sum()]])
        exp = np.concatenate([model[: k - 1], [model[k - 1 :].sum()]])
        exp *= obs.sum() / exp.sum()
        _, p = sps.chisquare(obs, exp)
        assert p > 0.01

    def test_thinning_commutes_with_counting(self):
        # Detect at eta, versus detect everything then thin the counts.
        shots = 100_000
        detected = counts_per_shot(counting_events(
            small_config(shots=shots, modes_per_axis=(1, 1, 1), eta=0.25, master_seed=8)
        ))
        full = counts_per_shot(counting_events(
            small_config(shots=shots, modes_per_axis=(1, 1, 1), eta=1.0, master_seed=9)
        ))
        rng = np.random.default_rng(10)
        thinned = rng.binomial(full, 0.25)
        width = max(detected.max(), thinned.max()) + 1
        table = np.array(
            [np.bincount(detected, minlength=width), np.bincount(thinned, minlength=width)]
        )
        keep = table.sum(axis=0) >= 10
        table = np.column_stack([table[:, keep][:, :-1], table[:, ~keep].sum(axis=1) + table[:, keep][:, -1]])
        _, p, _, _ = sps.chi2_contingency(table)
        assert p > 0.01

    def test_a_block_generated_alone_equals_that_block_of_the_run(self):
        # Each block owns its stream, so blocks can be generated in any order.
        config = small_config(shots=3 * _STREAM_SHOTS - 5)
        blocks = list(simulate_counting_run(config))
        assert len(blocks) == 3
        for block in (2, 1):
            shot, velocities = simulate._counting_block(
                config, block, np.zeros(config.shots, dtype=np.int64)
            )
            assert_same_rows((shot, velocities), blocks[block])


def per_block_counting_run(config):
    """Reference counting run: ``(shot, velocities)`` from a fresh Philox per block of shots.

    Block ``b`` holds up to ``_STREAM_SHOTS`` shots and is keyed by stream
    id ``STREAM_COUNTING_BLOCK | b``.  It draws ``random((shots, n_modes))``,
    one row per shot, then ``standard_normal((total, 3))`` for all its atoms
    in shot and mode order; velocities are rounded to 9 decimals.
    """
    centers, nus = simulate._mode_grid(config)
    log_q = -np.log1p(1.0 / (config.eta * nus))
    widths = np.asarray(config.mode_widths)
    shots, velocities = [], [np.empty((0, 3))]
    for block, first in enumerate(range(0, config.shots, _STREAM_SHOTS)):
        key = np.concatenate(_key_words(config.master_seed, STREAM_COUNTING_BLOCK | block, 1))
        rng = np.random.Generator(np.random.Philox(key=key))
        block_shots = range(first, min(first + _STREAM_SHOTS, config.shots))
        counts = np.floor(np.log1p(-rng.random((len(block_shots), len(nus)))) / log_q).astype(int)
        total = int(counts.sum())
        events = np.repeat(np.tile(centers, (len(block_shots), 1)), counts.ravel(), axis=0)
        events = events + rng.standard_normal((total, 3)) * widths
        velocities.append(np.round(events, 9))
        shots += np.repeat(block_shots, counts.sum(axis=1)).tolist()
    return np.array(shots, dtype=np.int64), np.concatenate(velocities)


class TestCountingRunAgainstPerBlockReference:
    # 2,049 shots span five blocks of _STREAM_SHOTS shots, the last holding one shot.
    config = small_config(shots=2049, master_seed=29)

    def test_table_is_bit_identical(self):
        shot, velocities = per_block_counting_run(self.config)
        table = counting_events(self.config)
        assert_same_rows((table.shot, table.velocities), (shot, velocities))

    def test_streamed_rows_are_the_reference_rows(self, tmp_path):
        shot, velocities = per_block_counting_run(self.config)
        doc = {"master_seed": self.config.master_seed, "source": {
            k: v for k, v in simulate._config_dict(self.config).items() if k != "master_seed"
        }}
        (tmp_path / "config.json").write_text(json.dumps(doc))
        result = CliRunner().invoke(main, [
            "simulate-source", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path)
        ])
        assert result.exit_code == 0, result.output
        expected = ["shot,vx,vy,vz\n"] + [
            "%d,%.9f,%.9f,%.9f\n" % (s, *v) for s, v in zip(shot.tolist(), velocities)
        ]
        assert_same_lines((tmp_path / "events.csv").read_text().splitlines(keepends=True), expected)


def small_hom_config(**overrides):
    defaults = dict(
        t2_values=(-200.0, -100.0, 0.0, 100.0, 200.0),
        t0=0.0,
        sigma_m=86.0,
        nu=0.33,
        eta=0.25,
        shots_per_point=300,
        master_seed=77,
    )
    defaults.update(overrides)
    return HomScanConfig(**defaults)


def _hom_law(config, t2) -> np.ndarray:
    """Joint port-count law of one scan point under the declared Gaussian overlap.

    It comes from the per-point reference, which builds no basis.
    """
    lam = math.exp(-((t2 - config.t0) ** 2) / (2 * config.sigma_m**2))
    return hom_joint_pmf_reference(TmsvParams(nu=config.nu), OverlapModel(lam=lam)).probs


def _assert_equals_per_shot_reference(config):
    # Shots own their streams, so a reverse pass, one fresh generator
    # and one searchsorted per shot, draws the same counts.
    run = simulate_hom_run(config)
    for point in reversed(range(len(config.t2_values))):
        probs = _hom_law(config, config.t2_values[point])
        assert run.tail_mass[point] == float(1.0 - probs.sum())
        cdf = np.cumsum(probs.ravel() / probs.sum())
        for shot in reversed(range(config.shots_per_point)):
            rng = shot_rng(config.master_seed, point * config.shots_per_point + shot)
            index = int(np.searchsorted(cdf, rng.random(), side="right"))
            n_a, n_b = divmod(index, probs.shape[1])
            want_a = rng.binomial(n_a, config.eta) if n_a else 0
            want_b = rng.binomial(n_b, config.eta) if n_b else 0
            assert (run.counts_a[point, shot], run.counts_b[point, shot]) == (want_a, want_b)


def _chi2_quantile_999(df: int) -> float:
    """Wilson-Hilferty approximation to the 99.9 % quantile of chi-squared with ``df`` degrees."""
    z = 3.090232306167813  # the standard normal 99.9 % quantile
    return df * (1.0 - 2.0 / (9.0 * df) + z * math.sqrt(2.0 / (9.0 * df))) ** 3


class TestHomRun:
    def test_structure(self):
        run = simulate_hom_run(small_hom_config())
        assert run.counts_a.shape == run.counts_b.shape == (5, 300)

    def test_bit_identical_rerun(self):
        a = simulate_hom_run(small_hom_config())
        b = simulate_hom_run(small_hom_config())
        for i in range(len(a.config.t2_values)):
            assert np.array_equal(a.counts_a[i], b.counts_a[i])
            assert np.array_equal(a.counts_b[i], b.counts_b[i])

    def test_far_detuned_matches_distinguishable_baseline(self):
        nu, eta = 0.33, 0.25
        config = small_hom_config(
            t2_values=(3000.0,), shots_per_point=40_000, master_seed=13
        )
        run = simulate_hom_run(config)
        n_a, n_b = run.counts_a[0], run.counts_b[0]
        products = n_a.astype(float) * n_b
        expected = eta**2 * (2 * nu**2 + nu / 2)
        standard_error = products.std(ddof=1) / np.sqrt(len(products))
        assert abs(products.mean() - expected) < 3 * standard_error

    def test_dip_at_center(self):
        config = small_hom_config(shots_per_point=20_000, master_seed=15)
        run = simulate_hom_run(config)
        n_a0, n_b0 = run.counts_a[2], run.counts_b[2]  # t2 = 0
        n_af, n_bf = run.counts_a[0], run.counts_b[0]  # t2 = -200
        center = (n_a0.astype(float) * n_b0).mean()
        flank = (n_af.astype(float) * n_bf).mean()
        assert center < 0.5 * flank

    def test_equals_per_shot_reference(self):
        _assert_equals_per_shot_reference(small_hom_config())

    @pytest.mark.parametrize("eta", [0.0, 0.6, 1.0])
    def test_equals_per_shot_reference_at_eta(self, eta):
        # eta = 0 draws no thinning word, eta = 1 draws one that keeps every
        # atom, and eta = 0.6 thins by n - Bin(n, 0.4).
        _assert_equals_per_shot_reference(small_hom_config(eta=eta))

    def test_scan_through_no_and_full_overlap_equals_per_shot_reference(self):
        # Far out the overlap underflows to lam = 0, and at t2 = t0 it is
        # exactly 1: both ends of the basis contraction, where the weights
        # Bin(k; n, lam^2) sit on one k, lie on the scan.
        config = small_hom_config(t2_values=(-1e6, -150.0, 0.0, 40.0, 1e6), shots_per_point=200)
        assert [simulate.overlap_amplitude(config, t2) for t2 in (-1e6, 0.0, 1e6)] == [0, 1, 0]
        _assert_equals_per_shot_reference(config)

    def test_replayed_shots_equal_per_shot_reference(self, monkeypatch):
        # With no thinning settled from the block, every shot replays its stream.
        monkeypatch.setattr(
            simulate,
            "_binomial_inversion",
            lambda n, eta, words: (np.zeros_like(n), np.zeros(len(n), dtype=bool)),
        )
        _assert_equals_per_shot_reference(small_hom_config())

    def test_top_uniform_stays_in_support(self, monkeypatch):
        # The normalized CDF can end a few ulps below 1.  An all-ones word 0
        # is the largest double below 1, and it must still draw a pair the law
        # can produce; at eta = 1 every atom is kept, so the pair is recorded as is.
        def all_ones(master, first, count):
            return np.full((count, 4), MAX_SEED, dtype=np.uint64)

        def no_replay(master, shot):
            raise AssertionError("at eta = 1 every shot is settled from its block")

        assert simulate._doubles(all_ones(0, 0, 1))[0, 0] == np.nextafter(1.0, 0.0)
        monkeypatch.setattr(simulate, "_first_blocks", all_ones)
        monkeypatch.setattr(simulate, "shot_rng", no_replay)
        config = small_hom_config(shots_per_point=1, eta=1.0)
        run = simulate_hom_run(config)
        for point, t2 in enumerate(config.t2_values):
            probs = _hom_law(config, t2)
            n_a, n_b = run.counts_a[point, 0], run.counts_b[point, 0]
            assert n_a < probs.shape[0] and n_b < probs.shape[1]
            assert probs[n_a, n_b] > 0.0

    @pytest.mark.parametrize("nu, eta", [(0.33, 0.25), (1.0, 0.6)])
    def test_detected_pairs_follow_thinned_law(self, nu, eta):
        # Thinning each port is linear in the joint law, so the detected law
        # is D = T^T P T with T[n, k] = Bin(k; n, eta); this checks the draws
        # against it without going through numpy's binomial.
        config = small_hom_config(
            nu=nu, eta=eta, t2_values=(0.0, 60.0, 3000.0), shots_per_point=20_000, master_seed=21
        )
        run = simulate_hom_run(config)
        for point, t2 in enumerate(config.t2_values):
            probs = _hom_law(config, t2)
            n = np.arange(len(probs))
            thin = _binomial_pmf(n[None, :], n[:, None], eta)
            expected = config.shots_per_point * (thin.T @ (probs / probs.sum()) @ thin)
            observed = np.zeros_like(expected)
            np.add.at(observed, (run.counts_a[point], run.counts_b[point]), 1.0)
            # Cells expecting fewer than 5 shots are pooled into one.
            rare = expected < 5.0
            assert expected[rare].sum() >= 5.0
            want = np.append(expected[~rare], expected[rare].sum())
            got = np.append(observed[~rare], observed[rare].sum())
            chi2 = float(((got - want) ** 2 / want).sum())
            assert chi2 < _chi2_quantile_999(len(want) - 1), (t2, chi2, len(want) - 1)

    def test_tail_mass_reported_on_default_scan(self, tmp_path):
        run = simulate_hom_run(HomScanConfig(shots_per_point=1))
        assert len(run.tail_mass) == len(HomScanConfig.t2_values)
        assert all(0.0 <= mass <= TAIL_TOLERANCE for mass in run.tail_mass)
        files = write_hom_events(run, tmp_path / "hom.csv")
        assert files == (tmp_path / "hom.csv", tmp_path / "hom.meta.json")
        meta = json.loads((tmp_path / "hom.meta.json").read_text())
        assert meta["tail_mass"] == list(run.tail_mass)

    def test_correlation_scan_output(self):
        run = simulate_hom_run(small_hom_config())
        points = correlation_scan(run)
        assert len(points) == 5
        for t2, corr, err in points:
            assert err > 0
            assert corr >= 0


def per_shot_event_csv(table) -> str:
    """Reference event CSV, written one shot and one event at a time."""
    lines = ["shot,vx,vy,vz\n"]
    for shot in range(table.n_shots):
        for vx, vy, vz in table.velocities[table.shot == shot]:
            lines.append("%d,%.9f,%.9f,%.9f\n" % (shot, vx, vy, vz))
    return "".join(lines)


def per_shot_hom_csv(run) -> str:
    """Reference scan CSV, written one shot and one atom at a time."""
    lines = ["shot,vx,vy,vz,port,t2_us\n"]
    for t2, row_a, row_b in zip(run.config.t2_values, run.counts_a, run.counts_b):
        for port, counts in zip("ab", (row_a, row_b)):
            vx, vy, vz = PORT_VELOCITIES[port]
            for shot, count in enumerate(counts):
                for _ in range(count):
                    lines.append("%d,%.9f,%.9f,%.9f,%s,%r\n" % (shot, vx, vy, vz, port, t2))
    return "".join(lines)


# Lattice values of the event CSV, k * 1e-9 mm/s with |v| < 2**20.
_LIMIT = (2**20 * 10**9 - 1) / 1e9
_LATTICE = st.integers(-(2**20 * 10**9 - 1), 2**20 * 10**9 - 1).map(lambda k: k / 1e9)
_LATTICE_EDGES = st.sampled_from([0.0, -0.0, 1e-9, -1e-9, _LIMIT, -_LIMIT, 2.0**19])

_MALFORMED_ROWS = [
    (["0,1.0,2.0,3.0", "0,oops,2.0,3.0"], 3),
    (["0,1.0,2.0,3.0", "0,1.0,2.0"], 3),
    (["0,1.0,2.0,3.0", "0,1.0,2.0,3.0,4.0"], 3),
    (["0,1.0,2.0,3.0", "# comment"], 3),
    (["0,1.0,2.0,3.0", "5,1.0,2.0,3.0"], 3),
    (["0,1.0,2.0,3.0", "-1,1.0,2.0,3.0"], 3),
    (["0,1.0,2.0,3.0", "", "", "1,oops,2.0,3.0"], 5),
    (["", "0,1.0,2.0,3.0", "", "1,1.0,2.0"], 5),
    (["0,1.0,2.0,3.0", "0,1.0,nan,3.0"], 3),
]
_MALFORMED_IDS = [
    "bad-float", "3-fields", "5-fields", "comment", "shot-at-shots", "shot-minus-1",
    "bad-float-after-blank", "3-fields-after-blank", "non-finite",
]


class TestEventTableIO:
    @given(st.floats(min_value=-1e12, max_value=1e12))
    @example(-0.0)
    @example(-1e-300)
    @example(-4.9e-10)
    @example(-5e-10)
    @example(float(np.nextafter(1.25, 0.0)))
    @example(float(np.nextafter(-3.75, -np.inf)))
    @example(1.25 + 5e-10)
    @example(3.75 - 5e-10)
    @example(8388607.999999999)
    @example(1e12)
    def test_lattice_value_prints_and_parses_to_itself(self, x):
        # The writer's contract: a 9-decimal value survives "%.9f" bit for bit.
        r = np.round(x, 9)
        assert np.float64(float("%.9f" % r)).tobytes() == np.float64(r).tobytes()

    @given(st.lists(
        st.tuples(st.integers(0, SHOT_ID_LIMIT - 1), *[st.one_of(_LATTICE, _LATTICE_EDGES)] * 3),
        min_size=1,
        max_size=40,
    ))
    @example([(0, -0.0, 1e-9, -1e-9)])
    @example([(SHOT_ID_LIMIT - 1, _LIMIT, -_LIMIT, 0.0)])
    @settings(max_examples=300)
    def test_writer_prints_lattice_values_as_percent_9f(self, rows):
        buffer = io.BytesIO()
        shot, *velocities = map(np.array, zip(*rows))
        simulate._write_rows(buffer, shot, np.column_stack(velocities))
        assert buffer.getvalue().decode() == "".join("%d,%.9f,%.9f,%.9f\n" % row for row in rows)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2.0**20, -(2.0**20), 1e300])
    def test_unwritable_velocity_raises_and_leaves_no_file(self, tmp_path, bad):
        velocities = np.zeros((5, 3))
        velocities[3, 1] = bad
        with pytest.raises(ValueError, match=r"2\*\*20 mm/s"):
            write_event_table([(np.arange(5), velocities)], small_config(shots=5), tmp_path / "ev.csv")
        assert list(tmp_path.iterdir()) == []

    def test_run_outside_the_writer_range_leaves_no_file(self, tmp_path):
        config = small_config(shots=30, grid_center=(2.0**20, 0.0, 0.0))
        with pytest.raises(ValueError, match=r"2\*\*20 mm/s"):
            write_run(config, tmp_path / "ev.csv")
        assert list(tmp_path.iterdir()) == []

    def test_failure_in_a_later_block_removes_the_partial_csv(self, tmp_path):
        config = small_config(shots=30)

        def blocks():
            yield next(simulate_counting_run(config))
            raise MemoryError("drawing failed")

        with pytest.raises(MemoryError):
            write_event_table(blocks(), config, tmp_path / "ev.csv")
        assert list(tmp_path.iterdir()) == []

    def test_streamed_run_writes_the_table_bytes(self, tmp_path):
        config = small_config(shots=2049)
        table = counting_events(config)
        paths = write_event_table([(table.shot, table.velocities)], config, tmp_path / "table.csv")
        csv_path, meta_path, events = write_run(config, tmp_path / "run.csv")
        assert (csv_path, meta_path) == (tmp_path / "run.csv", tmp_path / "run.meta.json")
        assert events == len(table.shot)
        assert_same_lines(csv_path.read_bytes().splitlines(keepends=True),
                          paths[0].read_bytes().splitlines(keepends=True))
        assert meta_path.read_bytes() == paths[1].read_bytes()

    def test_writer_memory_does_not_grow_with_the_shots(self, tmp_path):
        # Beyond one block of shots and one formatted block of rows, the
        # run holds only its per-shot totals, 8 bytes a shot.
        peaks = []
        for shots in (2_000, 8_000):
            _, peak = traced_peak(write_run, SourceConfig(shots=shots), tmp_path / "ev.csv")
            peaks.append(peak - 8 * shots)
        assert max(peaks) <= 4 << 20
        assert abs(peaks[1] - peaks[0]) <= 256 << 10

    def test_writer_matches_per_shot_reference(self, tmp_path):
        table = counting_events(small_config())
        assert (counts_per_shot(table) == 0).any()
        assert (table.velocities < 0).any()
        write_run(small_config(), tmp_path / "ev.csv")
        assert (tmp_path / "ev.csv").read_text() == per_shot_event_csv(table)

    @pytest.mark.parametrize("overrides", [
        {},
        # A t2 that repr prints in full, and one in exponent notation.
        {"t2_values": (-200.0, -100.0 / 3, 1e-7, 100.0, 200.0), "eta": 0.9},
    ], ids=["eta-0.25", "eta-0.9-repr-t2"])
    def test_hom_writer_matches_per_shot_reference(self, tmp_path, overrides):
        run = simulate_hom_run(small_hom_config(shots_per_point=50, **overrides))
        assert (run.counts_a == 0).any() and (run.counts_b > 0).any()
        write_hom_events(run, tmp_path / "hom.csv")
        assert (tmp_path / "hom.csv").read_text() == per_shot_hom_csv(run)

    def test_rows_in_any_shot_order_read_back_in_file_order(self, tmp_path):
        config = small_config(shots=40)
        csv_path = tmp_path / "ev.csv"
        write_run(config, csv_path)
        table = read_events(csv_path)
        header, *rows = csv_path.read_text().splitlines(keepends=True)
        # Interleave the shots at random, each shot's rows in their order.
        keys = np.random.default_rng(4).random(len(rows))
        for s in np.unique(table.shot):
            keys[table.shot == s] = np.sort(keys[table.shot == s])
        order = np.argsort(keys)
        assert (np.diff(table.shot[order]) < 0).any()
        csv_path.write_text(header + "".join(rows[i] for i in order))
        with mock.patch.object(checks, "_CHUNK_ROWS", 7):
            back = read_events(csv_path)
        assert back.n_shots == table.n_shots
        assert np.array_equal(back.shot, table.shot[order])
        assert np.array_equal(back.velocities, table.velocities[order])

    def test_rows_read_back_one_chunk_at_a_time(self, tmp_path):
        # Read without keeping the rows: memory stays at a chunk, not the file.
        def count_rows(csv_path):
            return sum(len(shot) for shot, _ in read_event_table(csv_path)[1])

        rng = np.random.default_rng(6)
        peaks = []
        for shots in (1_000, 5_000):
            shot = np.repeat(np.arange(shots), 20)
            velocities = np.round(rng.normal(0.0, 8.0, size=(20 * shots, 3)), 9)
            write_event_table([(shot, velocities)], SourceConfig(shots=shots, master_seed=6),
                              tmp_path / "ev.csv")
            rows, peak = traced_peak(count_rows, tmp_path / "ev.csv")
            assert rows == 20 * shots
            peaks.append(peak)
        assert max(peaks) <= 2 << 20
        assert abs(peaks[1] - peaks[0]) <= 256 << 10

    def test_sidecar_is_checked_before_any_row_is_read(self, tmp_path):
        csv_path, meta_path = tmp_path / "ev.csv", tmp_path / "ev.meta.json"
        csv_path.write_text("shot,vx,vy,vz\n0,1.0,2.0,3.0\n9,1.0,2.0,3.0\n")
        meta_path.write_text(json.dumps({"shots": 0, "config": {}}))
        with pytest.raises(ValueError, match=re.escape(str(meta_path))):
            read_event_table(csv_path)
        meta_path.write_text(json.dumps({"shots": 5, "config": {"shots": 5}}))
        shots, chunks = read_event_table(csv_path)
        assert shots == 5
        with pytest.raises(ValueError, match=re.escape(f"{csv_path}:3:")):
            list(chunks)

    def test_roundtrip(self, tmp_path):
        config = small_config(shots=30)
        table = counting_events(config)
        csv_path, meta_path = tmp_path / "ev.csv", tmp_path / "ev.meta.json"
        assert write_run(config, csv_path) == (csv_path, meta_path, len(table.shot))
        back = read_events(csv_path)
        assert back.n_shots == table.n_shots
        assert json.loads(meta_path.read_text())["config"] == simulate._config_dict(config)
        assert np.array_equal(back.shot, table.shot)
        assert np.array_equal(back.velocities, table.velocities)

    def test_empty_shots_survive_roundtrip(self, tmp_path):
        write_run(small_config(shots=10, nu_per_mode=0.0), tmp_path / "e.csv")
        assert (tmp_path / "e.csv").read_text() == "shot,vx,vy,vz\n"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            back = read_events(tmp_path / "e.csv")
        assert caught == []
        assert back.n_shots == 10
        assert len(back.shot) == len(back.velocities) == 0
        assert np.array_equal(counts_per_shot(back), np.zeros(10))

    def test_malformed_row_names_line(self, tmp_path):
        csv_path = tmp_path / "ev.csv"
        write_run(small_config(shots=5, master_seed=3), csv_path)
        lines = csv_path.read_text().splitlines()
        lines[2] = "0,not-a-number,1.0,2.0"
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":3:"):
            read_events(csv_path)

    @pytest.mark.parametrize("body, line", _MALFORMED_ROWS, ids=_MALFORMED_IDS)
    def test_malformed_rows_name_their_line(self, tmp_path, body, line):
        csv_path, meta_path = tmp_path / "ev.csv", tmp_path / "ev.meta.json"
        csv_path.write_text("shot,vx,vy,vz\n" + "\n".join(body) + "\n")
        meta_path.write_text(json.dumps({"shots": 5, "config": {"shots": 5}, "master_seed": 0}))
        with pytest.raises(ValueError, match=re.escape(f"{csv_path}:{line}:")):
            read_events(csv_path)

    @pytest.mark.parametrize("reader", [read_events, lambda path: bin_event_file(path, CellGrid())],
                             ids=["read_event_table", "bin_events"])
    @pytest.mark.parametrize("body, line", _MALFORMED_ROWS, ids=_MALFORMED_IDS)
    def test_malformed_rows_in_a_later_chunk_name_their_line(self, tmp_path, body, line, reader):
        # Seven good rows and a blank line first, so in chunks of 3 rows the
        # bad row falls in the third chunk or later.
        csv_path, meta_path = tmp_path / "ev.csv", tmp_path / "ev.meta.json"
        csv_path.write_text("shot,vx,vy,vz\n" + "\n".join(["4,1.0,2.0,3.0"] * 7 + ["", *body]) + "\n")
        meta_path.write_text(json.dumps({"shots": 5, "config": {"shots": 5}, "master_seed": 0}))
        with mock.patch.object(checks, "_CHUNK_ROWS", 3), pytest.raises(
            ValueError, match=re.escape(f"{csv_path}:{line + 8}:")
        ):
            reader(csv_path)

    @pytest.mark.parametrize(
        "meta, key",
        [
            ([], "object"),
            ({"shots": 5}, "config"),
            ({"shots": 5, "config": 5}, "config"),
            ({"shots": 0, "config": {}}, "shots"),
            ({"shots": 5, "config": {"shots": 4}}, "config declares 4 shots"),
        ],
        ids=["list", "no-config", "config-number", "shots-0", "config-shots-disagree"],
    )
    @pytest.mark.parametrize("reader", [read_events, lambda path: bin_event_file(path, CellGrid())],
                             ids=["read_event_table", "bin_events"])
    def test_bad_sidecar_names_the_sidecar(self, tmp_path, meta, key, reader):
        csv_path, meta_path = tmp_path / "ev.csv", tmp_path / "ev.meta.json"
        csv_path.write_text("shot,vx,vy,vz\n0,1.0,2.0,3.0\n")
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=re.escape(str(meta_path)) + ".*" + re.escape(key)):
            reader(csv_path)

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_chunked_rows_equal_one_read(self, tmp_path, chunk):
        config = small_config(shots=40)
        table = counting_events(config)
        csv_path = tmp_path / "ev.csv"
        write_run(config, csv_path)
        header, *rows = csv_path.read_text().splitlines(keepends=True)
        csv_path.write_text(header + "\n" + "".join(r + "\n" * (i % 3 == 0) for i, r in enumerate(rows)))
        dtype = [("shot", "i8"), ("v", "f8", 3)]
        whole = checks.read_csv_rows(csv_path, "shot,vx,vy,vz", dtype)
        with mock.patch.object(checks, "_CHUNK_ROWS", chunk):
            chunks = list(checks.read_csv_chunks(csv_path, "shot,vx,vy,vz", dtype))
        assert max(map(len, chunks)) == chunk
        assert np.concatenate(chunks).tobytes() == whole.tobytes()
        assert whole["shot"].tobytes() == table.shot.tobytes()

    def test_streamed_binning_of_shuffled_rows_equals_binning_the_table(self, tmp_path):
        config = small_config(shots=60, grid_center=(1.0, -2.0, 0.5))
        csv_path = tmp_path / "ev.csv"
        write_run(config, csv_path)
        header, *rows = csv_path.read_text().splitlines(keepends=True)
        order = np.random.default_rng(8).permutation(len(rows)).tolist()
        csv_path.write_text(header + "".join(rows[i] + "\n" * (i % 4 == 0) for i in order))
        grid = CellGrid(origin=(-2.0, -5.0, -1.0), cell_widths=(2.2, 2.2, 0.8))
        expected = bin_events(simulate_counting_run(config), config.shots, grid)
        with mock.patch.object(checks, "_CHUNK_ROWS", 3):
            binned = bin_event_file(csv_path, grid)
        assert expected.dropped.sum() and expected.counts.sum()
        assert np.array_equal(binned.counts, expected.counts)
        assert np.array_equal(binned.dropped, expected.dropped)

    def test_streamed_binning_memory_beyond_the_count_matrix_does_not_grow(self, tmp_path):
        rng = np.random.default_rng(11)
        beyond = []
        for shots in (2_000, 8_000):
            shot = np.repeat(np.arange(shots), 20)
            velocities = np.round(rng.normal(0.0, 8.0, size=(20 * shots, 3)), 9)
            config = SourceConfig(shots=shots, master_seed=11)
            write_event_table([(shot, velocities)], config, tmp_path / "ev.csv")
            binned, peak = traced_peak(bin_event_file, tmp_path / "ev.csv", CellGrid())
            assert binned.counts.sum() + binned.dropped.sum() == 20 * shots
            beyond.append(peak - binned.counts.nbytes - binned.dropped.nbytes)
        assert max(beyond) <= 2 << 20
        assert abs(beyond[1] - beyond[0]) <= 256 << 10

    def test_hom_t2_column_reads_back_exactly(self, tmp_path):
        t2_values = (-100.0 / 3, 0.1, 2.0 / 3, 1e-7)
        run = simulate_hom_run(small_hom_config(t2_values=t2_values, shots_per_point=200))
        write_hom_events(run, tmp_path / "hom.csv")
        rows = (tmp_path / "hom.csv").read_text().splitlines()[1:]
        assert {float(row.rsplit(",", 1)[1]) for row in rows} == set(run.config.t2_values)

    def test_hom_events_csv(self, tmp_path):
        run = simulate_hom_run(small_hom_config(shots_per_point=50))
        csv_path = tmp_path / "hom.csv"
        write_hom_events(run, csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "shot,vx,vy,vz,port,t2_us"
        assert any(",a," in line for line in lines[1:])
        assert any(",b," in line for line in lines[1:])
