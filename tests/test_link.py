"""Tests for the Monte Carlo BER engine and its oracles, and the memory
bounds of the BER and route commands."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gmsklink import cli, link, modem
from gmsklink.channel import ChannelConfig, awgn, substream
from gmsklink.errors import ConfigError
from gmsklink.fec import (CODECS, apply_code, block_layout, conv_spec, convolutional,
                          golay, golay_spec, none_spec, rs_spec, strip_code)
from gmsklink.link import (BerPoint, StopRule, ber_csv_text, crossover_ber,
                           run_grid, run_point, semi_analytic_coded_ber,
                           wilson_interval)
from gmsklink.modem import (ModemConfig, alpha_for_bt, demodulate, modulate,
                            theoretical_ber)
from gmsklink.params import load_config

ALPHA = alpha_for_bt(0.3)
MODEM = ModemConfig()


@pytest.mark.parametrize("slice_bits", [link._DATA_SLICE, 4096, 4097, 1000, 777])
@pytest.mark.parametrize("n_bits", [1, 12_345, 25_000, 200_000])
def test_data_bits_drawn_in_slices_are_one_draw(n_bits, slice_bits, monkeypatch):
    # int64 draws of 0 or 1 continue one Philox stream from slice to slice,
    # whatever the slices, so a round's bits are those of one draw
    monkeypatch.setattr(link, "_DATA_SLICE", slice_bits)
    for seed in range(5):
        got = link._data_bits(substream(seed, 1), n_bits)
        assert got.dtype == np.uint8
        want = substream(seed, 1).integers(0, 2, n_bits)
        np.testing.assert_array_equal(got, want)


def test_data_bits_peak_memory():
    # 200 000 bits: the uint8 bits and one 16 Ki-bit int64 slice, 0.32 MiB
    # (one int64 draw cast to uint8 peaked at 1.72 MiB)
    rng = substream(3)
    tracemalloc.start()
    try:
        link._data_bits(rng, 200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.4 * 2**20


def _curve(codec, grid, stop_rule, seed):
    """One codec's points over ``grid``, in the order given."""
    return [row[0] for row in run_grid([codec], grid, MODEM, stop_rule, seed)]


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        for errors, n in ((0, 100), (1, 100), (50, 100), (100, 100), (3, 10**6)):
            lo, hi = wilson_interval(errors, n)
            assert lo <= errors / n <= hi

    def test_zero_errors_lower_bound_is_zero(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0
        assert hi > 0.0

    def test_narrows_with_samples(self):
        lo1, hi1 = wilson_interval(10, 100)
        lo2, hi2 = wilson_interval(1000, 10_000)
        assert (hi2 - lo2) < (hi1 - lo1)


class TestStopRule:
    @pytest.mark.parametrize("value", [0, math.nan])
    def test_min_bit_errors_checked(self, value):
        with pytest.raises(ConfigError, match="min_bit_errors must be >= 1"):
            StopRule(min_bit_errors=value)

    @pytest.mark.parametrize("value", [0, math.nan])
    def test_max_bits_checked(self, value):
        with pytest.raises(ConfigError, match="max_bits must be >= 1"):
            StopRule(max_bits=value)


class TestRunPoint:
    def test_deterministic_given_seed_and_ebno(self):
        args = (none_spec(), 4.0, MODEM, StopRule(50, 100_000), 21)
        assert run_point(*args) == run_point(*args)

    def test_negative_zero_ebno_keys_the_same_streams(self):
        stop = StopRule(10**9, 25_000)
        assert (run_point(none_spec(), -0.0, MODEM, stop, 3).bit_errors
                == run_point(none_spec(), 0.0, MODEM, stop, 3).bit_errors)

    def test_nan_ebno_rejected(self):
        with pytest.raises(ConfigError):
            run_grid([none_spec()], (0.0, math.nan), MODEM, StopRule(), 0)

    def test_noise_free_limit_flags_low_confidence(self):
        point = run_point(none_spec(), 30.0, MODEM, StopRule(200, 100_000), 1)
        assert point.bit_errors == 0
        assert point.low_confidence
        assert point.bits_simulated == 100_000

    def test_uncoded_tracks_q_function_at_8db(self):
        point = run_point(none_spec(), 8.0, MODEM, StopRule(100, 2_000_000), 3)
        predicted = float(theoretical_ber(8.0, ALPHA))
        assert point.bit_errors >= 100
        assert 0.25 * predicted <= point.measured_ber <= 4 * predicted

    def test_golay_worse_than_uncoded_at_0db(self):
        [[unc, gol]] = run_grid([none_spec(), golay_spec()], [0.0], MODEM,
                                StopRule(200, 200_000), 5)
        assert gol.measured_ber > unc.measured_ber

    def test_one_point_sweep_is_run_point(self):
        stop = StopRule(50, 50_000)
        assert (_curve(none_spec(), (0.0, 2.0), stop, 9)[1]
                == run_point(none_spec(), 2.0, MODEM, stop, 9))


class TestRunPoints:
    """Several codecs at one Eb/N0."""

    # at 7 dB under this rule the codecs stop after 1, 2 and 3 chunks
    EBNO = 7.0
    STOP = StopRule(100, 150_000)
    MODEM = ModemConfig()
    SEED = 4

    @pytest.fixture(scope="class")
    def alone(self):
        codecs = {name: codec.spec(4.0) for name, codec in CODECS.items()}
        return codecs, {
            name: run_point(codec, self.EBNO, self.MODEM, self.STOP, self.SEED)
            for name, codec in codecs.items()}

    def test_codecs_stop_at_different_chunks(self, alone):
        _, points = alone
        assert len({p.bits_simulated for p in points.values()}) == 3

    @pytest.mark.parametrize("order", [
        ("none", "golay", "reed_solomon", "convolutional"),
        ("convolutional", "reed_solomon", "golay", "none"),
        ("golay", "convolutional", "none", "reed_solomon"),
        ("reed_solomon", "none"),
        ("convolutional", "golay"),
    ])
    def test_equals_run_point_per_spec(self, alone, order):
        codecs, points = alone
        got = run_grid([codecs[name] for name in order], [self.EBNO],
                       self.MODEM, self.STOP, self.SEED)
        assert got == [[points[name] for name in order]]

    def test_no_specs(self):
        assert run_grid([], [1.0], self.MODEM, self.STOP, self.SEED) == [[]]

    def test_nan_ebno_rejected_before_drawing(self, monkeypatch):
        monkeypatch.setattr(link, "substream", lambda *entropy: pytest.fail("drew"))
        with pytest.raises(ConfigError, match="NaN"):
            run_grid([none_spec()], [math.nan], self.MODEM, self.STOP, self.SEED)

    @pytest.mark.parametrize("ebno_db, codec", [
        (-math.inf, none_spec()), (-4000.0, none_spec()), (-3200.0, rs_spec()),
    ])
    def test_infinite_noise_rejected_before_drawing(self, monkeypatch, ebno_db, codec):
        monkeypatch.setattr(link, "substream", lambda *entropy: pytest.fail("drew"))
        with pytest.raises(ConfigError, match="noise variance that is not finite"):
            run_grid([none_spec(), codec], [ebno_db], self.MODEM, self.STOP, self.SEED)

    @pytest.mark.parametrize("grid, keyed", [((math.inf,), 1), ((math.inf, 5.0), 4)])
    def test_infinite_ebno_draws_no_noise(self, monkeypatch, grid, keyed):
        # two rounds: each point keys its data stream once, and only the
        # finite point keys a noise stream, once a round
        codecs = [none_spec(), golay_spec()]
        stop = StopRule(10**9, 50_000)
        want = [_reference_point(codecs, e, self.MODEM, stop, self.SEED)
                for e in grid]
        keys = []
        draw = link.substream
        monkeypatch.setattr(link, "substream",
                            lambda *entropy: keys.append(entropy) or draw(*entropy))
        assert run_grid(codecs, grid, self.MODEM, stop, self.SEED) == want
        assert len(keys) == keyed

    def test_run_point_rejects_minus_infinity(self):
        with pytest.raises(ConfigError, match="not finite"):
            run_point(none_spec(), -math.inf, self.MODEM, self.STOP, self.SEED)


def _reference_point(codecs, ebno_db, modem, stop_rule, seed):
    """The slow per-stage engine: every chunk of one Eb/N0 point runs and is
    decoded before the next point starts, each codec through the whole
    waveform chain ``demodulate(awgn(modulate(coded)))``."""
    ebits = link._ebno_entropy(ebno_db)
    data_rng = substream(seed, ebits, link._DATA_TAG)
    errors = [0] * len(codecs)
    bits_simulated = [0] * len(codecs)
    simulated, size, chunk_index = 0, 25_000, 0
    while simulated < stop_rule.max_bits:
        running = [i for i, e in enumerate(errors) if e < stop_rule.min_bit_errors]
        if not running:
            break
        n_bits = min(size, stop_rule.max_bits - simulated)
        bits = data_rng.integers(0, 2, n_bits).astype(np.uint8)
        simulated += n_bits
        for i in running:
            coded = apply_code(bits, codecs[i])
            channel = ChannelConfig(ebno_db=ebno_db, code_rate=bits.size / coded.size,
                                    samples_per_symbol=modem.samples_per_symbol,
                                    seed=link._noise_seed(seed, ebits, chunk_index))
            noisy = awgn(modulate(coded, modem), channel)
            decoded = strip_code(demodulate(noisy, modem, coded.size), codecs[i],
                                 bits.size)
            errors[i] += int(np.count_nonzero(decoded != bits))
            bits_simulated[i] = simulated
        size = min(2 * size, 200_000)
        chunk_index += 1
    points = []
    for e, n in zip(errors, bits_simulated):
        ci_low, ci_high = wilson_interval(e, n)
        points.append(BerPoint(float(ebno_db), e / n, e, n, ci_low, ci_high,
                               e < stop_rule.min_bit_errors))
    return points


class TestRunGrid:
    # under this rule the points stop after 3, 1, 3 and 2 rounds, and at
    # 7 dB the codecs stop after 1, 2 and 3
    GRID = (9.0, 1.0, 7.0, 6.0)
    STOP = StopRule(100, 150_000)
    MODEM = ModemConfig()
    SEED = 4

    @pytest.fixture(scope="class")
    def reference(self):
        codecs = {name: codec.spec(4.0) for name, codec in CODECS.items()}
        specs = list(codecs.values())
        return codecs, [dict(zip(codecs, _reference_point(
            specs, e, self.MODEM, self.STOP, self.SEED))) for e in self.GRID]

    def test_points_stop_at_different_rounds(self, reference):
        _, points = reference
        assert [max(p.bits_simulated for p in row.values()) for row in points] == [
            150_000, 25_000, 150_000, 75_000]
        assert len({p.bits_simulated for p in points[2].values()}) == 3

    @pytest.mark.parametrize("order, cap", [
        (("convolutional", "none", "golay", "reed_solomon"), None),
        (("none", "golay", "reed_solomon", "convolutional"), None),
        # the longest round is 75 000 bits, so this bound makes 2-point groups
        (("none", "golay", "reed_solomon", "convolutional"), 150_000),
        (("convolutional",), None),
        (("golay", "none", "reed_solomon"), None),
    ])
    def test_equals_per_point_engine(self, reference, monkeypatch, order, cap):
        codecs, points = reference
        if cap is not None:
            monkeypatch.setattr(link, "_GROUP_BITS", cap)
        got = run_grid([codecs[name] for name in order], self.GRID, self.MODEM,
                       self.STOP, self.SEED)
        assert got == [[row[name] for name in order] for row in points]

    def test_decode_calls_stay_within_the_row_cap(self, monkeypatch):
        # rounds of 25 000 and 50 000 bits, 13 and 25 segments of 2048 bits
        # per point: a group's round may hold 150 000 bits for three points,
        # 100 000 for two, and a lone point's 50 000-bit round exceeds 40 000
        spec = conv_spec(2048)
        stop = StopRule(10**9, 75_000)
        grid = (0.0, 1.0, 2.0)
        modem = ModemConfig(samples_per_symbol=4)
        want = run_grid([spec], grid, modem, stop, self.SEED)
        calls = []
        decode = convolutional._decode
        monkeypatch.setattr(convolutional, "_decode",
                            lambda c, *a: calls.append(c.shape[0]) or decode(c, *a))
        for cap, expected in ((150_000, [39, 75]), (149_999, [26, 50, 13, 25]),
                              (40_000, [13, 25] * 3)):
            calls.clear()
            monkeypatch.setattr(link, "_GROUP_BITS", cap)
            assert run_grid([spec], grid, modem, stop, self.SEED) == want
            assert calls == expected

    def test_block_codes_decode_a_round_in_one_call(self, monkeypatch):
        # three points of two rounds, 25 000 and 50 000 bits: one Golay
        # decode per round, of every point's 12-bit blocks
        stop = StopRule(10**9, 75_000)
        grid = (0.0, 1.0, 2.0)
        want = [[_reference_point([golay_spec()], e, self.MODEM, stop, self.SEED)[0]]
                for e in grid]
        calls = []
        decode = golay.decode_words
        monkeypatch.setattr(golay, "decode_words",
                            lambda w: calls.append(w.size) or decode(w))
        assert run_grid([golay_spec()], grid, self.MODEM, stop, self.SEED) == want
        assert calls == [3 * math.ceil(25_000 / 12), 3 * math.ceil(50_000 / 12)]


@pytest.mark.parametrize("cfg", [ModemConfig(), ModemConfig(rx_bt=0.1)],
                         ids=["tabled", "untabled"])
def test_each_waveform_block_is_made_once(cfg, monkeypatch):
    # the engine reads a stream's odd decisions with I and its even ones
    # with Q, but makes each waveform block of their noiseless statistic
    # once: a tabled stream its first and last few decisions, an untabled
    # one each of _noiseless's blocks.  Streams at noise and at a zero
    # scale, one shorter than a decision's frames, in chunks of 80 normals
    c = modem.constants(cfg)  # built untraced: the table build makes blocks
    made = []
    noiseless = modem._noiseless
    monkeypatch.setattr(modem, "_noiseless", lambda c, tx, parity, k0, k1: (
        made.append(k1 - k0) or noiseless(c, tx, parity, k0, k1)))
    monkeypatch.setattr(link, "_CHUNK_NORMALS", 80)
    sizes, scales = (3000, 7, 12_001, 2500), (0.7, 0.9, 1.1, 0.0)
    rng = np.random.default_rng(6)
    coded = [rng.integers(0, 2, n).astype(np.uint8) for n in sizes]
    link._decide(coded, scales, cfg, substream(6))
    want = []
    for n in sizes:
        if c.table is not None:
            lo, hi = modem._inner(c, n)
            want += [size for size in (lo, n - hi) if size]
        else:
            step = modem._PRODUCT_SIZE // c.taps.size
            want += [min(step, n - b0) for b0 in range(0, n, step)]
    assert sorted(made) == sorted(want)


@pytest.mark.parametrize("grid, stop_rule, bound_mib", [
    ((0.0,), StopRule(1, 25_000), 1.6),
    ((0.0, 1.0, 2.0, 3.0), StopRule(1, 25_000), 1.7),
    (tuple(1.5 * i for i in range(7)), StopRule(1, 25_000), 2.2),
    ((0.0, 1.5, 3.0), StopRule(10**9, 75_000), 1.9),
], ids=["1-point", "4-points", "sweep-curve", "sweep-dense"])
def test_one_round_peak_memory(grid, stop_rule, bound_mib):
    # rounds of 25 000 bits (and, at the benchmark's sweep-dense shape, a
    # second of 50 000): no waveform and no buffer of a point's normals is
    # made.  Each noise component of a stream keeps float sums only from
    # its first undecided decision to the last one the chunk feeds, the odd
    # decisions' while I is read and the even ones' while Q is, beside one
    # chunk of normals (0.5 MiB) and its filtered frames (0.19 MiB); every
    # point's decisions and data bits are held packed, 8 to a byte, until
    # each codec decodes every point's packed streams of the round in one
    # batch, freeing its streams once stacked, in 8-step Viterbi stages.
    # The peak read 1.37 MiB for one point, 1.44 MiB for four, in the last
    # point's decisions, and 1.91 MiB for the seven of sweep-curve and
    # 1.64 MiB for sweep-dense, in the Viterbi decode.  Each bound fails at
    # the engine that held a float for every odd decision until its stream's
    # Q part and decoded unpacked bits: it read 1.97, 2.10, 2.35 and 2.95
    # MiB (2.50 MiB for seven with int16 Viterbi metrics and two unpacked
    # stages alive at once).  With one noise value per decision and the
    # decisions held a byte each, it read 2.15, 2.69, 4.26 and 3.22 MiB,
    # all in the last point's decisions.  RS decoding in int64 symbols,
    # with the Viterbi decoder's padded batch and its output copied beside
    # the packed choices, read 3.7 MiB for seven, in the RS decode.
    # Holding every codec's streams until the round ended, with 64-step
    # Viterbi stages, read 4.6 MiB for four points and 8.1 MiB for seven;
    # with only the streams held, 4.6 MiB for seven.
    args = ([none_spec(), golay_spec(), rs_spec(), conv_spec()], grid,
            ModemConfig(), stop_rule)
    run_grid(*args, seed=3)  # build the codecs' lazy tables untraced
    tracemalloc.start()
    try:
        run_grid(*args, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2**20


_COLD_PASS = """
import json, sys, tracemalloc
from gmsklink.fec import conv_spec, golay_spec, none_spec, rs_spec
from gmsklink.link import StopRule, run_grid
from gmsklink.modem import ModemConfig
args = ([none_spec(), golay_spec(), rs_spec(), conv_spec()],
        tuple(1.5 * i for i in range(7)), ModemConfig(), StopRule(1, 25_000))
before = set(sys.modules)
tracemalloc.start()
run_grid(*args, seed=3)
_, peak = tracemalloc.get_traced_memory()
tracemalloc.stop()
print(json.dumps({"peak": peak, "imported": sorted(set(sys.modules) - before)}))
"""


def test_cold_pass_imports_and_peak_memory():
    # the first round of a fresh process, as every ber-sweep run is, at the
    # sweep-curve shape: its first calls build the codecs' tables and the
    # modem's statistic table and import numpy.random, and nothing else of
    # numpy.  The peak read 2.93 MiB, in the first Viterbi call, with each
    # noise component's decisions made as its frames complete and the
    # round decoded from packed bits; the last point's decisions read 2.32
    # MiB.  The bound fails at the engine that held a float for every odd
    # decision until its stream's Q part and decoded unpacked bits: its
    # first Viterbi call read 3.37 MiB, with the block codecs' tables kept
    # at their natural widths (the RS decoding table 0.19 MiB) and int8
    # Viterbi metrics (3.52 MiB with int16 ones and two unpacked stages
    # alive at once), and its last point's decisions 3.05 MiB (4.04 MiB
    # with one noise value per decision and the decisions held a byte
    # each).  With the RS decoding tables kept as 23 852 15-byte patterns
    # and an index (0.49 MiB), the first Viterbi call read 3.84 MiB.  With
    # np.unique grouping the Viterbi restarts (which imports numpy.ma on
    # numpy 2.4), RS decoding in int64 symbols, each codec's decode arrays
    # alive into the next codec's, and the padded batch and output copy
    # beside the packed choices, it read 5.9 MiB.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _COLD_PASS], env=env,
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout)
    numpy_imports = [m for m in result["imported"]
                     if m.split(".")[0] == "numpy" and m.split(".")[:2] != ["numpy", "random"]]
    assert numpy_imports == []
    assert result["peak"] <= 3.2 * 2**20


def test_route_sim_peak_memory(tmp_path, capsys):
    # route-sim at the benchmark's route-ensemble shape: 4000 trials of each
    # ensemble, both variants.  Each draw holds its table of hop powers and
    # its trial indices; a slice of 1024 trials is streamed and routed at a
    # time, the geometry ensemble first, and one file's text is made and
    # written at a time.  The peak read 1.65-1.71 MiB, while the replication
    # files were formatted; the geometry draw's peak, in routing a slice,
    # read 1.61 MiB (1.91 when drawn second).  Holding every route as a
    # list, every trial as a tuple and all four texts until the command
    # ended read 2.86-2.99 MiB.
    cfg = load_config().with_overrides({"route.trials": 4000, "run.variant": "both"})
    cli.cmd_route_sim(cfg, str(tmp_path), False, "both")  # first calls untraced
    tracemalloc.start()
    try:
        cli.cmd_route_sim(cfg, str(tmp_path), False, "both")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * 2**20


class TestRunSweep:
    """One codec over a grid of Eb/N0 points."""

    def test_order_independence_of_points(self):
        # each point derives its own substream, so grid order cannot matter
        stop = StopRule(50, 50_000)
        fwd = _curve(none_spec(), (2.0, 5.0), stop, 13)
        rev = _curve(none_spec(), (5.0, 2.0), stop, 13)
        assert fwd == rev[::-1]

    def test_monotone_up_to_ci_overlap(self):
        points = _curve(none_spec(), (0.0, 2.0, 4.0, 6.0), StopRule(200, 500_000), 17)
        for a, b in zip(points, points[1:]):
            assert b.measured_ber <= a.measured_ber or b.ci_low <= a.ci_high


def _fake_curve(ebnos, bers):
    return [BerPoint(e, b, 100, int(100 / b), b / 2, b * 2, False)
            for e, b in zip(ebnos, bers)]


class TestCrossoverBer:
    def test_identical_curves_no_crossing(self):
        curve = _fake_curve([0, 2, 4], [1e-1, 1e-2, 1e-3])
        assert crossover_ber(curve, curve) is None

    def test_synthetic_crossing_at_1e2(self):
        grid = [0.0, 2.0, 4.0, 6.0]
        uncoded = _fake_curve(grid, [4e-2, 2e-2, 1e-2, 5e-3])
        # coded curve crosses exactly at 4 dB where both equal 1e-2
        coded = _fake_curve(grid, [1.6e-1, 4e-2, 1e-2, 1e-3])
        got = crossover_ber(coded, uncoded)
        assert got == pytest.approx(1e-2, rel=0.05)

    def test_mismatched_grids_rejected(self):
        with pytest.raises(ValueError):
            crossover_ber(_fake_curve([0, 2], [1e-1, 1e-2]),
                          _fake_curve([0, 3], [1e-1, 1e-2]))


class TestSemiAnalytic:
    def test_zero_channel_error_rate(self):
        assert semi_analytic_coded_ber(golay_spec(), 60.0, ALPHA) == 0.0

    def test_degenerate_code_returns_channel_ber(self):
        value = semi_analytic_coded_ber(none_spec(), 6.0, ALPHA)
        assert value == pytest.approx(float(theoretical_ber(6.0, ALPHA)))

    def test_convolutional_unsupported(self):
        with pytest.raises(ValueError):
            semi_analytic_coded_ber(conv_spec(), 6.0, ALPHA)

    def test_golay_matches_bsc_monte_carlo_within_2x(self):
        # independent oracle: inject i.i.d. bit flips at exactly p and decode
        from gmsklink.fec import apply_code, strip_code

        p = 1e-2
        rng = np.random.default_rng(23)
        n_bits = 1_200_000
        bits = rng.integers(0, 2, n_bits).astype(np.uint8)
        coded = apply_code(bits, golay_spec())
        flips = (rng.random(coded.size) < p).astype(np.uint8)
        decoded = strip_code(coded ^ flips, golay_spec(), n_bits)
        measured = np.count_nonzero(decoded != bits) / n_bits

        # analytic estimate at the same channel bit error probability
        n, t = 24, 3
        predicted = sum(((i + t) / n) * math.comb(n, i) * p**i * (1 - p) ** (n - i)
                        for i in range(t + 1, n + 1))
        assert measured == pytest.approx(predicted, rel=1.0)  # within 2x

    def test_rs_sensible_and_below_raw(self):
        raw = float(theoretical_ber(8.0 + 10 * math.log10(11 / 15), ALPHA))
        coded = semi_analytic_coded_ber(rs_spec(), 8.0, ALPHA)
        assert 0 < coded < raw


class TestCsvOutput:
    def test_schema_and_reproducibility(self):
        args = (none_spec(), (2.0, 4.0), StopRule(50, 50_000), 31)
        text = ber_csv_text([("none", p) for p in _curve(*args)])
        assert text.splitlines()[0] == (
            "ebno_db,codec,ber,errors,bits,ci_low,ci_high,low_confidence_flag")
        assert text == ber_csv_text([("none", p) for p in _curve(*args)])
        assert len(text.splitlines()) == 3
