"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Criteria 4-7 are quantitative reproductions of the published
experiments; the rest are exhaustive or statistical property checks.
"""

import dataclasses
import hashlib
import itertools
import math
import subprocess
import sys

import numpy as np
from scipy.optimize import brentq

from gmsklink.channel import ChannelConfig, LinkBudget, awgn, noise_variance
from gmsklink.energy import (CodedVariant, PowerProfile, TimingProfile,
                             amplifier_beta, circuit_powers,
                             crossover_distance, total_energy_coded,
                             total_energy_uncoded)
from gmsklink.fec import (CodecPowerProfile, conv_encode, conv_spec,
                          golay_spec, none_spec, reed_solomon, rs_spec)
from gmsklink.fec.convolutional import viterbi_decode_blocks
from gmsklink.fec.golay import decode_words, encode_words
from gmsklink.link import (StopRule, SweepSpec, crossover_ber, run_sweep,
                           semi_analytic_coded_ber)
from gmsklink.modem import BasebandSignal, alpha_for_bt, theoretical_ber
from gmsklink.netsim import EnsembleSpec, compare_coded_uncoded

POWER = PowerProfile()
TIMING = TimingProfile()
BUDGET = LinkBudget()
CODEC_POWER = CodecPowerProfile()
ALPHA_ENERGY = 0.68  # classic value used throughout the energy experiments
ALPHA_MODEM = alpha_for_bt(0.3)
PE = 1e-4


def _report(criterion, text):
    print(f"\n[acceptance] criterion {criterion}: PASS  ({text})")


def test_c01_golay_exhaustive_radius():
    """All 4096 messages x all 2325 error patterns of weight <= 3 decode exactly."""
    messages = np.arange(4096, dtype=np.uint32)
    words = encode_words(messages)
    patterns = [0]
    patterns += [1 << a for a in range(24)]
    patterns += [(1 << a) | (1 << b)
                 for a in range(24) for b in range(a + 1, 24)]
    patterns += [(1 << a) | (1 << b) | (1 << c)
                 for a in range(24) for b in range(a + 1, 24)
                 for c in range(b + 1, 24)]
    assert len(patterns) == 2325
    checked = 0
    for pattern in patterns:
        decoded, _, failed = decode_words(words ^ np.uint32(pattern))
        assert not failed.any()
        assert np.array_equal(decoded, messages)
        checked += words.size
    assert checked == 4096 * 2325
    _report(1, f"{checked} decodes, 100% corrected")


def _gf16():
    """Powers of a in GF(16) built on x^4 + x + 1, and field multiplication."""
    exp, x = [], 1
    for _ in range(15):
        exp.append(x)
        x <<= 1
        if x & 16:
            x ^= 0b10011
    log = {v: i for i, v in enumerate(exp)}

    def mul(a, b):
        return 0 if a == 0 or b == 0 else exp[(log[a] + log[b]) % 15]
    return exp, mul


def test_c02_rs_correction_and_weight3_oracle():
    """RS(15,11): 1e5 random <=2-symbol errors corrected; weight-3 flags exact."""
    rng = np.random.default_rng(1234)
    n_trials = 100_000
    rows = np.arange(n_trials)[:, None]
    words = reed_solomon.encode_words(rng.integers(0, 16, (n_trials, 11)))
    n_err = rng.integers(1, 3, n_trials)
    positions = np.argsort(rng.random((n_trials, 15)), axis=1)[:, :2]
    mags = rng.integers(1, 16, (n_trials, 2))
    mags[n_err == 1, 1] = 0
    received = words.copy()
    received[rows, positions] ^= mags
    got, corrected, failed = reed_solomon.decode_words(received)
    assert not failed.any()
    assert np.array_equal(corrected, n_err)
    assert np.array_equal(got, words)

    # syndromes r(a^1) .. r(a^4), symbol i the coefficient of x^(14 - i)
    exp, mul = _gf16()

    def syndrome_key(word):
        key = []
        for j in range(1, 5):
            s = 0
            for i, v in enumerate(word):
                if v:
                    s ^= mul(v, exp[(j * (14 - i)) % 15])
            key.append(s)
        return tuple(key)

    # the encoder produces codewords of the code with roots a^1 .. a^4
    assert all(syndrome_key(w) == (0, 0, 0, 0) for w in words[:2000].tolist())

    # brute-force nearest-codeword oracle: syndrome -> unique weight<=2 error
    oracle = {}
    zero = [0] * 15
    for pos in range(15):
        for mag in range(1, 16):
            e = zero.copy()
            e[pos] = mag
            oracle[syndrome_key(e)] = tuple(e)
    for p1, p2 in itertools.combinations(range(15), 2):
        for m1 in range(1, 16):
            for m2 in range(1, 16):
                e = zero.copy()
                e[p1], e[p2] = m1, m2
                oracle[syndrome_key(e)] = tuple(e)
    assert len(oracle) == 23_850

    n_flags = 1000
    received = reed_solomon.encode_words(rng.integers(0, 16, (n_flags, 11)))
    positions = np.argsort(rng.random((n_flags, 15)), axis=1)[:, :3]
    received[np.arange(n_flags)[:, None], positions] ^= rng.integers(1, 16, (n_flags, 3))
    got, corrected, failed = reed_solomon.decode_words(received)
    for r, g, f in zip(received, got, failed):
        nearest = oracle.get(syndrome_key(r.tolist()))
        if nearest is None:
            assert f  # no codeword within distance t
            assert np.array_equal(g, r)
        else:
            assert not f
            assert np.array_equal(g, r ^ np.array(nearest))
    _report(2, f"{n_trials} correction trials + {n_flags} oracle-checked flags")


def test_c03_viterbi_roundtrips_and_double_errors():
    """1e4 noiseless roundtrips exact; double errors in 200-bit blocks corrected."""
    rng = np.random.default_rng(77)
    data = rng.integers(0, 2, (10_000, 100)).astype(np.uint8)
    coded = np.array([conv_encode(row) for row in data])
    decoded = viterbi_decode_blocks(coded)
    assert np.array_equal(decoded, data)

    blocks = rng.integers(0, 2, (2_000, 94)).astype(np.uint8)
    coded = np.array([conv_encode(row) for row in blocks])
    assert coded.shape[1] == 200
    for row in coded:
        row[rng.choice(200, 2, replace=False)] ^= 1
    decoded = viterbi_decode_blocks(coded)
    assert np.array_equal(decoded, blocks)
    _report(3, "10000 roundtrips + 2000 double-error blocks, 100% exact")


def test_c04_modem_tracks_q_function_model():
    """BT=0.3 measured BER within 4x of Q(sqrt(2 alpha Eb/N0)) at 4..10 dB."""
    spec = SweepSpec(ebno_points=(4.0, 6.0, 8.0, 10.0),
                     stop_rule=StopRule(min_bit_errors=200, max_bits=40_000_000),
                     seed=42)
    ratios = []
    for point in run_sweep(spec):
        assert point.bit_errors >= 200
        predicted = float(theoretical_ber(point.ebno_db, ALPHA_MODEM))
        ratio = point.measured_ber / predicted
        assert 0.25 <= ratio <= 4.0, (point.ebno_db, ratio)
        ratios.append(f"{point.ebno_db:g}dB:{ratio:.2f}x")
    _report(4, "measured/model " + " ".join(ratios))


def test_c05_coded_crossovers_and_gain_ordering():
    """Coded-vs-uncoded BER crossings in [1e-4, 1e-1]; gains conv >= golay >= rs."""
    grid = tuple(np.arange(0.0, 9.1, 1.5))
    stop = StopRule(min_bit_errors=200, max_bits=2_000_000)
    curves = {}
    for name, codec in (("none", none_spec()), ("golay", golay_spec()),
                        ("convolutional", conv_spec())):
        curves[name] = run_sweep(SweepSpec(ebno_points=grid, codec=codec,
                                           stop_rule=stop, seed=7))
    crossings = {}
    for name in ("golay", "convolutional"):
        level = crossover_ber(curves[name], curves["none"])
        assert level is not None
        assert 1e-4 <= level <= 1e-1, (name, level)
        crossings[name] = level

    def ebno_at_target(fn, target=1e-4):
        return brentq(lambda e: math.log(fn(e)) - math.log(target), -2.0, 12.0)

    e_uncoded = ebno_at_target(lambda e: float(theoretical_ber(e, ALPHA_MODEM)))
    e_golay = ebno_at_target(
        lambda e: semi_analytic_coded_ber(golay_spec(), e, ALPHA_MODEM))
    e_rs = ebno_at_target(
        lambda e: semi_analytic_coded_ber(rs_spec(), e, ALPHA_MODEM))

    # convolutional gain from its measured curve (no closed form)
    xs = [p.ebno_db for p in curves["convolutional"] if p.measured_ber > 0]
    ys = [math.log(p.measured_ber)
          for p in curves["convolutional"] if p.measured_ber > 0]
    target = math.log(1e-4)
    e_conv = None
    for (x0, y0), (x1, y1) in zip(zip(xs, ys), zip(xs[1:], ys[1:])):
        if (y0 - target) * (y1 - target) <= 0:
            e_conv = x0 + (y0 - target) / (y0 - y1) * (x1 - x0)
            break
    assert e_conv is not None

    gain_golay = e_uncoded - e_golay
    gain_rs = e_uncoded - e_rs
    gain_conv = e_uncoded - e_conv
    assert gain_conv >= gain_golay >= gain_rs
    assert gain_golay >= 1.0 and gain_conv >= 1.0
    _report(5, f"crossings golay={crossings['golay']:.2e} "
               f"conv={crossings['convolutional']:.2e}; gains(dB) "
               f"conv={gain_conv:.2f} golay={gain_golay:.2f} rs={gain_rs:.2f}")


def test_c06_energy_distance_crossover_and_sensitivity(tmp_path):
    """Single energy crossover under a variant; savings monotone; report exists."""
    golay = golay_spec()
    # (i) a crossover exists for at least one interpretation variant
    d_star = {v: crossover_distance(POWER, TIMING, BUDGET, PE, ALPHA_ENERGY,
                                    golay, CODEC_POWER, v)
              for v in CodedVariant}
    in_scan = {v: d for v, d in d_star.items() if d is not None and 1 <= d <= 200}
    assert in_scan

    # (ii) beyond each in-range crossover, savings increase monotonically in d
    for variant, d0 in in_scan.items():
        previous = -np.inf
        singles = 0
        for d in np.linspace(1.0, 200.0, 120):
            link = dataclasses.replace(BUDGET, distance_m=d)
            unc = total_energy_uncoded(POWER, TIMING, link, PE, ALPHA_ENERGY)
            cod = total_energy_coded(POWER, TIMING, link, PE, ALPHA_ENERGY,
                                     golay, CODEC_POWER, variant)
            saving = 1.0 - cod.e_per_info_bit / unc.e_per_info_bit
            if d > d0:
                assert saving > previous or previous == -np.inf
                assert saving > 0
                previous = saving
            singles += 1
        assert singles == 120

    # (iii) the sensitivity report documents the combination closest to 47%
    proc = subprocess.run(
        [sys.executable, "-m", "gmsklink", "energy-distance", "--out",
         str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0
    lines = (tmp_path / "sensitivity.csv").read_text().splitlines()
    selected = [line for line in lines[1:] if line.endswith(",1")]
    assert len(selected) == 1
    variant_name, alpha_text, saving_text = selected[0].split(",")[:3]
    _report(6, f"crossovers {({v.value: round(d, 1) for v, d in in_scan.items()})}; "
               f"closest-to-47% combo: {variant_name}, alpha={alpha_text}, "
               f"savings@100m={float(saving_text):.3f}")


def test_c07_route_savings_replication_mode():
    """3 relays, hops U(50, 100) m, 1e3 trials: coded beats uncoded in mean."""
    # the sensitivity selection of criterion 6 picks the circuit-unscaled
    # variant; the hard assertion applies under that variant
    from gmsklink.cli import _sensitivity
    from gmsklink.params import load_config

    rows, selected = _sensitivity(load_config())
    variant = rows[selected][0]
    assert variant is CodedVariant.CIRCUIT_UNSCALED

    ens = EnsembleSpec(mode="replication", n_relays=3, hop_range=(50.0, 100.0),
                       seed=2024)
    stats = compare_coded_uncoded(ens, 1000, POWER, TIMING, BUDGET, PE,
                                  ALPHA_ENERGY, golay_spec(), CODEC_POWER,
                                  variant)
    assert stats.n_trials == 1000
    assert stats.mean > 0.0  # hard assertion
    soft = "inside" if 0.14 <= stats.mean <= 0.44 else "outside"
    radiated = compare_coded_uncoded(ens, 1000, POWER, TIMING, BUDGET, PE,
                                     ALPHA_ENERGY, golay_spec(), CODEC_POWER,
                                     variant, radiated_only=True)
    _report(7, f"mean savings {stats.mean:.3f} ({soft} the 29%+-15pp soft band; "
               f"radiated-only reading {radiated.mean:.3f})")


def test_c08_analytic_limits():
    """Small-d floor, large-d cubic slope, and the exact beta value."""
    # small-d limit: per-bit energy equals the circuit + transient floor
    link = dataclasses.replace(BUDGET, distance_m=0.5)
    b = total_energy_uncoded(POWER, TIMING, link, PE, ALPHA_ENERGY)
    p_tx, p_rx = circuit_powers(POWER)
    floor = ((p_tx + p_rx) * TIMING.t_on
             + 2 * POWER.p_syn * TIMING.t_start) / TIMING.l_bits
    assert abs(b.e_per_info_bit / floor - 1.0) < 1e-3

    # large-d: per-bit energy proportional to d^3 within 1% slope error
    ds = np.logspace(3, 4, 20)
    es = []
    for d in ds:
        link = dataclasses.replace(BUDGET, distance_m=float(d))
        es.append(total_energy_uncoded(POWER, TIMING, link, PE,
                                       ALPHA_ENERGY).e_per_info_bit)
    slope = np.polyfit(np.log10(ds), np.log10(es), 1)[0]
    assert abs(slope - 3.0) < 0.03

    assert amplifier_beta(PowerProfile(eta=0.75)) == 1 / 3
    _report(8, f"floor ratio ok, log-log slope {slope:.4f}, beta exactly 1/3")


def _hash_outputs(directory):
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(directory.iterdir()) if f.is_file()}


def test_c09_cli_determinism(tmp_path):
    """Every CLI command run twice produces byte-identical outputs."""
    commands = [
        ["ber-sweep", "--quick", "--codecs", "none,golay,reed_solomon,convolutional"],
        ["energy-distance", "--quick"],
        ["route-sim", "--quick"],
    ]
    for i, command in enumerate(commands):
        digests = []
        for run in ("first", "second"):
            out = tmp_path / f"cmd{i}-{run}"
            out.mkdir()
            proc = subprocess.run(
                [sys.executable, "-m", "gmsklink", *command, "--seed", "99",
                 "--out", str(out)], capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            digests.append(_hash_outputs(out))
        assert digests[0] == digests[1], command[0]

    # codec-test is file-free; its stdout must also be stable
    outs = [subprocess.run([sys.executable, "-m", "gmsklink", "codec-test",
                            "--quick"], capture_output=True, text=True).stdout
            for _ in range(2)]
    assert outs[0] == outs[1]

    # sweep points use independent substreams, so evaluation order (serial,
    # parallel or shuffled) cannot change results
    stop = StopRule(50, 50_000)
    fwd = run_sweep(SweepSpec(ebno_points=(2.0, 5.0), stop_rule=stop, seed=6))
    rev = run_sweep(SweepSpec(ebno_points=(5.0, 2.0), stop_rule=stop, seed=6))
    assert fwd == rev
    _report(9, "3 commands x 2 runs hash-identical; stdout stable; order-free")


def test_c10_noise_calibration():
    """Injected AWGN variance within 1% and I/Q cross-correlation < 0.005."""
    n = 1_000_000
    cfg = ChannelConfig(ebno_db=5.0, samples_per_symbol=8, seed=3)
    clean = BasebandSignal(samples=np.ones(n, dtype=complex), sample_rate=8e4)
    noise = awgn(clean, cfg).samples - 1.0
    target = noise_variance(cfg)
    measured = float(np.mean(np.abs(noise) ** 2))
    assert abs(measured / target - 1.0) < 0.01
    rho = float(np.mean(noise.real * noise.imag)
                / np.sqrt(noise.real.var() * noise.imag.var()))
    assert abs(rho) < 0.005
    _report(10, f"variance ratio {measured / target:.4f}, |rho|={abs(rho):.5f}")
