"""The symbol-structured modem against the full-rate reference it replaces.

The reference is the textbook chain: impulses at the symbol instants,
convolution with the frequency pulse, running phase sum and complex
exponential at every sample; then the full predetection-filter convolution,
sampled at the decision instants, derotated and sliced.  The modem must
produce the same samples (up to the reference's phase-accumulation rounding)
and exactly the same hard decisions, with and without noise.  The BER
engine's per-decision path must in turn give exactly the hard decisions of
the waveform chain ``demodulate(awgn(modulate(bits)))``.
"""

import subprocess
import sys

import numpy as np
import pytest

from gmsklink import link
from gmsklink.channel import (ChannelConfig, add_noise, awgn, noise_scale,
                              noise_variance, substream)
from gmsklink.modem import (_PRODUCT_SIZE, BasebandSignal, ModemConfig,
                            demodulate, gaussian_frequency_pulse, modulate,
                            receiver_lowpass)

JPOW = np.array([1.0, 1.0j, -1.0, -1.0j])
EBNO_DB = (0.0, 3.0, 6.0, np.inf)


def reference_modulate(bits, cfg):
    sps = cfg.samples_per_symbol
    tx = bits.copy()
    if cfg.differential_precoding:
        tx[1:] ^= bits[:-1]
    impulses = np.zeros((bits.size - 1) * sps + 1)
    impulses[::sps] = 2.0 * tx - 1.0
    phase = np.pi * np.cumsum(np.convolve(impulses, gaussian_frequency_pulse(cfg)))
    return np.exp(1j * phase)


def reference_awgn(samples, cfg):
    var = noise_variance(cfg)
    if var == 0.0:
        return samples
    rng = substream(cfg.seed)
    scale = np.sqrt(var / 2.0)
    n = samples.size
    return samples + (rng.normal(0.0, scale, size=n)
                      + 1j * rng.normal(0.0, scale, size=n))


def reference_demodulate(samples, cfg, num_bits):
    sps = cfg.samples_per_symbol
    h = receiver_lowpass(cfg)
    y = np.convolve(samples, h)
    delay = ((2 * cfg.pulse_span_symbols + 1) * sps // 2 + sps // 2 - 1
             + (h.size - 1) // 2)
    k = np.arange(num_bits)
    decisions = ((y[delay + k * sps] * JPOW[(k + 1) % 4]).real < 0).astype(np.uint8)
    if not cfg.differential_precoding:
        decisions[1:] ^= decisions[:-1].copy()
    return decisions


def _check_against_reference(cfg, bits, seed):
    sig = modulate(bits, cfg)
    ref = reference_modulate(bits, cfg)
    assert sig.samples.shape == ref.shape
    np.testing.assert_allclose(sig.samples, ref, rtol=0, atol=1e-9)
    for ebno in EBNO_DB:
        chan = ChannelConfig(ebno_db=ebno, samples_per_symbol=cfg.samples_per_symbol,
                             seed=seed)
        got = demodulate(awgn(sig, chan), cfg, bits.size)
        want = reference_demodulate(reference_awgn(ref, chan), cfg, bits.size)
        np.testing.assert_array_equal(got, want, err_msg=f"Eb/N0 {ebno} dB")
        if ebno == np.inf:
            np.testing.assert_array_equal(got, bits)


_SHAPES = [(1, 0.6), (1, 1.0)] + [
    (span, bt) for span in (2, 3, 4) for bt in (0.25, 0.3, 0.5, 1.0)
]


@pytest.mark.parametrize("precoding", [True, False])
@pytest.mark.parametrize("span,bt", _SHAPES)
@pytest.mark.parametrize("sps", [4, 8, 16])
def test_matches_full_rate_reference(sps, span, bt, precoding):
    cfg = ModemConfig(bt_product=bt, samples_per_symbol=sps,
                      pulse_span_symbols=span, differential_precoding=precoding)
    seed = sps * 1000 + span * 100 + int(bt * 20) + precoding
    bits = np.random.default_rng(seed).integers(0, 2, 601).astype(np.uint8)
    _check_against_reference(cfg, bits, seed)


@pytest.mark.parametrize("rx_bt", [0.15, 0.3, 1.0, 2.0])
@pytest.mark.parametrize("span,bt", [(1, 1.0), (3, 0.3)])
@pytest.mark.parametrize("sps", [4, 8])
def test_receiver_bandwidths(sps, span, bt, rx_bt):
    # narrow filters reach past both ends of the signal
    cfg = ModemConfig(bt_product=bt, samples_per_symbol=sps,
                      pulse_span_symbols=span, rx_bt=rx_bt)
    bits = np.random.default_rng(int(rx_bt * 100) + sps).integers(0, 2, 400)
    bits = bits.astype(np.uint8)
    for ebno in (0.0, 6.0):
        chan = ChannelConfig(ebno_db=ebno, samples_per_symbol=sps, seed=sps)
        got = demodulate(awgn(modulate(bits, cfg), chan), cfg, bits.size)
        want = reference_demodulate(
            reference_awgn(reference_modulate(bits, cfg), chan), cfg, bits.size)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 9, 10, 17, 18, 19, 40])
@pytest.mark.parametrize("span", [1, 4, 8])
def test_short_and_wide_windows(n, span):
    # sequences shorter than the pulse window have no table rows at all, and
    # spans beyond four split the window over several tables
    cfg = ModemConfig(bt_product=1.0 if span == 1 else 0.25,
                      samples_per_symbol=4, pulse_span_symbols=span)
    bits = np.random.default_rng(n * 10 + span).integers(0, 2, n).astype(np.uint8)
    _check_against_reference(cfg, bits, seed=n)


@pytest.mark.parametrize("ebno", [0.0, 4.5, 9.0])
def test_awgn_bit_identical_to_complex_sum(ebno):
    sig = modulate(np.random.default_rng(2).integers(0, 2, 3000), ModemConfig())
    chan = ChannelConfig(ebno_db=ebno, samples_per_symbol=8, seed=41)
    np.testing.assert_array_equal(awgn(sig, chan).samples,
                                  reference_awgn(sig.samples, chan))


@pytest.mark.parametrize("ebno", [0.0, 9.0, np.inf])
@pytest.mark.parametrize("extra", [0, 1, 700, 4000, 5000])
def test_awgn_with_a_shared_stream_is_bit_identical(ebno, extra):
    # signals of 1 to 4000 samples under one seed read prefixes of one
    # buffer of normals drawn for the longest of them, and maybe more
    rng = np.random.default_rng(5)
    chan = ChannelConfig(ebno_db=ebno, code_rate=0.5, samples_per_symbol=8, seed=43)
    z = substream(chan.seed).standard_normal(2 * 4000 + extra)
    for n in (1, 333, 700, 1999, 4000):
        sig = BasebandSignal(np.exp(1j * rng.random(n)), 1.0)
        want = reference_awgn(sig.samples, chan)
        np.testing.assert_array_equal(awgn(sig, chan).samples, want)
        if ebno != np.inf:
            add_noise(sig.samples, z[:n], z[n:2 * n], noise_scale(chan))
        np.testing.assert_array_equal(sig.samples, want)


def test_awgn_stream_past_one_block():
    n = 3 * 32768 + 17
    sig = BasebandSignal(np.ones(n, dtype=complex), 1.0)
    chan = ChannelConfig(ebno_db=2.0, samples_per_symbol=8, seed=44)
    np.testing.assert_array_equal(awgn(sig, chan).samples,
                                  reference_awgn(sig.samples, chan))


def test_awgn_leaves_its_input_untouched():
    sig = modulate(np.random.default_rng(3).integers(0, 2, 3000), ModemConfig())
    chan = ChannelConfig(ebno_db=4.0, samples_per_symbol=8, seed=45)
    before = sig.samples.copy()
    np.testing.assert_array_equal(awgn(sig, chan).samples,
                                  reference_awgn(sig.samples, chan))
    np.testing.assert_array_equal(sig.samples, before)
    narrow = BasebandSignal(before.astype(np.complex64), sig.sample_rate)
    np.testing.assert_array_equal(awgn(narrow, chan).samples,
                                  reference_awgn(narrow.samples, chan))
    np.testing.assert_array_equal(narrow.samples, before.astype(np.complex64))


def _engine_matches_chain(cfg, seed):
    # lengths at the modulator's table edges, at the receiver's decision
    # block boundaries (4096 decisions a block at 8 samples per symbol) and
    # at the engine's chunks of normals (8192 frames at 8 samples per symbol)
    sps = cfg.samples_per_symbol
    window = 2 * cfg.pulse_span_symbols + 1
    step = _PRODUCT_SIZE // (4 * sps)
    chunk = link._CHUNK_NORMALS // sps - (window - 1)
    rng = np.random.default_rng(seed)
    for n in sorted({1, window - 1, window, step - 1, step, step + 1, 3 * step + 5,
                     chunk // 2, chunk - 1, chunk, chunk + 1}):
        bits = rng.integers(0, 2, n).astype(np.uint8)
        for ebno in (0.0, 9.0, np.inf):
            chan = ChannelConfig(ebno_db=ebno, samples_per_symbol=sps, seed=seed)
            want = demodulate(awgn(modulate(bits, cfg), chan), cfg, n)
            scale = noise_scale(chan)
            got, = link._decide([bits], [scale], cfg, substream(seed))
            np.testing.assert_array_equal(got, want, err_msg=f"{n} bits, {ebno} dB")


@pytest.mark.parametrize("precoding", [True, False])
@pytest.mark.parametrize("span,bt", _SHAPES)
@pytest.mark.parametrize("sps", [4, 8, 16])
def test_block_engine_equals_the_waveform_chain(sps, span, bt, precoding):
    cfg = ModemConfig(bt_product=bt, samples_per_symbol=sps,
                      pulse_span_symbols=span, differential_precoding=precoding)
    _engine_matches_chain(cfg, seed=sps * 1000 + span * 100 + int(bt * 20) + precoding)


@pytest.mark.parametrize("span,bt", [(1, 1.0), (3, 0.3)])
@pytest.mark.parametrize("sps", [4, 8])
def test_block_engine_with_a_narrow_receiver_filter(sps, span, bt):
    # at rx_bt 0.1 the filter window of the first and the last decisions
    # reaches past both ends of the signal, into zero frames
    cfg = ModemConfig(bt_product=bt, samples_per_symbol=sps,
                      pulse_span_symbols=span, rx_bt=0.1)
    _engine_matches_chain(cfg, seed=sps + span)


def test_demodulate_accepts_complex64_and_strided_samples():
    cfg = ModemConfig()
    bits = np.random.default_rng(4).integers(0, 2, 300).astype(np.uint8)
    sig = modulate(bits, cfg)
    doubled = np.repeat(sig.samples, 2)[::2]
    for samples in (sig.samples.astype(np.complex64), doubled):
        out = demodulate(BasebandSignal(samples, sig.sample_rate), cfg, bits.size)
        np.testing.assert_array_equal(out, bits)


def test_import_loads_no_scipy_module():
    code = ("import sys, gmsklink, gmsklink.cli; "
            "sys.exit(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy') or None)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
