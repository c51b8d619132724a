"""The BER engine's per-decision channel against the waveform chain.

The engine never builds a waveform of the whole sequence: each decision is
the noiseless value read from the modem's statistic table (or from the
waveform of the few symbols the decision reads), plus the receiver filter's
output on the noise alone.  Its oracle is the waveform chain, whose receiver
gives the same value before the sign (``modem._statistic``):

- every table entry equals the noiseless waveform statistic of a decision
  with that key, at every decision phase and parity, checked exhaustively
  with the modem's de Bruijn sequence, and so does every decision of every
  length, the first and last few and the untabled configs' included;
- the noisy minus the noiseless waveform statistic equals the engine's
  noise term ``scale * d_k * N_k``;
- the engine's hard decisions equal ``demodulate(awgn(modulate(bits)))`` at
  0 dB, over more than a million decisions on the modem config grid.

It also bounds the memory the engine's statistic of a stream takes beside
the caller's noise array.
"""

import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from gmsklink import link
from gmsklink.channel import ChannelConfig, awgn, noise_scale, substream
from gmsklink.modem import (ModemConfig, _de_bruijn, _statistic, constants,
                            decision_statistic, demodulate, filter_noise,
                            modulate, signal_length)

_SHAPES = [(1, 0.6), (1, 1.0)] + [
    (span, bt) for span in (2, 3, 4) for bt in (0.25, 0.3, 0.5, 1.0)
]
_GRID = [ModemConfig(bt_product=bt, samples_per_symbol=sps, pulse_span_symbols=span,
                     differential_precoding=precoding)
         for sps in (4, 8, 16) for span, bt in _SHAPES for precoding in (True, False)]
# the untabled path, whose key would pass _KEY_BITS symbols: a receiver
# filter wide enough to reach past both ends of the signal, and a pulse
# span of 8
_UNTABLED = [ModemConfig(rx_bt=0.1), ModemConfig(samples_per_symbol=4, rx_bt=0.1),
             ModemConfig(bt_product=0.25, pulse_span_symbols=8)]
_CONFIGS = _GRID + _UNTABLED
_DECISIONS = 1_000_000
_PER_CONFIG = math.ceil(_DECISIONS / len(_CONFIGS))


def _name(cfg):
    return (f"sps{cfg.samples_per_symbol}-span{cfg.pulse_span_symbols}-bt{cfg.bt_product}"
            f"-rx{cfg.rx_bt}-{'pre' if cfg.differential_precoding else 'raw'}")


def _waveform_statistic(bits, cfg, chan=None):
    sig = modulate(bits, cfg)
    if chan is not None:
        sig = awgn(sig, chan)
    return _statistic(sig.samples, constants(cfg), bits.size)


@pytest.mark.parametrize("cfg", [c for c in _GRID if c.differential_precoding], ids=_name)
def test_every_table_entry_is_the_noiseless_waveform_statistic(cfg):
    # without precoding the bits are the channel symbols the table is keyed
    # by; a prefix of 0 to 3 bits with an even or odd number of ones moves
    # each window to all four decision phases mod 4 and both parities
    c = constants(cfg)
    assert c.table is not None
    raw = ModemConfig(bt_product=cfg.bt_product, samples_per_symbol=cfg.samples_per_symbol,
                      pulse_span_symbols=cfg.pulse_span_symbols, differential_precoding=False)
    assert constants(raw).table is not None
    np.testing.assert_array_equal(constants(raw).table, c.table)
    bits_per_key = c.key_bits
    db = _de_bruijn(bits_per_key)
    window = 2 * cfg.pulse_span_symbols + 1
    seen = np.zeros(c.table.size, dtype=bool)
    for prefix in ([], [1], [1, 1], [1, 0, 0]):
        tx = np.concatenate([np.array(prefix, dtype=np.uint8), db])
        stat = _waveform_statistic(tx, raw)
        # window p starts after p symbols; decision k reads it
        p = np.arange(len(prefix), len(prefix) + db.size - bits_per_key + 1)
        k = p + window - 1 - c.q
        ones = np.concatenate([[0], np.cumsum(tx, dtype=np.int64)])
        key = (ones[p] % 2) << bits_per_key
        for d in range(bits_per_key):
            key |= tx[p + d].astype(np.int64) << d
        np.testing.assert_allclose(c.table[key], stat[k], rtol=0, atol=1e-12,
                                   err_msg=f"prefix {prefix}")
        seen[key] = True
    assert seen.all()


@pytest.mark.parametrize("cfg", _CONFIGS, ids=_name)
def test_noiseless_statistic_is_the_waveform_statistic(cfg):
    # every decision, the first and last few (whose frames reach past the
    # signal's ends) included, sequences shorter than one window, and
    # sequences longer than one of _noiseless's blocks and than two of the
    # table's gather blocks
    rng = np.random.default_rng(cfg.samples_per_symbol * 10 + cfg.pulse_span_symbols)
    for n in (1, 2, 5, 9, 17, 50, 700, 5000, 40_000):
        bits = rng.integers(0, 2, n).astype(np.uint8)
        np.testing.assert_allclose(decision_statistic(bits, cfg),
                                   _waveform_statistic(bits, cfg), rtol=0, atol=1e-12,
                                   err_msg=f"{n} bits")


@pytest.mark.parametrize("cfg", _GRID[::7] + _UNTABLED, ids=_name)
def test_noise_term_is_linear(cfg):
    # the noisy minus the noiseless waveform statistic is scale * d_k * N_k
    # (on sequences up to three of the table's gather blocks long),
    # with N_k summed by filter_noise over irregular frame-aligned pieces
    sps = cfg.samples_per_symbol
    rng = np.random.default_rng(cfg.samples_per_symbol + cfg.pulse_span_symbols)
    for n in (1, 3, 40, 2000, 40_000):
        bits = rng.integers(0, 2, n).astype(np.uint8)
        chan = ChannelConfig(ebno_db=2.0, samples_per_symbol=sps, seed=n)
        want = _waveform_statistic(bits, cfg, chan) - _waveform_statistic(bits, cfg)
        m = signal_length(n, cfg)
        z = substream(n).standard_normal(2 * m)
        cuts = np.unique(np.r_[0, m, 2 * m, rng.integers(0, 2 * m // sps, 5) * sps])
        noise = np.zeros(n)
        for a, b in zip(cuts, cuts[1:]):
            component = int(a >= m)
            filter_noise(noise, z[a:b], (a - component * m) // sps, component, cfg)
        scale = noise_scale(chan)
        got = decision_statistic(bits, cfg, noise, scale) - decision_statistic(bits, cfg)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_statistic_peak_memory():
    # 100 012 decisions added into the caller's noise array block by block:
    # no statistic, key or symbol array spans the stream.  The peak read
    # 0.60 MiB (the symbols, their parity and one block's keys and values),
    # against 1.91 MiB with whole-stream arrays.
    cfg = ModemConfig()
    rng = np.random.default_rng(4)
    bits = rng.integers(0, 2, 100_012).astype(np.uint8)
    noise = rng.standard_normal(bits.size)
    decision_statistic(bits[:100], cfg)  # build the constants untraced
    tracemalloc.start()
    try:
        decision_statistic(bits, cfg, noise, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * 2**20


def test_the_untabled_configs_have_no_table():
    assert constants(ModemConfig()).table.size == 2 * 2**10
    for cfg in _UNTABLED:
        assert constants(cfg).table is None


@pytest.mark.parametrize("cfg", _CONFIGS, ids=_name)
def test_engine_decides_as_the_waveform_chain_at_0_db(cfg):
    # _PER_CONFIG decisions on each config, over a million in all, at a
    # noise level where many statistics come close to 0
    assert len(_CONFIGS) * _PER_CONFIG >= _DECISIONS
    sps = cfg.samples_per_symbol
    seed = sps * 1000 + cfg.pulse_span_symbols * 100 + int(cfg.bt_product * 20)
    bits = np.random.default_rng(seed).integers(0, 2, _PER_CONFIG).astype(np.uint8)
    chan = ChannelConfig(ebno_db=0.0, samples_per_symbol=sps, seed=seed)
    want = demodulate(awgn(modulate(bits, cfg), chan), cfg, bits.size)
    got, = link._decide([bits], [noise_scale(chan)], cfg, substream(seed))
    assert np.count_nonzero(got != want) == 0


def test_constants_are_built_on_first_use_not_at_import():
    code = ("import gmsklink.cli; from gmsklink.modem import constants; "
            "print(constants.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"
