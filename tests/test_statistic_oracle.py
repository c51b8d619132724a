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
  0 dB, over more than a million decisions on the modem config grid;
- the engine's statistics, made a block of one noise component's
  decisions at a time as each chunk of normals is filtered, equal bit for
  bit those made from each stream's normals filtered into one array, with
  the noiseless part of the whole stream, and so do its packed decisions.

It also bounds the memory the engine's statistic of a stream takes beside
the caller's noise arrays.
"""

import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from gmsklink import link
from gmsklink.channel import ChannelConfig, awgn, noise_scale, substream
from gmsklink.modem import (_DEROTATE, ModemConfig, StatisticBlocks, _de_bruijn,
                            _inner, _keys, _modulate_tx, _noiseless, _parity,
                            _precode, _statistic, add_filtered, constants,
                            demodulate, modulate, signal_length)

_SHAPES = [(1, 0.6), (1, 1.0)] + [
    (span, bt) for span in (2, 3, 4) for bt in (0.25, 0.3, 0.5, 1.0)
]
# at the default receiver filter the tables' keys are 6 to 12 bits wide,
# always even; at rx_bt 0.3 they are 6 to 13 bits wide, odd ones included
_GRID = [ModemConfig(bt_product=bt, samples_per_symbol=sps, pulse_span_symbols=span,
                     rx_bt=rx_bt)
         for rx_bt in (0.5, 0.3) for sps in (4, 8, 16) for span, bt in _SHAPES]
# the untabled path, whose key would pass _KEY_BITS symbols: a receiver
# filter wide enough to reach past both ends of the signal, and a pulse
# span of 8
_UNTABLED = [ModemConfig(rx_bt=0.1), ModemConfig(samples_per_symbol=4, rx_bt=0.1),
             ModemConfig(bt_product=0.25, pulse_span_symbols=8)]
_CONFIGS = _GRID + _UNTABLED
_DECISIONS = 1_000_000
_PER_CONFIG = math.ceil(_DECISIONS / len(_CONFIGS))


def _name(cfg):
    # "pre": the transmitter precodes
    return (f"sps{cfg.samples_per_symbol}-span{cfg.pulse_span_symbols}-bt{cfg.bt_product}"
            f"-rx{cfg.rx_bt}-pre")


def _waveform_statistic(bits, cfg, chan=None):
    sig = modulate(bits, cfg)
    if chan is not None:
        sig = awgn(sig, chan)
    return _statistic(sig.samples, constants(cfg), bits.size)


def _filter_noise(noise, z, frame, component, cfg):
    # the receiver filter's output on the unit noise z, whole frames of
    # component I (0) or Q (1) from frame `frame` on, added to the decisions
    # that read it: the odd ones read I and the even ones Q
    c = constants(cfg)
    first = 1 - component
    add_filtered(noise[first::2], z.reshape(-1, cfg.samples_per_symbol) @ c.taps,
                 frame, first, c)


def _noiseless_statistic(bits, cfg):
    # the odd decisions' component first, as the engine reads them
    blocks = StatisticBlocks(bits, cfg)
    stat = np.empty(bits.size)
    for first in (1, 0):
        stat[first::2] = blocks.noiseless(first, stat[first::2].size)
    return stat


@pytest.mark.parametrize("cfg", _GRID, ids=_name)
def test_every_table_entry_is_the_noiseless_waveform_statistic(cfg):
    # the table is keyed by data bits, whose precoded channel symbols are
    # modulated here: the data bits are the running parity of the symbols.
    # A prefix of 0 to 3 symbols with an even or odd number of ones moves
    # each window to all four decision phases mod 4 and both parities
    c = constants(cfg)
    assert c.table is not None
    bits_per_key = c.key_bits
    db = _de_bruijn(bits_per_key)
    window = 2 * cfg.pulse_span_symbols + 1
    seen = np.zeros(c.table.size, dtype=bool)
    for prefix in ([], [1], [1, 1], [1, 0, 0]):
        tx = np.concatenate([np.array(prefix, dtype=np.uint8), db])
        stat = _statistic(_modulate_tx(tx, c), c, tx.size)
        # window p starts after p symbols; decision k reads it; its key is
        # the data bits from the one before symbol p on, a 0 before the first
        p = np.arange(len(prefix), len(prefix) + db.size - bits_per_key + 1)
        k = p + window - 1 - c.q
        ones = np.concatenate([[0], np.cumsum(tx, dtype=np.int64)])
        key = np.zeros(p.size, dtype=np.int64)
        for d in range(bits_per_key + 1):
            key |= (ones[p + d] % 2) << d
        np.testing.assert_allclose(c.table[key], stat[k], rtol=0, atol=1e-12,
                                   err_msg=f"prefix {prefix}")
        seen[key] = True
    assert seen.all()


@pytest.mark.parametrize("cfg", _GRID, ids=_name)
def test_data_bit_table_is_the_parity_and_symbol_window_table(cfg):
    # the table keyed by the parity of the ones before a decision's channel
    # symbols and by those symbols, made as the waveform chain made it
    # before it was keyed by data bits: the data bits w precode to the
    # parity w & 1 and the symbols (w ^ w >> 1) & mask
    c = constants(cfg)
    bits_per_key = c.key_bits
    tx = _de_bruijn(bits_per_key)
    parity = _parity(tx)
    lo, hi = _inner(c, tx.size)
    p = lo + c.q - c.cumtaps.shape[0] + 1 + np.arange(hi - lo)
    key = parity[p].astype(np.int64) << bits_per_key
    for d in range(bits_per_key):
        key |= tx[p + d].astype(np.int64) << d
    old = np.empty(2 << bits_per_key)
    old[key] = value = _noiseless(c, tx, parity, lo, hi)
    old[key ^ (1 << bits_per_key)] = -value
    w = np.arange(2 << bits_per_key)
    mask = (1 << bits_per_key) - 1
    np.testing.assert_array_equal(c.table.view(np.uint64),
                                  old[(w & 1) << bits_per_key | (w ^ w >> 1) & mask]
                                  .view(np.uint64))


@pytest.mark.parametrize("cfg", _CONFIGS, ids=_name)
def test_noiseless_statistic_is_the_waveform_statistic(cfg):
    # every decision, the first and last few (whose frames reach past the
    # signal's ends) included, sequences shorter than one window, and
    # sequences longer than one of _noiseless's blocks and than two of the
    # table's gather blocks
    rng = np.random.default_rng(cfg.samples_per_symbol * 10 + cfg.pulse_span_symbols)
    for n in (1, 2, 5, 9, 17, 50, 700, 5000, 40_000):
        bits = rng.integers(0, 2, n).astype(np.uint8)
        np.testing.assert_allclose(_noiseless_statistic(bits, cfg),
                                   _waveform_statistic(bits, cfg), rtol=0, atol=1e-12,
                                   err_msg=f"{n} bits")


@pytest.mark.parametrize("cfg", _GRID[::7] + _UNTABLED, ids=_name)
def test_noise_term_is_linear(cfg):
    # the noisy minus the noiseless waveform statistic is scale * d_k * N_k
    # (on sequences up to three of the table's gather blocks long),
    # with N_k summed by _filter_noise over irregular frame-aligned pieces
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
            _filter_noise(noise, z[a:b], (a - component * m) // sps, component, cfg)
        scale = noise_scale(chan)
        blocks = StatisticBlocks(bits, cfg)
        for first in (1, 0):
            noise[first::2] = blocks.statistic(first, noise[first::2].copy(), scale)
        got = noise - _noiseless_statistic(bits, cfg)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_statistic_peak_memory():
    # 100 012 decisions, the odd ones and then the even ones, added into
    # the caller's noise arrays block by block: no statistic, key or symbol
    # array spans the stream.  The peak read 0.41 MiB (one gather block's
    # keys, read from the data bits, and values).  With both components in
    # one array it read 0.41 MiB, against 0.44 MiB with the symbols and
    # parity each block precoded, 0.60 MiB with the stream's symbols and
    # parity and 1.91 MiB with whole-stream arrays.
    cfg = ModemConfig()
    rng = np.random.default_rng(4)
    bits = rng.integers(0, 2, 100_012).astype(np.uint8)
    noise = [rng.standard_normal(bits.size // 2) for _ in range(2)]
    _noiseless_statistic(bits[:100], cfg)  # build the constants untraced
    tracemalloc.start()
    try:
        blocks = StatisticBlocks(bits, cfg)
        for first in (1, 0):
            blocks.statistic(first, noise[first], 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 2**20


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
    packed, = link._decide([bits], [noise_scale(chan)], cfg, substream(seed))
    got = np.unpackbits(packed, count=bits.size)
    assert np.count_nonzero(got != want) == 0


def test_constants_are_built_on_first_use_not_at_import():
    code = ("import gmsklink.cli; from gmsklink.modem import constants; "
            "print(constants.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


# the default modem and the engine's other paths, pinned by tests/test_pins.py
_PINNED = [ModemConfig(), ModemConfig(pulse_span_symbols=4),
           ModemConfig(samples_per_symbol=16), ModemConfig(pulse_span_symbols=6),
           ModemConfig(rx_bt=0.3), ModemConfig(bt_product=0.5), ModemConfig(rx_bt=0.1)]


def _whole_stream_statistic(bits, cfg, noise=None, scale=0.0):
    """The statistic of a whole stream as one array: ``noise`` (its
    filtered unit noise, or none) scaled and derotated, plus the noiseless
    part, read from the table with the edges made in one waveform call
    each, or made in one waveform call where there is no table."""
    c = constants(cfg)
    tx = _precode(bits)
    parity = _parity(tx)
    n = tx.size
    if c.table is None:
        parts = [(0, n, _noiseless(c, tx, parity, 0, n))]
    else:
        lo, hi = _inner(c, n)
        start = lo + c.q - c.cumtaps.shape[0] + 1
        parts = [(0, lo, _noiseless(c, tx, parity, 0, lo)),
                 (hi, n, _noiseless(c, tx, parity, hi, n))]
        if lo < hi:
            parts.append((lo, hi, c.table[_keys(c, bits, start, hi - lo)]))
    if noise is None:
        stat = np.empty(n)
        for k0, k1, part in parts:
            stat[k0:k1] = part
        return stat
    for r in range(4):
        noise[r::4] *= _DEROTATE[r] * scale
    for k0, k1, part in parts:
        noise[k0:k1] += part
    return noise


def _oracle(coded, scales, cfg, seed):
    # the engine's normals, drawn in its chunks: a noisy stream of m
    # samples reads z[:m] onto I and z[m:2m] onto Q, and each chunk's part
    # of each component is filtered into the stream's one noise array
    sps = cfg.samples_per_symbol
    rng = substream(seed)
    samples = [signal_length(bits.size, cfg) for bits in coded]
    noise = [np.zeros(bits.size) if scale else None for bits, scale in zip(coded, scales)]
    total = max((2 * m for m, acc in zip(samples, noise) if acc is not None), default=0)
    chunk = max(1, link._CHUNK_NORMALS // sps) * sps
    for p0 in range(0, total, chunk):
        z = rng.standard_normal(min(p0 + chunk, total) - p0)
        for acc, m in zip(noise, samples):
            for component in (0, 1):
                a, b = max(p0, component * m), min(p0 + z.size, (component + 1) * m)
                if acc is not None and a < b:
                    _filter_noise(acc, z[a - p0:b - p0], (a - component * m) // sps,
                                  component, cfg)
    return [_whole_stream_statistic(bits, cfg, acc, scale)
            for bits, acc, scale in zip(coded, noise, scales)]


def _engine(coded, scales, cfg, rng, monkeypatch):
    """``link._decide``'s packed decisions, and each stream's statistic
    assembled from the blocks it packed, each decision's once."""
    blocks = []
    pack = link._pack
    monkeypatch.setattr(link, "_pack", lambda packed, k, first, stat: (
        blocks.append((packed, k + first, stat.copy())), pack(packed, k, first, stat)))
    decided = link._decide(coded, scales, cfg, rng)
    stats = [np.zeros(bits.size) for bits in coded]
    times = [np.zeros(bits.size, dtype=int) for bits in coded]
    for packed, k, stat in blocks:
        i = next(i for i, out in enumerate(decided) if out is packed)
        stats[i][k:k + 2 * stat.size:2] = stat
        times[i][k:k + 2 * stat.size:2] += 1
    for i, count in enumerate(times):
        assert (count == 1).all(), f"stream {i}: a decision packed {count.max()} times"
    return decided, stats


def _assert_decisions(decided, want, coded):
    for i, (packed, bits, stat) in enumerate(zip(decided, coded, want)):
        assert packed.size == -(-bits.size // 8)
        np.testing.assert_array_equal(packed, np.packbits(stat < 0), err_msg=f"stream {i}")


@pytest.mark.parametrize("chunk, sizes", [
    # a round's streams at the shipped chunk size
    (link._CHUNK_NORMALS, (25_000, 50_000, 34_140, 50_012)),
    # chunks of 80 normals, 5 to 20 frames, whose boundaries split the
    # frames of many decisions; streams of 1 and 7 bits are shorter than
    # the frames a decision reads at rx_bt 0.1, where decisions read frames
    # past both ends of the signal
    (80, (3000, 1, 6012, 4100, 7, 6000)),
], ids=["chunk64Ki", "chunk80"])
@pytest.mark.parametrize("cfg", _PINNED, ids=_name)
def test_engine_statistics_are_the_whole_stream_statistics(cfg, chunk, sizes, monkeypatch):
    # the engine decides each noise component's decisions a block at a
    # time as its frames complete; its packed decisions are exactly the
    # signs of the whole-stream statistics, and the statistics it took
    # them from are those statistics bit for bit.  The third stream is at
    # a zero noise scale
    monkeypatch.setattr(link, "_CHUNK_NORMALS", chunk)
    rng = np.random.default_rng(cfg.samples_per_symbol + chunk)
    coded = [rng.integers(0, 2, n).astype(np.uint8) for n in sizes]
    scales = [0.6, 0.9, 0.0, 1.3, 0.45, 0.8][:len(coded)]
    want = _oracle(coded, scales, cfg, seed=5)
    decided, stats = _engine(coded, scales, cfg, substream(5), monkeypatch)
    _assert_decisions(decided, want, coded)
    for i, (got, stat) in enumerate(zip(stats, want)):
        np.testing.assert_array_equal(got.view(np.uint64), stat.view(np.uint64),
                                      err_msg=f"stream {i}")


def test_engine_without_noise_draws_none(monkeypatch):
    # every stream at a zero noise scale: their statistics are the
    # noiseless ones, their decisions those statistics' signs, and no
    # normal is drawn
    class NoDraws:
        def standard_normal(self, *args, **kwargs):
            raise AssertionError("a normal was drawn")

    cfg = ModemConfig()
    coded = [np.random.default_rng(n).integers(0, 2, n).astype(np.uint8) for n in (17, 900)]
    want = [_whole_stream_statistic(bits, cfg) for bits in coded]
    decided, stats = _engine(coded, [0.0, 0.0], cfg, NoDraws(), monkeypatch)
    _assert_decisions(decided, want, coded)
    for got, stat in zip(stats, want):
        np.testing.assert_array_equal(got.view(np.uint64), stat.view(np.uint64))
