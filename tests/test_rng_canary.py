"""Canary for the numpy random layers under the pinned outputs.

Every byte in ``tests/golden/`` and ``benchmark/reference/`` rests on
numpy's ``SeedSequence`` hash, its Philox4x64-10 bit generator and two
``Generator`` algorithms: ``integers(0, 2, n)`` for data bits and the
ziggurat of ``standard_normal`` for noise.  NEP 19 promises stable streams
for the bit generators, not for ``Generator``'s methods, so a numpy release
may move the pins.  This test keys one stream through
:func:`gmsklink.channel.substream` the way the BER engine does and pins the
first values of each layer, bottom first, so that when the golden test
fails this one says which layer moved.
"""

import numpy as np

from gmsklink.channel import substream
from gmsklink.link import _DATA_TAG, _ebno_entropy, _noise_seed

SEED = 99  # the golden outputs' seed
EBITS = _ebno_entropy(3.0)


def test_seed_sequence_hash():
    key = np.random.SeedSequence([SEED, EBITS, _DATA_TAG]).generate_state(
        2, np.uint64)
    assert key.tolist() == [8870940147646883904, 12867661821980936326], (
        "numpy's SeedSequence hash moved: every keyed stream changes")
    assert _noise_seed(SEED, EBITS, 0) == 3075545715599791990, (
        "numpy's SeedSequence hash moved: the noise keys change")


def test_philox_raw_words():
    words = substream(SEED, EBITS, _DATA_TAG).bit_generator.random_raw(4)
    assert words.tolist() == [2803839494873465750, 15042137890311846913,
                              12790379780657095371, 18072139585742106438], (
        "numpy's Philox4x64-10 raw stream moved")


def test_data_bits():
    bits = substream(SEED, EBITS, _DATA_TAG).integers(0, 2, 32)
    assert bits.tolist() == [0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0,
                             1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1], (
        "Generator.integers(0, 2, n) moved: the data bits of every BER "
        "point change")


def test_noise_normals():
    z = substream(_noise_seed(SEED, EBITS, 0)).standard_normal(4)
    assert z.tolist() == [0.5605285382629835, 0.752833606869229,
                          1.801925157721068, 0.9977687579685204], (
        "Generator.standard_normal (the ziggurat) moved: the noise of every "
        "BER point changes")

