"""Fuzz of the parameter file: every value fails at load with one line, or
gives a run configuration whose every check holds."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmsklink import cli
from gmsklink.energy import CodedVariant
from gmsklink.errors import ConfigError
from gmsklink.fec import CODECS, golay_spec
from gmsklink.params import _COUNT_CEILINGS, _SCHEMA, load_config

# numbers at and past every range end the schema has, and words that some
# keys accept and the others reject
_EDGE_TEXTS = [
    "0", "-0", "1", "-1", "2", "4", "4.5", "0.5", "0.008", "256", "257",
    "1e-300", "5e-324", "1e6", "1e12", "1e102", "1e300", "1.8e308", "-1e300",
    "nan", "inf", "-inf", "18446744073709551615", "18446744073709551616",
    "", "auto", "both", "literal", "none", "golay,reed_solomon", "none,none",
    ",", "x", "0.68,0.75", "1,2",
]

_VALUES = st.one_of(
    st.sampled_from(_EDGE_TEXTS),
    st.integers(-2**70, 2**70).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)


def _assert_fully_checked(cfg):
    """Every range RunConfig promises, and every domain object it builds."""
    assert 0 <= cfg["run.seed"] < 2**64
    assert cfg["route.trials"] >= 1
    for key, ceiling in _COUNT_CEILINGS.items():
        assert cfg[key] <= ceiling
    cfg.modem_config()
    cfg.stop_rule()
    cfg.codec_power()
    cfg.ensembles()
    for name in cfg["run.codecs"]:
        CODECS[name].spec(cfg["codec.g_code_db"])
    for grid in (cfg.ebno_grid(), cfg.distance_grid()):
        assert 1 <= len(grid) <= 1_000_000
        assert all(math.isfinite(x) for x in grid)
    assert cfg.distance_grid()[0] > 0
    # the longest link each command prices has a finite energy, coded or
    # not, and so does a route of the most hops of that length
    model = cfg.energy_model()
    code = golay_spec(cfg["codec.g_code_db"])
    field = cfg["route.field_m"]
    longest = ((cfg["scan.d_stop_m"], 1),
               (cfg["route.hop_max_m"], cfg["route.n_relays"] + 1),
               (min(cfg["route.max_hop_m"], math.hypot(field, field)), cfg["route.n_nodes"] - 1))
    for link in [model.link()] + [model.link(code, v) for v in CodedVariant]:
        for d, hops in longest:
            assert math.isfinite(hops * link.breakdown(d).e_total)


def _load(tmp_path_factory, changes):
    """Load ``changes`` over the defaults from a file; check that it fails
    at load with one line or that every check holds."""
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.params"
    path.write_text("".join(f"{key} = {value}\n" for key, value in changes.items()))
    try:
        cfg = load_config(path)
    except ConfigError as exc:
        assert len(str(exc).splitlines()) == 1
        return
    _assert_fully_checked(cfg)


@pytest.mark.parametrize("key", sorted(_SCHEMA))
@given(value=_VALUES)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_one_key_fails_at_load_or_is_fully_checked(tmp_path_factory, key, value):
    _load(tmp_path_factory, {key: value})


@given(changes=st.dictionaries(st.sampled_from(sorted(_SCHEMA)), _VALUES,
                               min_size=2, max_size=3))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_several_keys_fail_at_load_or_are_fully_checked(tmp_path_factory, changes):
    _load(tmp_path_factory, changes)


# values at the ends of what a key accepts, and just past them, run through
# the command that reads them
_EDGE_CASES = [
    ("ber-sweep", "run.codecs = none"),
    ("ber-sweep", "sweep.max_bits = 1"),
    ("ber-sweep", "sweep.min_bit_errors = 1"),
    ("ber-sweep", "sweep.ebno_step_db = 1e-300"),
    ("ber-sweep", "modem.samples_per_symbol = 1"),
    ("ber-sweep", "modem.pulse_span_symbols = 1"),
    ("ber-sweep", "modem.rx_bt = 1e300"),
    ("energy-distance", "scan.d_start_m = 200"),
    ("energy-distance", "scan.d_start_m = 5e-324"),
    ("energy-distance", "link.path_loss_exponent = 2"),
    ("energy-distance", "link.path_loss_exponent = 4"),
    ("energy-distance", "link.path_loss_exponent = 4.5"),
    ("energy-distance", "energy.alpha = 1"),
    ("energy-distance", "energy.alpha = 5e-324"),
    ("energy-distance", "scan.alpha_list = 1"),
    ("energy-distance", "link.target_pe = 5e-324"),
    ("energy-distance", "codec.g_code_db = 0"),
    # a negative distance whose power is complex
    ("energy-distance", "scan.d_stop_m = -5\nlink.path_loss_exponent = 3.5"),
    # d ** k is finite, but the energy of the link overflows
    ("energy-distance", "scan.d_stop_m = 1e102\nscan.d_step_m = 1e101"),
    ("route-sim", "route.hop_max_m = 1e102"),
    ("route-sim", "timing.t_start_s = 1e300\npower.p_syn_mw = 1e300"),
    ("route-sim", "route.n_relays = 0"),
    ("route-sim", "route.n_nodes = 2"),
    ("route-sim", "route.hop_min_m = 100"),
    ("route-sim", "route.hop_max_m = 1e90"),
    ("route-sim", "route.max_hop_m = 1e300"),
    # every hop's energy is finite, but a route of 10 001 of them overflows
    ("route-sim", "energy.alpha = 1e-307\nroute.n_relays = 10000"),
]


# a warning on a config that loads, such as an overflow inside a numpy
# expression, fails the case
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, text", _EDGE_CASES)
def test_quick_command_on_an_edge_value_exits_cleanly(tmp_path, capsys, command, text):
    path = tmp_path / "edge.params"
    path.write_text(text + "\n")
    out = tmp_path / "out"
    code = cli.main([command, "--quick", "--config", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code in (0, 1)
    if code == 1:
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()
    else:
        for written in out.iterdir():
            cells = written.read_text().replace("\n", ",").split(",")
            assert not {"nan", "inf", "-inf"} & set(cells), written.name
