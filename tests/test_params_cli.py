"""Tests for the parameter-file layer and command-line front end."""

import hashlib
import math
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from gmsklink import cli
from gmsklink.errors import ConfigError, RoutingError
from gmsklink.fec import reed_solomon
from gmsklink.netsim import EnsembleSpec, build_route, deploy_random
from gmsklink.params import load_config, parse_params_text

_FLOAT_KEYS = [k for k, v in load_config().values if isinstance(v, float)]
_INERT_KEYS = ["power.p_dac_mw", "modem.carrier_hz", "timing.t_total_s"]


def _run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "gmsklink", *args],
                          capture_output=True, text=True, cwd=cwd)


class TestParamsFile:
    def test_defaults_carry_published_values(self):
        cfg = load_config()
        assert cfg["timing.t_start_s"] == 5e-6
        assert cfg["timing.l_bits"] == 1000
        assert cfg["channel.sigma2_j"] == 3.981e-21
        assert cfg["link.path_loss_exponent"] == 3
        assert cfg["power.eta"] == 0.75
        assert cfg["modem.bandwidth_hz"] == 1e4
        assert cfg["link.target_pe"] == 1e-4
        assert cfg["link.g_l"] == 1e3
        assert cfg["link.m_l"] == 1e4
        assert cfg["power.p_adc_mw"] == 6.70
        assert cfg["power.p_filt_mw"] == 2.5
        assert cfg["power.p_syn_mw"] == 50
        assert cfg["power.p_lna_mw"] == 20
        assert cfg["power.p_ifa_mw"] == 3
        assert cfg["power.p_mixer_mw"] == 30.3
        assert cfg["codec.p_enc_mw"] == 28
        assert cfg["codec.p_dec_mw"] == 35
        assert cfg["codec.g_code_db"] == 4
        assert cfg["link.noise_figure_db"] == 10

    def test_noise_figure_converts_to_linear_10(self):
        assert load_config().link_budget().n_f == pytest.approx(10.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_params_text("power.p_magic_mw = 1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_params_text("power.p_syn_mw 50\n")

    def test_comments_and_blank_lines_ignored(self):
        values = parse_params_text("# comment\n\npower.p_syn_mw = 49 # inline\n")
        assert values == {"power.p_syn_mw": 49.0}

    def test_user_file_overlays_defaults(self, tmp_path):
        override = tmp_path / "run.params"
        override.write_text("power.p_syn_mw = 40\nrun.seed = 7\n")
        cfg = load_config(override)
        assert cfg["power.p_syn_mw"] == 40
        assert cfg["run.seed"] == 7
        assert cfg["power.p_adc_mw"] == 6.70  # untouched default

    def test_profiles_built_in_si_units(self):
        cfg = load_config()
        assert cfg.power_profile().p_syn == pytest.approx(50e-3)
        assert cfg.timing_profile().t_on == pytest.approx(0.1)
        assert cfg.codec_power().p_enc == pytest.approx(28e-3)

    def test_alpha_auto_uses_bt_table(self):
        cfg = load_config()
        assert cfg.alpha() == pytest.approx(0.68 + 0.17 * (0.05 / 0.75))

    def test_variant_validated(self):
        with pytest.raises(ConfigError):
            parse_params_text("run.variant = sideways\n")

    def test_with_overrides_rejects_unknown(self):
        with pytest.raises(ConfigError):
            load_config().with_overrides({"nope.nope": 1})

    @pytest.mark.parametrize("line", ["route.trials = inf", "route.trials = -inf",
                                      "run.seed = nan", "sweep.max_bits = 1e400"])
    def test_non_finite_integer_rejected(self, line):
        with pytest.raises(ConfigError, match="expected an integer"):
            parse_params_text(line + "\n")

    @pytest.mark.parametrize("text, value", [
        ("9007199254740993", 2**53 + 1),
        ("18446744073709551615", 2**64 - 1),
        ("9.007199254740993e15", 2**53 + 1),
        ("1e5", 100_000),
        ("2.5e6", 2_500_000),
    ])
    def test_integer_keeps_every_digit(self, text, value):
        assert parse_params_text(f"run.seed = {text}\n") == {"run.seed": value}

    @pytest.mark.parametrize("text", ["1.5", "1e-3", "9007199254740993.5"])
    def test_fractional_integer_rejected(self, text):
        with pytest.raises(ConfigError, match="expected an integer"):
            parse_params_text(f"run.seed = {text}\n")

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
    def test_seed_outside_64_bits_rejected(self, tmp_path, seed):
        path = tmp_path / "seed.params"
        path.write_text(f"run.seed = {seed}\n")
        with pytest.raises(ConfigError, match="run.seed"):
            load_config(path)
        with pytest.raises(ConfigError, match="run.seed"):
            load_config().with_overrides({"run.seed": seed})

    def test_seed_range_ends_are_accepted(self):
        for seed in (0, 2**64 - 1):
            assert load_config().with_overrides({"run.seed": seed})["run.seed"] == seed

    @pytest.mark.parametrize("key, value", [
        ("power.eta", 2.0), ("scan.d_step_m", 0.0), ("modem.bt_product", 0.0),
        ("route.hop_min_m", -5.0), ("route.n_nodes", 1), ("route.max_hop_m", 0.0),
        ("route.trials", 0), ("sweep.ebno_step_db", 0.0),
        ("sweep.min_bit_errors", 0), ("scan.d_step_m", 1e-12),
    ])
    def test_with_overrides_checks_ranges(self, key, value):
        with pytest.raises(ConfigError):
            load_config().with_overrides({key: value})

    def test_count_ceilings_are_inclusive(self):
        ceilings = {"route.trials": 10**6, "route.n_nodes": 10**4,
                    "route.n_relays": 10**4, "sweep.max_bits": 10**12,
                    "sweep.min_bit_errors": 10**12, "timing.l_bits": 10**9,
                    "modem.samples_per_symbol": 256, "modem.pulse_span_symbols": 64}
        for key, ceiling in ceilings.items():
            assert load_config().with_overrides({key: ceiling})[key] == ceiling
            with pytest.raises(ConfigError, match=f"{key} must be <= {ceiling}, "
                                                  f"got {ceiling + 1}"):
                load_config().with_overrides({key: ceiling + 1})

    def test_grids_and_ensembles_built_from_config(self):
        cfg = load_config()
        assert cfg.ebno_grid() == [0.0, 1.5, 3.0, 4.5, 6.0, 7.5, 9.0]
        assert cfg.distance_grid() == [float(d) for d in range(1, 201)]
        assert cfg.distance_grid(5.0) == [1.0 + 5 * i for i in range(40)]
        ensembles = cfg.ensembles()
        assert ensembles["replication"] == EnsembleSpec(
            mode="replication", n_relays=3, hop_range=(50.0, 100.0), seed=12345)
        assert ensembles["geometry"] == EnsembleSpec(
            mode="geometry", n_nodes=20, field_width=100.0, field_height=100.0,
            max_hop_m=100.0, seed=12345)

    @pytest.mark.parametrize("value", ["nan", "2", "0", "1", "-1e-4", "inf"])
    def test_target_pe_outside_open_unit_interval_rejected(self, value):
        with pytest.raises(ConfigError, match="link.target_pe"):
            parse_params_text(f"link.target_pe = {value}\n")

    @pytest.mark.parametrize("value", ["nan", "-inf", "1e400"])
    @pytest.mark.parametrize("key", _FLOAT_KEYS)
    def test_non_finite_float_rejected(self, key, value):
        with pytest.raises(ConfigError):
            parse_params_text(f"{key} = {value}\n")

    @pytest.mark.parametrize("text", ["2", "nan", "inf", "0", "-0.5", ",",
                                      "0.68,1.5", "0.68,nan"])
    def test_alpha_list_outside_unit_interval_rejected(self, text):
        with pytest.raises(ConfigError, match="scan.alpha_list"):
            parse_params_text(f"scan.alpha_list = {text}\n")

    def test_alpha_list_accepts_one_and_several_values(self):
        assert parse_params_text("scan.alpha_list = 1\n") == {"scan.alpha_list": (1.0,)}
        values = parse_params_text("scan.alpha_list = 0.5, 0.75,\n")
        assert values == {"scan.alpha_list": (0.5, 0.75)}

    @pytest.mark.parametrize("key", _INERT_KEYS)
    def test_keys_that_change_no_output_are_unknown(self, key):
        # published values that no output reads have no key (see README)
        with pytest.raises(ConfigError, match="unknown key"):
            parse_params_text(f"{key} = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config().with_overrides({key: 1.0})

    @pytest.mark.parametrize("text", ["none,none", "golay, reed_solomon ,golay"])
    def test_duplicate_codecs_rejected(self, text):
        with pytest.raises(ConfigError, match="more than once"):
            parse_params_text(f"run.codecs = {text}\n")


class TestCliBasics:
    def test_missing_config_file_is_usage_error(self, tmp_path):
        proc = _run_cli("ber-sweep", "--config", str(tmp_path / "absent.params"),
                        "--out", str(tmp_path))
        assert proc.returncode == 1
        assert proc.stdout == ""

    def test_bad_config_key_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.params"
        bad.write_text("power.p_warp_mw = 9\n")
        proc = _run_cli("energy-distance", "--config", str(bad),
                        "--out", str(tmp_path))
        assert proc.returncode == 1
        assert "unknown key" in proc.stderr

    @pytest.mark.parametrize("line", ["route.trials = inf", "run.seed = nan"])
    def test_non_finite_integer_is_usage_error(self, tmp_path, line):
        bad = tmp_path / "bad.params"
        bad.write_text(line + "\n")
        proc = _run_cli("route-sim", "--config", str(bad), "--out", str(tmp_path))
        assert proc.returncode == 1
        assert "expected an integer" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unknown_codec_is_usage_error(self, tmp_path):
        proc = _run_cli("ber-sweep", "--codecs", "hamming",
                        "--out", str(tmp_path))
        assert proc.returncode == 1

    def test_duplicate_codec_is_usage_error(self, tmp_path):
        out = tmp_path / "out"
        proc = _run_cli("ber-sweep", "--quick", "--codecs", "golay,golay",
                        "--out", str(out))
        assert proc.returncode == 1
        assert "more than once" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "2", "0"])
    def test_bad_target_pe_fails_at_load(self, tmp_path, value):
        bad = tmp_path / "bad.params"
        bad.write_text(f"link.target_pe = {value}\n")
        out = tmp_path / "out"
        proc = _run_cli("energy-distance", "--config", str(bad), "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"gmsklink: config error: link.target_pe must be in (0, 1), got {value!r}"]
        assert not out.exists()

    @pytest.mark.parametrize("command, line", [
        ("energy-distance", "power.p_syn_mw = nan"),
        ("energy-distance", "link.g_l = inf"),
        ("energy-distance", "codec.g_code_db = nan"),
        ("energy-distance", "codec.p_enc_mw = nan"),
        ("energy-distance", "scan.d_step_m = nan"),
        ("energy-distance", "scan.alpha_list = 2"),
        ("energy-distance", "scan.alpha_list = nan"),
        ("energy-distance", "scan.alpha_list = ,"),
        ("ber-sweep", "sweep.ebno_start_db = nan"),
        ("ber-sweep", "sweep.ebno_stop_db = inf"),
        # 10 ** (-400) is 0, and near -3200 dB the noise variance overflows
        ("ber-sweep", "sweep.ebno_start_db = -4000\nsweep.ebno_stop_db = -4000"),
        ("ber-sweep", "sweep.ebno_start_db = -3200"),
        ("route-sim", "route.field_m = inf"),
        ("energy-distance", "power.p_dac_mw = 15.40"),
        ("energy-distance", "modem.carrier_hz = 2.45e9"),
        ("energy-distance", "timing.t_total_s = 1.07"),
        ("energy-distance", "power.eta = 2"),
        ("energy-distance", "scan.d_step_m = 0"),
        ("energy-distance", "scan.d_step_m = 1e-310"),
        ("energy-distance", "scan.d_start_m = 0"),
        ("energy-distance", "modem.bt_product = 0"),
        ("route-sim", "route.hop_min_m = -5"),
        ("route-sim", "route.n_nodes = 1"),
        ("route-sim", "route.max_hop_m = 0"),
        ("route-sim", "route.trials = 0"),
        ("route-sim", "run.seed = 18446744073709551617"),
        ("ber-sweep", "sweep.ebno_step_db = 0"),
        ("ber-sweep", "sweep.min_bit_errors = 0"),
        ("route-sim", "route.trials = 1e12"),
        ("route-sim", "route.trials = 1e308"),
        ("route-sim", "route.n_nodes = 10001"),
        ("route-sim", "route.n_relays = 1e6"),
        ("ber-sweep", "sweep.max_bits = 1e15"),
        ("ber-sweep", "sweep.min_bit_errors = 1000000000001"),
        ("energy-distance", "timing.l_bits = 1e10"),
        ("ber-sweep", "modem.samples_per_symbol = 257"),
        ("ber-sweep", "modem.pulse_span_symbols = 65"),
        ("ber-sweep", "modem.rx_bt = 0.008"),
        ("ber-sweep", "modem.rx_bt = 1e-9"),
        ("ber-sweep --quick --codecs=", ""),
        ("energy-distance", "run.seed = 1\nrun.seed = 2"),
        # linear gains and powers of distance that overflow, or a gain
        # that underflows to 0 and would divide by zero
        ("energy-distance --quick", "link.noise_figure_db = 1e6"),
        ("energy-distance --quick", "codec.g_code_db = 1e6"),
        ("energy-distance --quick", "codec.g_code_db = -1e6"),
        ("route-sim --quick", "route.hop_max_m = 1e300"),
        ("route-sim --quick", "route.field_m = 1e300\nroute.max_hop_m = 1e300"),
        ("energy-distance --quick", "scan.d_stop_m = 1e300\nscan.d_step_m = 1e299"),
        # a pulse whose taps all underflow to 0
        ("ber-sweep --quick", "modem.bt_product = 1e-300"),
        # a geometry ensemble in which no trial routes: every ensemble is
        # drawn before any output
        ("route-sim --quick", "route.max_hop_m = 3.5"),
        ("route-sim --quick", "route.field_m = 1e6"),
    ])
    def test_bad_value_fails_at_load(self, tmp_path, capsys, command, line):
        bad = tmp_path / "bad.params"
        bad.write_text(line + "\n")
        out = tmp_path / "out"
        argv = command.split(" ") + ["--config", str(bad), "--out", str(out)]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("gmsklink: config error: ")
        assert not out.exists()

    @pytest.mark.parametrize("line, reach, field", [
        ("route.max_hop_m = 3.5", "3.5", "100.0"),
        ("route.field_m = 1e6", "100.0", "1000000.0")])
    def test_unroutable_ensemble_names_reach_and_field(self, tmp_path, capsys,
                                                       line, reach, field):
        bad = tmp_path / "bad.params"
        bad.write_text(line + "\n")
        # the output directory and its parents are removed only where the
        # command made them, innermost first
        kept = tmp_path / "kept"
        kept.mkdir()
        for out in ("out", "kept", "x/a/b", "x/a/b/", "kept/a/b"):
            argv = ["route-sim", "--quick", "--config", str(bad),
                    "--out", os.path.join(tmp_path, out)]
            assert cli.main(argv) == 1
            assert capsys.readouterr().err == (
                "gmsklink: config error: no geometry trial builds a route with "
                f"route.max_hop_m = {reach} in a {field} m field (route.field_m)\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.params", "kept"]
        assert not any(kept.iterdir())

    def test_duplicate_key_names_both_lines(self):
        with pytest.raises(ConfigError) as info:
            parse_params_text("run.seed = 1\n# again\nrun.seed = 2\n",
                              source="my.params")
        assert str(info.value) == ("my.params:3: duplicate key 'run.seed' "
                                   "(first set on line 1)")

    @pytest.mark.parametrize("case", ["config is a directory", "config not utf-8",
                                      "out is a file", "out under a file"])
    def test_load_time_io_error_fails_at_load(self, tmp_path, capsys, case):
        not_utf8 = tmp_path / "bad.params"
        not_utf8.write_bytes(b"\xff\n")
        a_file = tmp_path / "a_file"
        a_file.write_text("kept\n")
        out = tmp_path / "out"
        args = {"config is a directory": ["--config", str(tmp_path), "--out", str(out)],
                "config not utf-8": ["--config", str(not_utf8), "--out", str(out)],
                "out is a file": ["--out", str(a_file)],
                "out under a file": ["--out", str(a_file / "sub")]}[case]
        assert cli.main(["energy-distance", "--quick", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("gmsklink: config error: ")
        assert not out.exists()
        assert a_file.read_text() == "kept\n"

    def test_write_error_is_runtime_failure(self, tmp_path, capsys, monkeypatch):
        def full_disk(path, text):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "_write_atomic", full_disk)
        assert cli.main(["energy-distance", "--quick", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("gmsklink: runtime failure: ")

    @pytest.mark.parametrize("command", ["ber-sweep", "route-sim"])
    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_option_outside_64_bits_fails_at_load(self, tmp_path, capsys,
                                                       command, seed):
        out = tmp_path / "out"
        assert cli.main([command, "--quick", "--seed", seed, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"gmsklink: config error: run.seed must be in [0, 2**64), got {seed}"]
        assert not out.exists()

    @pytest.mark.parametrize("args, umask", [
        (["ber-sweep", "--codecs", "none"], "022"), (["energy-distance"], "022"),
        (["route-sim"], "022"), (["energy-distance"], "027"),
    ])
    def test_outputs_readable_as_umask_allows(self, tmp_path, capsys, args, umask):
        out = tmp_path / "out"
        old = os.umask(int(umask, 8))
        try:
            code = cli.main([*args, "--quick", "--out", str(out)])
        finally:
            os.umask(old)
        assert code == 0
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
        assert modes and set(modes.values()) == {0o666 & ~int(umask, 8)}, modes

    def test_codec_test_passes(self):
        proc = _run_cli("codec-test", "--quick")
        assert proc.returncode == 0
        assert "codec-test: PASS" in proc.stdout

    def test_codec_test_fault_injection_fails(self):
        proc = _run_cli("codec-test", "--quick", "--inject-fault")
        assert proc.returncode == 2
        assert "FAIL" in proc.stdout

    def test_codec_test_catches_one_wrong_rs_syndrome_row(self, monkeypatch, capsys):
        # send one two-symbol pattern's syndrome to another two-symbol
        # pattern's entry, a fault no random sample is likely to hit
        fix, weight = reed_solomon._decoding_table()
        two = np.flatnonzero(weight == 2)
        fix = fix.copy()
        fix[two[0]] = fix[two[1]]
        monkeypatch.setattr(reed_solomon, "_decoding_table", lambda: (fix, weight))
        assert cli.main(["codec-test", "--quick"]) == 2
        assert "rs-correction: FAIL" in capsys.readouterr().out.splitlines()


class TestCliOutputs:
    def test_energy_distance_schema_and_crossover_row(self, tmp_path):
        proc = _run_cli("energy-distance", "--quick", "--out", str(tmp_path))
        assert proc.returncode == 0
        lines = (tmp_path / "energy_distance.csv").read_text().splitlines()
        assert lines[0] == ("d_m,e_uncoded,e_coded_literal,"
                            "e_coded_circuit_unscaled,savings_literal,"
                            "savings_circuit_unscaled")
        # crossover distances are embedded as extra rows: savings ~ 0 there
        rows = [line.split(",") for line in lines[1:]]
        near_zero_lit = min(abs(float(r[4])) for r in rows)
        near_zero_uns = min(abs(float(r[5])) for r in rows)
        assert near_zero_lit < 1e-9
        assert near_zero_uns < 1e-9

    def test_sensitivity_selects_exactly_one_combo(self, tmp_path):
        proc = _run_cli("energy-distance", "--quick", "--out", str(tmp_path))
        assert proc.returncode == 0
        lines = (tmp_path / "sensitivity.csv").read_text().splitlines()
        assert lines[0].startswith("variant,alpha,savings_at_100m")
        selected = [line for line in lines[1:] if line.endswith(",1")]
        assert len(selected) == 1

    def test_ber_sweep_single_codec(self, tmp_path):
        proc = _run_cli("ber-sweep", "--quick", "--codecs", "none",
                        "--out", str(tmp_path))
        assert proc.returncode == 0
        names = sorted(f.name for f in tmp_path.iterdir())
        assert names == ["ber_comparison.csv", "ber_none.csv", "plot_ber.gnuplot"]

    def test_ber_sweep_writes_per_codec_and_merged(self, tmp_path):
        proc = _run_cli("ber-sweep", "--quick", "--codecs", "none,golay",
                        "--out", str(tmp_path))
        assert proc.returncode == 0
        for name in ("ber_none.csv", "ber_golay.csv", "ber_comparison.csv",
                     "plot_ber.gnuplot"):
            assert (tmp_path / name).exists()
        merged = (tmp_path / "ber_comparison.csv").read_text().splitlines()
        assert merged[0] == ("ebno_db,codec,ber,errors,bits,ci_low,ci_high,"
                             "low_confidence_flag")
        assert any(",golay," in line for line in merged[1:])

    def test_route_sim_per_trial_rows_and_summary(self, tmp_path):
        proc = _run_cli("route-sim", "--quick", "--variant", "literal",
                        "--out", str(tmp_path))
        assert proc.returncode == 0
        lines = (tmp_path / "route_replication_literal.csv").read_text().splitlines()
        assert lines[0] == "trial,e_uncoded_J,e_coded_J,savings_fraction"
        assert lines[-1].startswith("mean,")
        assert len(lines) == 102  # header + 100 trials + summary

    def test_route_sim_keeps_true_index_of_skipped_trials(self, tmp_path, capsys):
        cfgfile = tmp_path / "short.params"
        cfgfile.write_text("route.max_hop_m = 35\n")
        out = tmp_path / "out"
        assert cli.main(["route-sim", "--quick", "--variant", "literal",
                         "--config", str(cfgfile), "--out", str(out)]) == 0
        cfg = load_config(cfgfile)
        ens = EnsembleSpec(mode="geometry", n_nodes=cfg["route.n_nodes"],
                           field_width=cfg["route.field_m"],
                           field_height=cfg["route.field_m"],
                           max_hop_m=35.0, seed=cfg["run.seed"])
        # each trial deployed and routed on its own through the public API
        routable = []
        for trial in range(100):
            dep = deploy_random(ens.n_nodes, ens.field_width, ens.field_height,
                                seed=ens.seed + trial)
            (src, sx, sy), *others = dep.nodes
            sink = max(others, key=lambda n: math.hypot(n[1] - sx, n[2] - sy))[0]
            try:
                build_route(dep, src, sink, ens.max_hop_m)
            except RoutingError:
                continue
            routable.append(trial)
        rows = (out / "route_geometry_literal.csv").read_text().splitlines()[1:-1]
        assert [int(row.split(",")[0]) for row in rows] == routable
        assert len(routable) == 67
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("geometry/literal:")
                and line.endswith("over 67 trials, 33 skipped")]

    def test_single_trial_route_sim(self, tmp_path):
        cfgfile = tmp_path / "one.params"
        cfgfile.write_text("route.trials = 1\n")
        proc = _run_cli("route-sim", "--config", str(cfgfile),
                        "--variant", "literal", "--out", str(tmp_path))
        assert proc.returncode == 0
        lines = (tmp_path / "route_replication_literal.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 1 trial + summary


def _hash_dir(path):
    digest = {}
    for f in sorted(path.iterdir()):
        if f.is_file():
            digest[f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
    return digest


class TestCliDeterminism:
    def test_seed_flag_changes_results(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out, seed in ((a, "1"), (b, "2")):
            out.mkdir()
            _run_cli("ber-sweep", "--quick", "--codecs", "none",
                     "--seed", seed, "--out", str(out))
        assert _hash_dir(a) != _hash_dir(b)

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            out.mkdir()
            _run_cli("ber-sweep", "--quick", "--codecs", "none,golay",
                     "--seed", "5", "--out", str(out))
        assert _hash_dir(a) == _hash_dir(b)
