"""Flat key-value parameter files and the run configuration they populate.

The format is one ``section.key = value`` pair per line with ``#`` comments;
every key carries its unit in its name so files are unambiguous.  Parsing is
strict: unknown keys are rejected, numbers must be finite, and every field
has a default drawn from the shipped parameter file (the published circuit
powers, link budget and timing values).
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass
from decimal import Decimal

from .channel import LinkBudget
from .energy import CodedVariant, EnergyModel, PowerProfile, TimingProfile
from .errors import ConfigError
from .fec import CODECS, CodecPowerProfile, golay_spec
from .link import StopRule, check_ebno
from .modem import ModemConfig, alpha_for_bt, gaussian_frequency_pulse
from .netsim import EnsembleSpec

_VALID_VARIANTS = ("literal", "circuit-unscaled", "both")

# Seeds are 64-bit words in every random stream; a seed outside [0, 2**64)
# would alias another seed's streams.
_SEED_LIMIT = 1 << 64

# Largest Eb/N0 or distance grid a config may ask for; a step far below the
# span would otherwise exhaust memory while the grid is built.
_MAX_GRID_POINTS = 1_000_000

# Largest value each count key may take.  Every one is far above any value
# in use, and low enough that a typo such as 1e30 fails at load instead of
# starting a run that never ends or exhausts memory.
_COUNT_CEILINGS = {
    "route.trials": 10**6,
    "route.n_nodes": 10**4,
    "route.n_relays": 10**4,
    "sweep.max_bits": 10**12,
    "sweep.min_bit_errors": 10**12,
    "timing.l_bits": 10**9,
    "modem.samples_per_symbol": 256,
    "modem.pulse_span_symbols": 64,
}


def _parse_number(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {text!r}") from exc


def _parse_float(text: str) -> float:
    value = _parse_number(text)
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        pass
    # a float spelling such as 1e5: read exactly, not through a rounded float
    if not math.isfinite(_parse_number(text)):
        raise ConfigError(f"expected an integer, got {text!r}")
    exact = Decimal(text)
    if exact != exact.to_integral_value():
        raise ConfigError(f"expected an integer, got {text!r}")
    return int(exact)


def _parse_target_pe(text: str) -> float:
    value = _parse_number(text)
    if not 0 < value < 1:
        raise ConfigError(f"link.target_pe must be in (0, 1), got {text!r}")
    return value


def _parse_alpha(text: str):
    if text == "auto":
        return "auto"
    value = _parse_number(text)
    if not 0 < value <= 1:
        raise ConfigError(f"energy.alpha must be 'auto' or in (0, 1], got {text!r}")
    return value


def _parse_variant(text: str) -> str:
    if text not in _VALID_VARIANTS:
        raise ConfigError(f"run.variant must be one of {_VALID_VARIANTS}, got {text!r}")
    return text


def parse_codecs(text: str) -> tuple:
    """The codec names in a comma-separated list: known, distinct, at least one."""
    names = tuple(s.strip() for s in text.split(",") if s.strip())
    for name in names:
        if name not in CODECS:
            raise ConfigError(f"unknown codec {name!r} (valid: {tuple(CODECS)})")
    if len(set(names)) != len(names):
        raise ConfigError(f"run.codecs names a codec more than once: {text!r}")
    if not names:
        raise ConfigError("run.codecs must name at least one codec")
    return names


def _parse_alpha_list(text: str) -> tuple:
    alphas = tuple(_parse_number(s.strip()) for s in text.split(",") if s.strip())
    if not alphas or not all(0 < a <= 1 for a in alphas):
        raise ConfigError(f"scan.alpha_list must be one or more values in (0, 1], "
                          f"got {text!r}")
    return alphas


def _float_grid(name: str, start: float, stop: float, step: float) -> list:
    if not step > 0 or stop < start:
        raise ConfigError(f"{name} grid needs step > 0 and stop >= start, got "
                          f"start {start!r}, stop {stop!r}, step {step!r}")
    span = (stop - start) / step
    if span >= _MAX_GRID_POINTS:
        raise ConfigError(f"{name} grid would have more than {_MAX_GRID_POINTS} "
                          f"points (step {step!r})")
    count = int(math.floor(span + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def _db_gain(key: str, db: float) -> float:
    """The linear gain of ``db`` decibels; a gain that overflows or
    underflows to 0 raises :class:`ConfigError`."""
    try:
        gain = 10.0 ** (db / 10.0)
    except OverflowError:
        gain = math.inf
    if not 0 < gain < math.inf:
        raise ConfigError(f"{key} must be a finite positive gain in linear terms, "
                          f"got {db!r} dB")
    return gain


_SCHEMA = {
    "timing.t_start_s": _parse_float,
    "timing.l_bits": _parse_int,
    "channel.sigma2_j": _parse_float,
    "link.path_loss_exponent": _parse_float,
    "link.g_l": _parse_float,
    "link.m_l": _parse_float,
    "link.noise_figure_db": _parse_float,
    "link.target_pe": _parse_target_pe,
    "modem.bandwidth_hz": _parse_float,
    "modem.bt_product": _parse_float,
    "modem.samples_per_symbol": _parse_int,
    "modem.pulse_span_symbols": _parse_int,
    "modem.rx_bt": _parse_float,
    "power.eta": _parse_float,
    "power.p_adc_mw": _parse_float,
    "power.p_filt_mw": _parse_float,
    "power.p_syn_mw": _parse_float,
    "power.p_lna_mw": _parse_float,
    "power.p_ifa_mw": _parse_float,
    "power.p_mixer_mw": _parse_float,
    "codec.p_enc_mw": _parse_float,
    "codec.p_dec_mw": _parse_float,
    "codec.g_code_db": _parse_float,
    "run.seed": _parse_int,
    "run.out_dir": str,
    "run.variant": _parse_variant,
    "run.codecs": parse_codecs,
    "energy.alpha": _parse_alpha,
    "sweep.ebno_start_db": _parse_float,
    "sweep.ebno_stop_db": _parse_float,
    "sweep.ebno_step_db": _parse_float,
    "sweep.min_bit_errors": _parse_int,
    "sweep.max_bits": _parse_int,
    "scan.d_start_m": _parse_float,
    "scan.d_stop_m": _parse_float,
    "scan.d_step_m": _parse_float,
    "scan.alpha_list": _parse_alpha_list,
    "route.trials": _parse_int,
    "route.n_relays": _parse_int,
    "route.hop_min_m": _parse_float,
    "route.hop_max_m": _parse_float,
    "route.n_nodes": _parse_int,
    "route.field_m": _parse_float,
    "route.max_hop_m": _parse_float,
}


def parse_params_text(text: str, source: str = "<string>") -> dict:
    """Parse parameter-file text into a {key: value} dict (strict keys,
    each set at most once)."""
    values = {}
    first_set = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in first_set:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r} "
                              f"(first set on line {first_set[key]})")
        first_set[key] = lineno
        values[key] = _SCHEMA[key](val)
    return values


def _default_values() -> dict:
    text = (
        importlib.resources.files("gmsklink")
        .joinpath("data", "defaults.params")
        .read_text()
    )
    return parse_params_text(text, source="defaults.params")


@dataclass(frozen=True)
class RunConfig:
    """Every parameter a CLI run needs, flattened from the config file.

    Building one runs every range check: it builds each domain object once,
    so a bad value fails at load rather than partway through a command.
    """

    values: tuple  # of (key, value), kept sorted for reproducibility

    def __post_init__(self):
        seed = self["run.seed"]
        if not 0 <= seed < _SEED_LIMIT:
            raise ConfigError(f"run.seed must be in [0, 2**64), got {seed}")
        if self["route.trials"] < 1:
            raise ConfigError(f"route.trials must be >= 1, got {self['route.trials']}")
        for key, ceiling in _COUNT_CEILINGS.items():
            if self[key] > ceiling:
                raise ConfigError(f"{key} must be <= {ceiling}, got {self[key]}")
        # the pulse, but not the rest of the modem's constants, which are
        # built on first use
        gaussian_frequency_pulse(self.modem_config())
        _db_gain("codec.g_code_db", self["codec.g_code_db"])
        self.stop_rule()
        self.ebno_grid()
        # the grid's first point gets the most noise
        check_ebno([CODECS[name].spec(self["codec.g_code_db"])
                    for name in self["run.codecs"]],
                   self["sweep.ebno_start_db"], self.modem_config())
        self.distance_grid()
        # every scan distance is priced, and the first is the shortest
        start = self["scan.d_start_m"]
        if not start > 0:
            raise ConfigError(f"scan.d_start_m must be positive, got {start}")
        self.ensembles()
        # every link is priced through d ** k: the longest link each command
        # can price must have a finite energy, coded or not
        for link in self._priced_links():
            terms = (link.rx, link.e_circuit, link.e_transient, link.e_codec)
            if not all(math.isfinite(term) for term in terms):
                raise ConfigError(
                    f"a link's energy overflows at any length: received energy per bit "
                    f"{link.rx!r} J, circuit {link.e_circuit!r} J, start-up "
                    f"{link.e_transient!r} J, codec {link.e_codec!r} J")
        # a route sums its hops, none longer than the longest, so its
        # energy is at most the hop count times the longest hop's.  A
        # replication route has route.n_relays + 1 hops; a geometry route's
        # are counted once its ensemble is drawn (cmd_route_sim), since
        # route.n_nodes - 1 bounds them far above what a route takes
        relays = self["route.n_relays"]
        self.check_route_energy([
            ("scan.d_stop_m", 1, ""),
            ("route.hop_max_m", relays + 1,
             f" and route.n_relays = {relays!r} a route of {relays + 1} of them"),
            ("route.max_hop_m", 1, "")])

    def _priced_links(self) -> list:
        """The uncoded link and the coded link of every variant."""
        model = self.energy_model()
        code = golay_spec(self["codec.g_code_db"])
        return [model.link()] + [model.link(code, variant) for variant in CodedVariant]

    def check_route_energy(self, routes) -> None:
        """Raise :class:`ConfigError` unless, for each ``(key, hops, note)``
        of ``routes``, ``hops`` links of the longest length ``key`` allows
        (for ``route.max_hop_m``, within the field's diagonal) have a finite
        energy, coded or not; ``note`` says in the message what counted the
        hops."""
        field = self["route.field_m"]
        links = self._priced_links()
        for key, hops, note in routes:
            metres = self[key]
            if key == "route.max_hop_m":
                metres = min(metres, math.hypot(field, field))
            try:
                finite = all(math.isfinite(hops * link.breakdown(metres).e_total)
                             for link in links)
            except OverflowError:
                finite = False
            if not finite:
                raise ConfigError(f"{key} = {self[key]!r} allows a link of {metres!r} m"
                                  f"{note}, whose energy overflows")

    def __getitem__(self, key):
        for k, v in self.values:
            if k == key:
                return v
        raise KeyError(key)

    # domain-object builders ------------------------------------------------

    def power_profile(self) -> PowerProfile:
        return PowerProfile(
            p_adc=self["power.p_adc_mw"] * 1e-3,
            p_filt=self["power.p_filt_mw"] * 1e-3,
            p_syn=self["power.p_syn_mw"] * 1e-3,
            p_lna=self["power.p_lna_mw"] * 1e-3,
            p_ifa=self["power.p_ifa_mw"] * 1e-3,
            p_mixer=self["power.p_mixer_mw"] * 1e-3,
            eta=self["power.eta"],
        )

    def timing_profile(self) -> TimingProfile:
        return TimingProfile(
            t_start=self["timing.t_start_s"],
            l_bits=self["timing.l_bits"],
            bit_rate=self["modem.bandwidth_hz"],
        )

    def link_budget(self) -> LinkBudget:
        return LinkBudget(
            g_l=self["link.g_l"],
            m_l=self["link.m_l"],
            k_exp=self["link.path_loss_exponent"],
            n_f=_db_gain("link.noise_figure_db", self["link.noise_figure_db"]),
            sigma2=self["channel.sigma2_j"],
        )

    def modem_config(self) -> ModemConfig:
        return ModemConfig(
            bt_product=self["modem.bt_product"],
            samples_per_symbol=self["modem.samples_per_symbol"],
            pulse_span_symbols=self["modem.pulse_span_symbols"],
            bit_rate=self["modem.bandwidth_hz"],
            rx_bt=self["modem.rx_bt"],
        )

    def codec_power(self) -> CodecPowerProfile:
        return CodecPowerProfile(
            p_enc=self["codec.p_enc_mw"] * 1e-3,
            p_dec=self["codec.p_dec_mw"] * 1e-3,
        )

    def alpha(self) -> float:
        configured = self["energy.alpha"]
        if configured == "auto":
            return alpha_for_bt(self["modem.bt_product"])
        return configured

    def energy_model(self) -> EnergyModel:
        """The energy model of every link the energy commands price."""
        return EnergyModel(self.power_profile(), self.timing_profile(),
                           self.link_budget(), self["link.target_pe"],
                           self.alpha(), self.codec_power())

    def stop_rule(self) -> StopRule:
        return StopRule(min_bit_errors=self["sweep.min_bit_errors"],
                        max_bits=self["sweep.max_bits"])

    def ebno_grid(self) -> list:
        """The sweep's Eb/N0 points in dB, start to stop inclusive."""
        return _float_grid("sweep", self["sweep.ebno_start_db"],
                           self["sweep.ebno_stop_db"], self["sweep.ebno_step_db"])

    def distance_grid(self, min_step_m: float = 0.0) -> list:
        """The scan's distances in metres, with the step raised to ``min_step_m``."""
        return _float_grid("scan", self["scan.d_start_m"], self["scan.d_stop_m"],
                           max(self["scan.d_step_m"], min_step_m))

    def ensembles(self) -> dict:
        """The route-sim trial ensembles, by mode."""
        seed = self["run.seed"]
        return {
            "replication": EnsembleSpec(
                mode="replication", n_relays=self["route.n_relays"],
                hop_range=(self["route.hop_min_m"], self["route.hop_max_m"]),
                seed=seed),
            "geometry": EnsembleSpec(
                mode="geometry", n_nodes=self["route.n_nodes"],
                field_width=self["route.field_m"], field_height=self["route.field_m"],
                max_hop_m=self["route.max_hop_m"], seed=seed),
        }

    def with_overrides(self, overrides: dict) -> "RunConfig":
        """New config with dotted keys replaced (e.g. ``{"run.seed": 7}``)."""
        mapping = dict(self.values)
        for key, value in overrides.items():
            if key not in _SCHEMA:
                raise ConfigError(f"unknown key {key!r}")
            mapping[key] = value
        return RunConfig(values=tuple(sorted(mapping.items())))


def load_config(path=None) -> RunConfig:
    """Defaults from the shipped parameter file, overlaid with ``path``.

    A file that cannot be read as UTF-8 text raises :class:`ConfigError`.
    """
    mapping = _default_values()
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        mapping.update(parse_params_text(text, source=str(path)))
    return RunConfig(values=tuple(sorted(mapping.items())))
