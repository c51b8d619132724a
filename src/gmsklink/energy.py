"""Closed-form transceiver and link energy model.

The model splits one L-bit transmission into radiated energy (sized from the
target error probability, the BER-model alpha and the distance power gain),
power-amplifier overhead, transmit+receive circuit energy over the on-time,
codec energy, and the synthesizer start-up transient.  Coding divides the
radiated term by the coding gain but stretches the on-time by 1/R; because
the published arithmetic is ambiguous about whether circuit and codec power
also integrate over the stretched time, both readings are implemented as
:class:`CodedVariant` and reported side by side.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

from .channel import LinkBudget
from .errors import ConfigError
from .fec import CodecPowerProfile, CodeSpec


class CodedVariant(enum.Enum):
    """How coded transmissions integrate circuit and codec power.

    LITERAL: circuit and codec powers run for the stretched time T_on / R.
    CIRCUIT_UNSCALED: only the radiated term pays the time stretch; circuit
    and codec energies are charged over the uncoded T_on.
    """

    LITERAL = "literal"
    CIRCUIT_UNSCALED = "circuit-unscaled"


@dataclass(frozen=True)
class PowerProfile:
    """Circuit power draws in watts plus the power amplifier's efficiency."""

    p_adc: float = 6.7e-3
    p_filt: float = 2.5e-3
    p_syn: float = 50e-3
    p_lna: float = 20e-3
    p_ifa: float = 3e-3
    p_mixer: float = 30.3e-3
    eta: float = 0.75

    def __post_init__(self):
        for name in ("p_adc", "p_filt", "p_syn", "p_lna", "p_ifa", "p_mixer"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be >= 0")
        if not 0 < self.eta <= 1:
            raise ConfigError(f"eta must be in (0, 1], got {self.eta}")


@dataclass(frozen=True)
class TimingProfile:
    """Transmission timing: start-up transient plus L bits at the bit rate."""

    t_start: float = 5e-6
    l_bits: int = 1000
    bit_rate: float = 1e4

    def __post_init__(self):
        if not self.t_start >= 0:
            raise ConfigError("t_start must be >= 0")
        if not self.l_bits >= 1:
            raise ConfigError("l_bits must be >= 1")
        if not self.bit_rate > 0:
            raise ConfigError("bit_rate must be positive")

    @property
    def t_on(self) -> float:
        return self.l_bits / self.bit_rate


@dataclass(frozen=True)
class EnergyBreakdown:
    """Additive decomposition of one transmission's energy in joules."""

    e_tx_radiated: float
    e_pa_overhead: float
    e_circuit: float
    e_transient: float
    e_codec: float
    e_total: float
    e_per_info_bit: float


def amplifier_beta(profile: PowerProfile) -> float:
    """PA overhead factor beta (P_PA = beta * P_tx).

    In general beta = PAR / eta - 1, with PAR the transmitted signal's
    peak-to-average power ratio.  GMSK has a constant envelope, so PAR = 1
    and beta = (1 - eta) / eta.
    """
    return (1.0 - profile.eta) / profile.eta


def circuit_powers(profile: PowerProfile) -> tuple[float, float]:
    """(transmit, receive) circuit power in watts, excluding the PA.

    The transmitter of a frequency-modulated link runs no DAC and no mixer,
    so its circuit draw is just the filter and the synthesizer.
    """
    p_tx = profile.p_filt + profile.p_syn
    p_rx = (profile.p_adc + profile.p_filt + profile.p_mixer
            + profile.p_syn + profile.p_lna + profile.p_ifa)
    return p_tx, p_rx


def rx_energy_per_bit(pe: float, alpha: float, sigma2: float, n_f: float) -> float:
    """Required received energy per bit: (2/alpha) sigma^2 N_f ln(1/pe)."""
    if not 0 < pe < 1:
        raise ValueError(f"pe must be in (0, 1), got {pe}")
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    return (2.0 / alpha) * sigma2 * n_f * math.log(1.0 / pe)


@dataclass(frozen=True)
class LinkConstants:
    """The distance-free terms of one link's energy, computed once.

    Every quantity that does not depend on the hop length is evaluated here,
    so pricing a link of length ``d`` is one power of ``d`` and a few
    products.  :meth:`hop_terms` is that arithmetic, written once:
    :meth:`breakdown` calls it on one link, and the route energy in
    :mod:`gmsklink.netsim` on an array of links.
    """

    rx: float  # required received energy per bit (J)
    g_l: float
    k_exp: float
    m_l: float
    l_bits: int
    g_code: float  # linear coding gain
    beta: float  # PA overhead factor
    e_circuit: float
    e_transient: float
    e_codec: float

    def hop_terms(self, d_k):
        """Radiated and PA overhead energy of links whose ``d**k_exp`` is ``d_k``.

        ``d_k`` is a float for one link or an array for many.  Every step is
        one correctly rounded multiply or divide, so an array gives each
        link the bytes its float would; the power itself is left to the
        caller, because ``np.power`` can round differently from ``**``.
        """
        # rx energy per bit times the path gain G_l d**k M_l times L, over
        # the coding gain
        e_rad = self.rx * (self.g_l * d_k * self.m_l) * self.l_bits / self.g_code
        return e_rad, self.beta * e_rad

    def breakdown(self, d: float) -> EnergyBreakdown:
        """The energy of one L-bit transmission over a link ``d`` metres long."""
        if not d > 0:
            raise ConfigError("distance_m must be positive")
        e_rad, e_pa = self.hop_terms(d**self.k_exp)
        e_total = e_rad + e_pa + self.e_circuit + self.e_transient + self.e_codec
        return EnergyBreakdown(e_tx_radiated=e_rad, e_pa_overhead=e_pa,
                               e_circuit=self.e_circuit, e_transient=self.e_transient,
                               e_codec=self.e_codec, e_total=e_total,
                               e_per_info_bit=e_total / self.l_bits)


@dataclass(frozen=True)
class EnergyModel:
    """Everything the energy of a link depends on except its length and code.

    ``budget.distance_m`` is unused: a link's length is given when it is
    priced.  ``codec_power`` may be left out by a caller that prices only
    uncoded links.
    """

    power: PowerProfile
    timing: TimingProfile
    budget: LinkBudget
    pe: float
    alpha: float
    codec_power: CodecPowerProfile | None = None

    def link(self, spec: CodeSpec | None = None,
             variant: CodedVariant = CodedVariant.LITERAL) -> LinkConstants:
        """The link constants of the uncoded link (``spec`` None) or of
        ``spec`` priced as given, even a rate-1 code.

        A code divides the radiated term by its linear coding gain and
        stretches the on-time to T_on / R; ``variant`` selects whether
        circuit and codec powers run for the stretched or the uncoded
        on-time.  The transient is never stretched.  Raises ``ValueError``
        for ``pe`` outside (0, 1) or ``alpha`` outside (0, 1].
        """
        t_integrate = self.timing.t_on
        g_code, p_codec = 1.0, 0.0
        if spec is not None:
            if self.codec_power is None:
                raise ConfigError("coded link energy needs a CodecPowerProfile")
            g_code = 10.0 ** (spec.g_code_db / 10.0)
            p_codec = self.codec_power.p_enc + self.codec_power.p_dec
            if variant is CodedVariant.LITERAL:
                t_integrate /= spec.rate
        p_tx_c, p_rx_c = circuit_powers(self.power)
        b = self.budget
        return LinkConstants(
            rx=rx_energy_per_bit(self.pe, self.alpha, b.sigma2, b.n_f),
            g_l=b.g_l, k_exp=b.k_exp, m_l=b.m_l, l_bits=self.timing.l_bits,
            g_code=g_code, beta=amplifier_beta(self.power),
            e_circuit=(p_tx_c + p_rx_c) * t_integrate,
            e_transient=2.0 * self.power.p_syn * self.timing.t_start,
            e_codec=p_codec * t_integrate,
        )


def total_energy_coded(power: PowerProfile, timing: TimingProfile,
                       link: LinkBudget, pe: float, alpha: float,
                       spec: CodeSpec, codec_power: CodecPowerProfile,
                       variant: CodedVariant = CodedVariant.LITERAL) -> EnergyBreakdown:
    """Energy of one coded L-bit transmission; see :meth:`EnergyModel.link`."""
    model = EnergyModel(power, timing, link, pe, alpha, codec_power)
    return model.link(spec, variant).breakdown(link.distance_m)


def total_energy_uncoded(power: PowerProfile, timing: TimingProfile,
                         link: LinkBudget, pe: float, alpha: float) -> EnergyBreakdown:
    """Energy of one uncoded L-bit transmission over the given link.

    This is the coded energy of the identity code (rate 1, 0 dB gain) with
    free encoding and decoding, and equal to it bit for bit.
    """
    return EnergyModel(power, timing, link, pe, alpha).link().breakdown(link.distance_m)


def crossover_distance(power: PowerProfile, timing: TimingProfile,
                       link_template: LinkBudget, pe: float, alpha: float,
                       spec: CodeSpec, codec_power: CodecPowerProfile,
                       variant: CodedVariant = CodedVariant.LITERAL,
                       d_min: float = 0.1, d_max: float = 1e4) -> float | None:
    """Distance where coded and uncoded per-bit energies cross.

    The difference coded - uncoded is monotone decreasing in distance
    whenever the code has positive gain, so bisection applies.  Returns
    ``d_min`` when coding already wins at the lower bound, ``None`` when it
    never wins within ``[d_min, d_max]``.
    """
    def diff(d: float) -> float:
        link = dataclasses.replace(link_template, distance_m=d)
        coded = total_energy_coded(power, timing, link, pe, alpha, spec,
                                   codec_power, variant)
        uncoded = total_energy_uncoded(power, timing, link, pe, alpha)
        return coded.e_per_info_bit - uncoded.e_per_info_bit

    lo, hi = d_min, d_max
    f_lo, f_hi = diff(lo), diff(hi)
    if f_lo <= 0:
        return lo
    if f_hi > 0:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if diff(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-9 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)
