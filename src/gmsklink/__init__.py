"""GMSK link and sensor-network energy simulator.

A waveform-level GMSK modem with coherent detection, three forward
error-correction codecs (extended Golay, Reed-Solomon, convolutional with
Viterbi decoding), an AWGN channel calibrated to Eb/N0, a closed-form
transceiver energy model, Monte Carlo BER sweeps, and a multi-hop route
energy experiment over random sensor deployments.
"""

from .channel import ChannelConfig, LinkBudget, awgn, substream
from .energy import (CodedVariant, EnergyBreakdown, EnergyModel, PowerProfile,
                     TimingProfile, amplifier_beta, circuit_powers,
                     crossover_distance, rx_energy_per_bit,
                     total_energy_coded, total_energy_uncoded)
from .errors import ConfigError, DecodeFailure, FramingError, RoutingError
from .fec import (BlockLayout, CodecPowerProfile, CodeSpec,
                  apply_code, block_layout, conv_encode, conv_spec,
                  golay_decode, golay_encode, golay_spec, none_spec,
                  rs_decode, rs_encode, rs_spec, strip_code, viterbi_decode)
from .link import (BerPoint, StopRule, crossover_ber, run_grid, run_point,
                   semi_analytic_coded_ber, wilson_interval)
from .modem import (BasebandSignal, ModemConfig, alpha_for_bt, demodulate,
                    gaussian_frequency_pulse, modulate, qfunc, theoretical_ber)
from .netsim import (Deployment, EnsembleSpec, Route, SavingsStats,
                     build_route, compare_coded_uncoded, deploy_random,
                     draw_trials, route_energy)
from .params import RunConfig, load_config

__version__ = "0.1.0"
