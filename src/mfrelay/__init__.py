"""Secrecy analysis and simulation for the untrusted two-hop relay
channel: closed-form rates and outage laws for modulo-forward and
amplify-forward relaying, high-SNR exponents, and a sample-level
modulo-lattice signal chain, all cross-validated by Monte Carlo.
"""

from .asymptotics import estimate_gsdof, estimate_gsdg, gsdg_closed_form, gsdof_closed_form
from .channel import (ChannelRealization, RateConfig, SystemParams, Thresholds,
                      derived_ratios, rng_stream, sample_realization, thresholds)
from .latticesim import (ChainReport, LatticeConfig, mmse_scalings, mod_lattice,
                         scan_scaling, simulate_chain)
from .numerics import Interval, bessel_k1, slope_fit
from .outage import (MCEstimate, OutageProbs, mc_outage, outage_probs, p_conn_af,
                     p_conn_cutset_lower, p_conn_mf, p_secrecy,
                     p_secrecy_threshold, tradeoff_residual)
from .rates import RateReport, Scheme, rate_report

__version__ = "0.1.0"

__all__ = [
    "ChainReport", "ChannelRealization", "Interval", "LatticeConfig", "MCEstimate",
    "OutageProbs", "RateConfig", "RateReport", "Scheme", "SystemParams", "Thresholds",
    "bessel_k1", "derived_ratios", "estimate_gsdof", "estimate_gsdg", "gsdg_closed_form",
    "gsdof_closed_form", "mc_outage", "mmse_scalings", "mod_lattice", "outage_probs",
    "p_conn_af", "p_conn_cutset_lower", "p_conn_mf", "p_secrecy", "p_secrecy_threshold",
    "rate_report", "rng_stream", "sample_realization", "scan_scaling", "simulate_chain",
    "slope_fit", "thresholds", "tradeoff_residual", "__version__",
]
