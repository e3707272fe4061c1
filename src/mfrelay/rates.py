"""Per-realization rate formulas: capacities, bounds, and the secrecy
rates of the modulo-forward (MF), amplify-forward (AF), and lattice
decode-forward (DF) relaying schemes.  The Monte Carlo outage events
reuse the end-to-end and relay SNRs written here.

Every function broadcasts over array-valued parameter/realization fields.
All logarithms are base 2, so rates are in bits per real dimension;
negative-rate clips return exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import ChannelRealization, SystemParams


class Scheme(Enum):
    UPPER = "upper"
    MF = "mf"
    AF = "af"
    CUTSET = "upper"  # alias: the cut-set law backs the upper bound


def _pos(x):
    """[x]^+ clip, preserving scalarness."""
    return np.maximum(x, 0.0)


def _e2e_snr(scheme: Scheme, params: SystemParams, g1, g2):
    """End-to-end SNR at gains (g1, g2); the scheme's rate is
    (1/2)log2(1/2 + snr) for MF and (1/2)log2(1 + snr) otherwise.  The
    smallest subnormal added to MF's g1 + g2 gives 0 for two dead hops and
    changes no sum that a nonzero product is divided by."""
    if scheme is Scheme.MF:
        return params.snr * (g1 * g2 / (g1 + g2 + 5e-324))
    if scheme is Scheme.AF:
        ps, s2 = params.ps, params.sigma2
        return ps * ps * g1 * g2 / (s2 * (ps * g1 + ps * g2 + params.pd * g2 + s2))
    return np.minimum(g1, g2) * params.snr  # cut-set


def _relay_sinr(params: SystemParams, g1, g2):
    """SINR at the relay, which decodes with the jamming as noise."""
    return params.ps * g1 / (params.pd * g2 + params.sigma2)


def sigma_e_sq(params: SystemParams, real: ChannelRealization):
    """Equivalent noise variance of the end-to-end modulo channel.

    min{ps, ps*sigma2/(g1*ps + sigma2) + ps*sigma2/(g2*ps + sigma2)};
    the clamp at ps is active only when both hops are useless.
    """
    ps, s2 = params.ps, params.sigma2
    mmse = ps * s2 / (real.g1 * ps + s2) + ps * s2 / (real.g2 * ps + s2)
    return np.minimum(ps, mmse)


def cutset_capacity(params: SystemParams, real: ChannelRealization):
    """Two-hop cut-set capacity bound (1/2)log2(1 + min(g1,g2) ps/sigma2)."""
    return 0.5 * np.log2(1.0 + _e2e_snr(Scheme.UPPER, params, real.g1, real.g2))


def relay_capacity(params: SystemParams, real: ChannelRealization):
    """Rate the (untrusted) relay can decode at, with jamming as noise."""
    return 0.5 * np.log2(1.0 + _relay_sinr(params, real.g1, real.g2))


def secrecy_upper_bound(params: SystemParams, real: ChannelRealization):
    """[cut-set capacity - relay capacity]^+, valid for any forwarding."""
    return _pos(cutset_capacity(params, real) - relay_capacity(params, real))


@dataclass(frozen=True)
class MfRates:
    rd_exact: float    # (1/2)log2(ps / sigma_e^2)
    rd_lower: float    # (1/2)log2(1/2 + snr*g1*g2/(g1+g2)), clipped
    rr: float          # relay rate
    rs: float          # [rd_lower - rr]^+


def mf_rates(params: SystemParams, real: ChannelRealization) -> MfRates:
    """Achievable MF rates; the secrecy rate pairs the closed lower-bound
    destination rate with the relay rate (the form the 1/2-bit gap bounds).
    """
    se2 = sigma_e_sq(params, real)
    rd_exact = _pos(0.5 * np.log2(params.ps / se2))
    rd_lower = _pos(0.5 * np.log2(0.5 + _e2e_snr(Scheme.MF, params, real.g1, real.g2)))
    rr = relay_capacity(params, real)
    return MfRates(rd_exact=rd_exact, rd_lower=rd_lower, rr=rr, rs=_pos(rd_lower - rr))


@dataclass(frozen=True)
class AfRates:
    snr_af: float
    rs_af: float


def af_rates(params: SystemParams, real: ChannelRealization) -> AfRates:
    """Post-cancellation SNR and secrecy rate of amplify-and-forward."""
    snr_af = _e2e_snr(Scheme.AF, params, real.g1, real.g2)
    rs_af = _pos(0.5 * np.log2(1.0 + snr_af) - relay_capacity(params, real))
    return AfRates(snr_af=snr_af, rs_af=rs_af)


@dataclass(frozen=True)
class DfComparison:
    r_df: float
    gap_mf_df: float


def df_comparison(t) -> DfComparison:
    """Lattice DF rate and the MF-over-DF improvement at receiver SNR t.

    Assumes the symmetric setting (equal hop amplitudes, pd = ps).  The
    piecewise gap is implemented as published; note it steps by exactly
    1/2 bit at t = 3/2.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0) or not np.all(np.isfinite(t)):
        raise ValueError("receiver SNR t must be finite and nonnegative")
    r_df = _pos(0.5 * np.log2(0.5 + t) - 1.0)
    gap = np.where(
        t <= 1.0,
        0.0,
        np.where(
            t <= 1.5,
            0.5 * np.log2(1.0 + t) - 0.5,
            0.5 * np.log2(2.0 + 2.0 / (1.0 + 2.0 * t)),
        ),
    )
    if t.ndim == 0:
        return DfComparison(r_df=float(r_df), gap_mf_df=float(gap))
    return DfComparison(r_df=r_df, gap_mf_df=gap)


def mf_gap(params: SystemParams, real: ChannelRealization):
    """Gap of the MF secrecy rate to the upper bound, both clipped.

    Lies in [0, 1/2] for every realization: at most 1/2 bit when both are
    positive, and below 1/2 whenever the MF rate clips to zero.
    """
    return secrecy_upper_bound(params, real) - mf_rates(params, real).rs


@dataclass(frozen=True)
class RateReport:
    """All per-realization rate quantities in one record."""

    cd_upper: float
    cr: float
    upper_bound_u: float
    sigma_e2: float
    rd_mf_exact: float
    rd_mf_lower: float
    rr: float
    rs_mf: float
    snr_af: float
    rs_af: float
    gap: float


def rate_report(params: SystemParams, real: ChannelRealization) -> RateReport:
    mf = mf_rates(params, real)
    af = af_rates(params, real)
    cd = cutset_capacity(params, real)
    u = _pos(cd - mf.rr)
    return RateReport(
        cd_upper=cd,
        cr=mf.rr,
        upper_bound_u=u,
        sigma_e2=sigma_e_sq(params, real),
        rd_mf_exact=mf.rd_exact,
        rd_mf_lower=mf.rd_lower,
        rr=mf.rr,
        rs_mf=mf.rs,
        snr_af=af.snr_af,
        rs_af=af.rs_af,
        gap=u - mf.rs,
    )
