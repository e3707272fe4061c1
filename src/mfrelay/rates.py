"""Per-realization rate formulas: capacities, bounds, and the secrecy
rates of the modulo-forward (MF), amplify-forward (AF), and lattice
decode-forward (DF) relaying schemes.  The Monte Carlo outage events
reuse the end-to-end and relay SNRs written here.

``rate_report`` is the one place a rate quantity is formed: it takes the
noise, relay and cut-set terms once each, slice by slice, and
``mf_rates``, ``af_rates``, ``secrecy_upper_bound`` and ``mf_gap`` are
views of its fields.

Every function broadcasts over array-valued parameter/realization fields.
All logarithms are base 2, so rates are in bits per real dimension;
negative-rate clips return exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import ChannelRealization, SystemParams, _map_slices, _unchecked
from .numerics import _scalar


class Scheme(Enum):
    UPPER = "upper"
    MF = "mf"
    AF = "af"
    CUTSET = "upper"  # alias: the cut-set law backs the upper bound


def _pos(x):
    """[x]^+ clip, preserving scalarness."""
    return np.maximum(x, 0.0)


def _e2e_snr(scheme: Scheme, params: SystemParams, g1, g2, out=None, tmp=None):
    """End-to-end SNR at gains (g1, g2); the scheme's rate is
    (1/2)log2(1/2 + snr) for MF and (1/2)log2(1 + snr) otherwise.  The
    smallest subnormal added to MF's g1 + g2 gives 0 for two dead hops and
    changes no sum that a nonzero product is divided by.

    ``out`` and ``tmp``, float arrays of the gains' shape, take the result
    and an intermediate in place; without them each step allocates.  Either
    way the same operations run in the same order, so the bits agree, and a
    scalar point gives a Python float."""
    if scheme is Scheme.MF:
        den = np.add(np.add(g1, g2, out=tmp), 5e-324, out=tmp)
        snr = np.multiply(params.snr, np.divide(np.multiply(g1, g2, out=out), den, out=out),
                          out=out)
    elif scheme is Scheme.AF:
        ps, s2 = params.ps, params.sigma2
        den = np.add(np.multiply(ps, g1, out=tmp), np.multiply(ps, g2, out=out), out=tmp)
        den = np.add(np.add(den, np.multiply(params.pd, g2, out=out), out=tmp), s2, out=tmp)
        den = np.multiply(s2, den, out=tmp)
        num = np.multiply(np.multiply(ps * ps, g1, out=out), g2, out=out)
        snr = np.divide(num, den, out=out)
    else:  # cut-set
        snr = np.multiply(np.minimum(g1, g2, out=out), params.snr, out=out)
    return _scalar(snr)


def _relay_sinr(params: SystemParams, g1, g2, out=None, tmp=None):
    """SINR at the relay, which decodes with the jamming as noise; ``out``
    and ``tmp`` are scratch as in ``_e2e_snr``."""
    den = np.add(np.multiply(params.pd, g2, out=tmp), params.sigma2, out=tmp)
    return _scalar(np.divide(np.multiply(params.ps, g1, out=out), den, out=out))


def sigma_e_sq(params: SystemParams, real: ChannelRealization):
    """Equivalent noise variance of the end-to-end modulo channel.

    min{ps, ps*sigma2/(g1*ps + sigma2) + ps*sigma2/(g2*ps + sigma2)};
    the clamp at ps is active only when both hops are useless.
    """
    return _sigma_e_sq(params, real.g1, real.g2)


def cutset_capacity(params: SystemParams, real: ChannelRealization):
    """Two-hop cut-set capacity bound (1/2)log2(1 + min(g1,g2) ps/sigma2)."""
    return _cutset_capacity(params, real.g1, real.g2)


def relay_capacity(params: SystemParams, real: ChannelRealization):
    """Rate the (untrusted) relay can decode at, with jamming as noise."""
    return _relay_capacity(params, real.g1, real.g2)


# the three forms above at gains (g1, g2), which rate_report's kernel calls
def _sigma_e_sq(params: SystemParams, g1, g2):
    ps, s2 = params.ps, params.sigma2
    return np.minimum(ps, ps * s2 / (g1 * ps + s2) + ps * s2 / (g2 * ps + s2))


def _cutset_capacity(params: SystemParams, g1, g2):
    return 0.5 * np.log2(1.0 + _e2e_snr(Scheme.UPPER, params, g1, g2))


def _relay_capacity(params: SystemParams, g1, g2):
    return 0.5 * np.log2(1.0 + _relay_sinr(params, g1, g2))


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
    """Every rate quantity of the realization, each formed once here, slice
    by slice (``_map_slices``); the views below read its fields.  ``cr``
    and ``rr`` are both the relay rate, one array.

    MF pairs its closed lower-bound destination rate with the relay rate
    (the form the 1/2-bit gap bounds); AF's rate is taken after the
    destination cancels its jamming.
    """
    cd, u, se2, rd_exact, rd_lower, rr, rs_mf, snr_af, rs_af, gap = _map_slices(
        _rate_fields, params.ps, params.pd, params.sigma2, real.g1, real.g2, outs=10)
    return RateReport(cd_upper=cd, cr=rr, upper_bound_u=u, sigma_e2=se2, rd_mf_exact=rd_exact,
                      rd_mf_lower=rd_lower, rr=rr, rs_mf=rs_mf, snr_af=snr_af, rs_af=rs_af,
                      gap=gap)


def _rate_fields(ps, pd, sigma2, g1, g2):
    """``rate_report``'s kernel: its fields in order, ``cr`` left out, at
    (ps, pd, sigma2) and gains (g1, g2)."""
    params = _unchecked(SystemParams, ps, pd, sigma2)
    se2 = _sigma_e_sq(params, g1, g2)
    rr = _relay_capacity(params, g1, g2)
    cd = _cutset_capacity(params, g1, g2)
    rd_lower = _pos(0.5 * np.log2(0.5 + _e2e_snr(Scheme.MF, params, g1, g2)))
    rs_mf = _pos(rd_lower - rr)
    snr_af = _e2e_snr(Scheme.AF, params, g1, g2)
    u = _pos(cd - rr)
    return (cd, u, se2, _pos(0.5 * np.log2(ps / se2)), rd_lower, rr, rs_mf, snr_af,
            _pos(0.5 * np.log2(1.0 + snr_af) - rr), u - rs_mf)


def secrecy_upper_bound(params: SystemParams, real: ChannelRealization):
    """[cut-set capacity - relay capacity]^+, valid for any forwarding."""
    return rate_report(params, real).upper_bound_u


@dataclass(frozen=True)
class MfRates:
    rd_exact: float    # (1/2)log2(ps / sigma_e^2)
    rd_lower: float    # (1/2)log2(1/2 + snr*g1*g2/(g1+g2)), clipped
    rr: float          # relay rate
    rs: float          # [rd_lower - rr]^+


def mf_rates(params: SystemParams, real: ChannelRealization) -> MfRates:
    """Achievable MF rates, read from ``rate_report``."""
    rep = rate_report(params, real)
    return MfRates(rd_exact=rep.rd_mf_exact, rd_lower=rep.rd_mf_lower, rr=rep.rr, rs=rep.rs_mf)


@dataclass(frozen=True)
class AfRates:
    snr_af: float
    rs_af: float


def af_rates(params: SystemParams, real: ChannelRealization) -> AfRates:
    """Post-cancellation SNR and secrecy rate of amplify-and-forward."""
    rep = rate_report(params, real)
    return AfRates(snr_af=rep.snr_af, rs_af=rep.rs_af)


def mf_gap(params: SystemParams, real: ChannelRealization):
    """Gap of the MF secrecy rate to the upper bound, both clipped.

    Lies in [0, 1/2] wherever g1*g2 and the SNR products are normal
    doubles: at most 1/2 bit when both are positive, and below 1/2
    whenever the MF rate clips to zero.  Past that range the direct
    products can underflow, and the gap can read far above 1/2.
    """
    return rate_report(params, real).gap


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
    return DfComparison(r_df=_scalar(r_df), gap_mf_df=_scalar(gap))
