"""Per-realization rate formulas: capacities, bounds, and the secrecy
rates of the modulo-forward (MF), amplify-forward (AF), and lattice
decode-forward (DF) relaying schemes.  The Monte Carlo outage events
reuse the end-to-end and relay SNRs written here.

``rate_report`` is the one place a rate quantity is formed and read: its
kernel ``_rate_fields`` holds every formula and takes each term once,
slice by slice, and each ``RateReport`` field names one quantity.

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
    UPPER = "upper"  # the cut-set law backs the upper bound
    MF = "mf"
    AF = "af"


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


@dataclass(frozen=True)
class RateReport:
    """All per-realization rate quantities in one record; rates in bits."""

    cd_upper: float       # two-hop cut-set capacity (1/2)log2(1 + min(g1,g2) ps/sigma2)
    upper_bound_u: float  # [cd_upper - rr]^+, valid for any forwarding
    # min{ps, ps*sigma2/(g1*ps + sigma2) + ps*sigma2/(g2*ps + sigma2)}, the MF
    # chain's equivalent noise variance; the clamp at ps acts only when both hops are useless
    sigma_e2: float
    rd_mf_exact: float    # (1/2)log2(ps / sigma_e2), clipped
    rd_mf_lower: float    # (1/2)log2(1/2 + snr*g1*g2/(g1+g2)), clipped
    rr: float             # the relay's rate, decoding with the jamming as noise
    rs_mf: float          # [rd_mf_lower - rr]^+
    snr_af: float         # AF's SNR after the destination cancels its jamming
    rs_af: float          # [(1/2)log2(1 + snr_af) - rr]^+
    # upper_bound_u - rs_mf: in [0, 1/2] wherever g1*g2 and the SNR products are
    # normal doubles; past that the products can underflow and it can read far above 1/2
    gap: float


def rate_report(params: SystemParams, real: ChannelRealization) -> RateReport:
    """Every rate quantity of the realization, each formed once here, slice
    by slice (``_map_slices``); a scalar point gives Python floats.

    MF pairs its closed lower-bound destination rate with the relay rate
    (the form the 1/2-bit gap bounds); AF's rate is taken after the
    destination cancels its jamming.
    """
    return RateReport(*map(_scalar, _map_slices(
        _rate_fields, params.ps, params.pd, params.sigma2, real.g1, real.g2, outs=10)))


def _rate_fields(ps, pd, sigma2, g1, g2):
    """``rate_report``'s kernel: its fields in order, at (ps, pd, sigma2)
    and gains (g1, g2)."""
    params = _unchecked(SystemParams, ps, pd, sigma2)
    se2 = np.minimum(ps, ps * sigma2 / (g1 * ps + sigma2) + ps * sigma2 / (g2 * ps + sigma2))
    rr = 0.5 * np.log2(1.0 + _relay_sinr(params, g1, g2))
    cd = 0.5 * np.log2(1.0 + _e2e_snr(Scheme.UPPER, params, g1, g2))
    rd_lower = _pos(0.5 * np.log2(0.5 + _e2e_snr(Scheme.MF, params, g1, g2)))
    rs_mf = _pos(rd_lower - rr)
    snr_af = _e2e_snr(Scheme.AF, params, g1, g2)
    u = _pos(cd - rr)
    return (cd, u, se2, _pos(0.5 * np.log2(ps / se2)), rd_lower, rr, rs_mf, snr_af,
            _pos(0.5 * np.log2(1.0 + snr_af) - rr), u - rs_mf)


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
