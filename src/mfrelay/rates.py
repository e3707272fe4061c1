"""Per-realization rate formulas: capacities, bounds, and the secrecy
rates of the modulo-forward (MF), amplify-forward (AF), and lattice
decode-forward (DF) relaying schemes.  The Monte Carlo outage events
reuse the end-to-end and relay SNRs written here.

``rate_report`` is the one place a rate quantity is formed and read:
each term kernel (``_rr``, ``_cd``, ``_rd_lower``, ``_se2``, ``_snr_af``)
holds one formula, and each ``RateReport`` field combines the terms it
needs, slice by slice, on its first read.

Every function broadcasts over array-valued parameter/realization fields.
All logarithms are base 2, so rates are in bits per real dimension;
negative-rate clips return exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

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


# the term kernels: each writes one rate formula once, at a slice's params
# (rebuilt unchecked) and gains, and the RateReport fields combine them


def _rr(p, g1, g2):
    """The relay's rate, decoding with the jamming as noise."""
    return 0.5 * np.log2(1.0 + _relay_sinr(p, g1, g2))


def _cd(p, g1, g2):
    """The two-hop cut-set capacity (1/2)log2(1 + min(g1, g2) ps/sigma2)."""
    return 0.5 * np.log2(1.0 + _e2e_snr(Scheme.UPPER, p, g1, g2))


def _rd_lower(p, g1, g2):
    """MF's closed lower-bound destination rate
    (1/2)log2(1/2 + snr*g1*g2/(g1 + g2)), clipped."""
    return _pos(0.5 * np.log2(0.5 + _e2e_snr(Scheme.MF, p, g1, g2)))


def _se2(p, g1, g2):
    """The MF chain's equivalent noise variance, min{ps, ps*sigma2/(g1*ps +
    sigma2) + ps*sigma2/(g2*ps + sigma2)}; the clamp at ps acts only when
    both hops are useless."""
    ps, sigma2 = p.ps, p.sigma2
    return np.minimum(ps, ps * sigma2 / (g1 * ps + sigma2) + ps * sigma2 / (g2 * ps + sigma2))


def _snr_af(p, g1, g2):
    """AF's SNR after the destination cancels its jamming."""
    return _e2e_snr(Scheme.AF, p, g1, g2)


def _field(kernel):
    """A ``RateReport`` field: ``kernel(params, g1, g2)`` at the report's
    arrays, run on ``_map_slices`` into the one array it makes when the
    field is first read (so under that read's np.errstate), and then kept."""

    def read(report):
        return _scalar(_map_slices(lambda ps, pd, sigma2, g1, g2: kernel(
            _unchecked(SystemParams, ps, pd, sigma2), g1, g2), *report._args))

    return cached_property(read)


class RateReport:
    """Every per-realization rate quantity of (params, real); rates in bits.

    Each field is formed on its first read from the term kernels it needs,
    each term once, and then kept, so ``vars(report)`` lists the fields
    read so far; a field never read is never formed.  The report holds
    references to the records' arrays, which must not be written to
    afterwards.  Shapes that do not broadcast together are refused here.
    """

    __slots__ = ("_args", "__dict__")  # so vars(report) holds only the fields formed

    def __init__(self, params: SystemParams, real: ChannelRealization):
        self._args = (params.ps, params.pd, params.sigma2, real.g1, real.g2)
        np.broadcast_shapes(*map(np.shape, self._args))

    # each field's kernel, of a = (params, g1, g2), looks its terms up when it
    # runs, so a test can count the terms that one read forms
    cd_upper = _field(lambda *a: _cd(*a))
    upper_bound_u = _field(lambda *a: _pos(_cd(*a) - _rr(*a)))  # valid for any forwarding
    sigma_e2 = _field(lambda *a: _se2(*a))
    rd_mf_exact = _field(lambda *a: _pos(0.5 * np.log2(a[0].ps / _se2(*a))))
    rd_mf_lower = _field(lambda *a: _rd_lower(*a))
    rr = _field(lambda *a: _rr(*a))
    rs_mf = _field(lambda *a: _pos(_rd_lower(*a) - _rr(*a)))
    snr_af = _field(lambda *a: _snr_af(*a))
    rs_af = _field(lambda *a: _pos(0.5 * np.log2(1.0 + _snr_af(*a)) - _rr(*a)))
    # upper_bound_u - rs_mf: in [0, 1/2] wherever g1*g2 and the SNR products are
    # normal doubles; past that the products can underflow and it can read far above 1/2
    gap = _field(lambda *a: _pos(_cd(*a) - (rr := _rr(*a))) - _pos(_rd_lower(*a) - rr))


# the ten fields of a RateReport, in order
_FIELDS = tuple(name for name, value in vars(RateReport).items()
                if isinstance(value, cached_property))


def rate_report(params: SystemParams, real: ChannelRealization) -> RateReport:
    """The rate quantities of the realization, each formed on its first
    read (``RateReport``); a scalar point gives Python floats.

    MF pairs its closed lower-bound destination rate with the relay rate
    (the form the 1/2-bit gap bounds); AF's rate is taken after the
    destination cancels its jamming.
    """
    return RateReport(params, real)


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
