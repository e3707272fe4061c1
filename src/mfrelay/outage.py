"""Outage probabilities without transmitter CSI: exact closed forms, the
connection/secrecy tradeoff relation, the total-outage bound pair, and
Monte Carlo estimators validating all of it.

The paper's first-order laws (the leading high-SNR term of each outage,
whose exponent gives the secure diversity gain) are documented with each
closed form and checked by the tests against it; ``asymptotics`` holds
their exponents.

Zero-rate conventions: rd = 0 makes every closed-form connection outage 0
(continuity of the thresholds), and rd = rs makes the secrecy outage 1.
A negative or nan rate or threshold is refused with a ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (_SLICE, _TINY, RateConfig, SystemParams, Thresholds, _check_rate,
                      _direct_or_logs, _gamma, _is_number, _map_blocks, _map_slices, _normal,
                      _scalar, _slices, _unchecked, rng_stream, thresholds)
from .numerics import Interval, _k1_map
from .rates import Scheme, _e2e_snr, _relay_sinr


@dataclass(frozen=True)
class MCEstimate:
    """Binomial probability estimate with its sampling error: Python
    numbers at one operating point, arrays of the points' shape otherwise.

    ``std_err`` is the binomial (Wald) SE sqrt(p(1 - p)/n).  ``ci95`` is the
    Wilson score interval at z = 1.96 (Wilson 1927), which is not
    zero-width at 0 or n hits and always contains p_hat.
    """

    p_hat: float
    n: int
    std_err: float
    ci95: Interval

    @classmethod
    def from_counts(cls, hits, n: int) -> "MCEstimate":
        """The estimate of each hit count of ``hits`` (an int or array of
        them) out of n draws."""
        counts = np.asarray(hits)
        if not (_is_number(n, integral=True) and n > 0 and np.all((counts >= 0) & (counts <= n))):
            raise ValueError("hits must lie in [0, n] with n a whole number > 0, "
                             f"not hits={hits!r}, n={n!r}")
        p = counts / n
        var, z2n = p * (1.0 - p) / n, 1.96 ** 2 / n
        center = (p + z2n / 2) / (1.0 + z2n)
        half = 1.96 * np.sqrt(var + z2n / (4 * n)) / (1.0 + z2n)
        # the clip keeps p_hat inside where rounding would move an end past it
        return cls(p_hat=_scalar(p), n=n, std_err=_scalar(np.sqrt(var)),
                   ci95=Interval(_scalar(np.clip(center - half, 0.0, p)),
                                 _scalar(np.clip(center + half, p, 1.0))))


@dataclass(frozen=True)
class OutageProbs:
    """Connection/secrecy pair with the total-outage bound interval
    [max, min(1, sum)]; the lower bound is at least half the upper."""

    p_conn: float
    p_secrecy: float
    p_total_lower: float
    p_total_upper: float

    @classmethod
    def from_components(cls, p_conn, p_secrecy) -> "OutageProbs":
        """Broadcasts; a scalar pair gives Python floats."""
        for p in map(np.asarray, (p_conn, p_secrecy)):
            if not np.all((p >= 0.0) & (p <= 1.0)):
                raise ValueError("probabilities must lie in [0, 1]")
        return cls(p_conn=p_conn, p_secrecy=p_secrecy,
                   p_total_lower=_scalar(np.maximum(p_conn, p_secrecy)),
                   p_total_upper=_scalar(np.minimum(1.0, p_conn + p_secrecy)))


def p_conn_cutset_lower(params: SystemParams, rd: float):
    """Connection-outage lower bound from the cut-set capacity:
    1 - exp(-a) with a = (1/eps1 + 1/eps2) * gamma_o * sigma2 / ps, and 0 at
    rd = 0.  The a is the smaller of MF's and AF's a at gamma_o (from logs
    outside the normal range), which are equal at pd = 0 but for rounding,
    so the bound never reads above either scheme's outage.  Evaluated slice
    by slice (``_map_slices``).
    """
    return _map_slices(_cutset_lower, _check_rate(rd), params)


def _cutset_lower(rd, params):
    """``p_conn_cutset_lower``'s kernel."""
    gamma_o = _gamma(rd)
    a = np.minimum(*(_k1_arguments(params, gamma_o, af)[0] for af in (False, True)))
    return np.where(gamma_o > 0, -np.expm1(-a), 0.0)


def _secrecy_terms(params: SystemParams, gamma_s):
    """(pref, u) of the secrecy outage pref * exp(-u) at threshold gamma_s:
    the prefactor pref = ps*eps1/(ps*eps1 + pd*eps2*gamma_s) and the
    exponent u = gamma_s*sigma2/(ps*eps1).

    Both are these quotients in their box, where ps*eps1 is a normal double
    and that sum is finite (for u, also gamma_s*sigma2).  Outside it they
    come from sums of logs (``_direct_or_logs``), which can neither overflow
    nor be nan: pref = 1/(1 + e^L), L = ln(pd*eps2*gamma_s/(ps*eps1)), and
    u = e^(ln(gamma_s*sigma2) - ln(ps*eps1)).
    """
    ps, pd, sigma2, eps1, eps2 = params.ps, params.pd, params.sigma2, params.eps1, params.eps2
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ps_eps1, jam, spread = ps * eps1, pd * eps2 * gamma_s, gamma_s * sigma2
        direct = _normal(ps_eps1) & _normal(ps_eps1 + jam)
        pref, u = ps_eps1 / (ps_eps1 + jam), spread / ps_eps1
    # pd = 0 gives L = -inf, not the nan of ln pd + ln gamma_s = -inf + inf
    pref = _direct_or_logs(direct, pref, lambda lpd, le2, lgs, lps, le1: np.exp(-np.logaddexp(
        0.0, np.where(lpd > -np.inf, ((lpd + le2) + lgs) - (lps + le1), -np.inf))),
        pd, eps2, gamma_s, ps, eps1)
    return pref, _direct_or_logs(direct & (spread < np.inf), u, lambda lgs, ls2, lps, le1:
                                 np.exp((lgs + ls2) - (lps + le1)), gamma_s, sigma2, ps, eps1)


def p_secrecy_threshold(params: SystemParams, gamma_s):
    """Secrecy outage at a given SNR threshold gamma_s (scheme-independent):
    ps*eps1/(ps*eps1 + pd*eps2*gamma_s) * exp(-gamma_s*sigma2/(ps*eps1)),
    evaluated slice by slice (``_map_slices``).

    At high ps its first order is pref*(1 - u), with the (pref, u) of
    ``_secrecy_terms``.  A negative or nan gamma_s is refused with a
    ValueError; gamma_s = inf gives 0.
    """
    gamma_s = np.asarray(gamma_s, dtype=float)
    if not np.all(gamma_s >= 0.0):
        raise ValueError("gamma_s must be a nonnegative threshold, not negative or nan")
    return _map_slices(_secrecy, gamma_s, params)


def _secrecy(gamma_s, params):
    """``p_secrecy_threshold``'s kernel."""
    pref, u = _secrecy_terms(params, gamma_s)
    return pref * np.exp(-u)


def p_secrecy(params: SystemParams, config: RateConfig):
    """Secrecy outage probability for a rate pair (1 when rd = rs)."""
    _check_rate(config.rd - config.rs)
    return _map_slices(lambda config, params: _secrecy(_gamma(config.rd - config.rs), params),
                       config, params)


_DIRECT = 2.0 ** 150  # the direct a and x of inputs in [1/_DIRECT, _DIRECT] stay normal
# any x past 746 gives exp(-a - x) = 0; an x of inf would make x*(e^x*K1(x)) times it nan
_X_CAP = 1e300


def _k1_outage(live, a, x):
    """The MF and AF connection outage 1 - exp(-a)*x*K1(x) where ``live``;
    0 elsewhere (the zero-rate convention).  Its first order at high SNR,
    where a and x go to 0, is a.

    The form has no cancellation: where x <= 2 it is
    -expm1(-a) + exp(-a)*(1 - x*K1(x)), and where x > 2 it is
    1 - x*(e^x*K1(x))*exp(-a - x), so exp(-a) and K1 cannot underflow
    apart.  An x below the smallest normal double or above _X_CAP (0 or
    inf past the double range) is taken at that bound, where x*K1(x)
    already is its limit, 1 or 0, to double precision.
    """
    out = _k1_map(lambda x, k, a: -np.expm1(-a) + np.exp(-a) * k,
                  lambda x, k, a: 1.0 - x * k * np.exp(-a - x),
                  np.clip(np.where(live, x, 1.0), _TINY, _X_CAP), a)
    return np.where(live, out, 0.0)


def _k1_arguments(params: SystemParams, gamma, af: bool):
    """(a, x) of the MF or AF connection outage 1 - exp(-a)*x*K1(x).

    With q = gamma*sigma2/ps, a = q*(r/eps1 + 1/eps2) and
    x = 2q*sqrt((r + s)/(eps1*eps2)), where MF has r = 1 and s = 0, and AF
    r = (ps + pd)/ps and s = 1/gamma.  Their box is where ps, sigma2, eps1,
    eps2 and gamma lie in [2^-150, 2^150] (and, for AF, pd <= 2^150): there
    they are these direct products and quotients, none of which leaves the
    normal range.  Outside it both come from sums of logs
    (``_direct_or_logs``), which can neither overflow nor be nan.
    """
    ps, pd, sigma2, eps1, eps2 = params.ps, params.pd, params.sigma2, params.eps1, params.eps2
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if af:
            ratio = (ps + pd) / ps
            a = (gamma * sigma2 / ps) * (ratio / eps1 + 1.0 / eps2)
            x = (2.0 * gamma * sigma2 / ps) * np.sqrt((ratio + 1.0 / gamma) / (eps1 * eps2))
        else:
            a = (1.0 / eps1 + 1.0 / eps2) * gamma * sigma2 / ps
            x = 2.0 * gamma * sigma2 / (ps * np.sqrt(eps1 * eps2))
    direct = pd <= _DIRECT if af else True
    for v in (ps, sigma2, eps1, eps2, gamma):
        direct = direct & (v >= 1.0 / _DIRECT) & (v <= _DIRECT)

    def logs(lps, lpd, ls2, le1, le2, lg):
        lq = lg + ls2 - lps
        lr = np.logaddexp(lps, lpd) - lps if af else 0.0
        lrs = np.logaddexp(lr, -lg) if af else 0.0
        return np.exp(lq + np.logaddexp(lr - le1, -le2)), 2.0 * np.exp(lq + (lrs - le1 - le2) / 2)

    return _direct_or_logs(direct, (a, x), logs, ps, pd, sigma2, eps1, eps2, gamma)


def p_conn_mf(params: SystemParams, rd: float):
    """Connection outage of the modulo-forward achievable rate (independent
    of pd), from gamma_1 = gamma_o + 1/2 and K1.  At high SNR it falls as
    its first order (1/eps1 + 1/eps2) * gamma_1 * sigma2 / ps.  Returns 0
    at rd = 0 by the zero-rate convention.  Evaluated slice by slice
    (``_map_slices``).
    """
    # pd = 0, so the output's shape does not take pd's
    return _map_slices(_conn_mf, _check_rate(rd), _unchecked(
        SystemParams, params.ps, 0.0, params.sigma2, params.eps1, params.eps2))


def _conn_mf(rd, params):
    """``p_conn_mf``'s kernel; MF's outage does not depend on pd."""
    return _k1_outage(rd > 0, *_k1_arguments(params, _gamma(rd) + 0.5, af=False))


def p_conn_af(params: SystemParams, rd: float):
    """Connection outage of amplify-and-forward (depends on pd through the
    power wasted on forwarding the jamming signal).  At high SNR it falls
    as its first order (gamma_o*sigma2/ps)*((ps + pd)/(ps*eps1) + 1/eps2).
    Returns 0 at rd = 0, where the closed form's 1/gamma_o is singular.
    Evaluated slice by slice (``_map_slices``).
    """
    return _map_slices(_conn_af, _check_rate(rd), params)


def _conn_af(rd, params):
    """``p_conn_af``'s kernel."""
    gamma_o = _gamma(rd)
    return _k1_outage(gamma_o > 0, *_k1_arguments(params, gamma_o, af=True))


def outage_probs(params: SystemParams, config: RateConfig) -> OutageProbs:
    """MF connection outage and secrecy outage with the total-outage
    bound interval; broadcasts like the closed forms it combines."""
    return OutageProbs.from_components(p_conn_mf(params, config.rd), p_secrecy(params, config))


def tradeoff_residual(params: SystemParams, config: RateConfig):
    """Left side minus 1 of the high-SNR linear relation tying the secrecy
    and connection outage probabilities together:
    pl/pref + weight * po - 1, with pl = pref * exp(-u) the secrecy outage,
    po the MF connection outage and
    weight = (gamma_s/gamma_1) * eps2/(eps1 + eps2).

    The relation holds exactly at first order, where pl/pref is 1 - u and
    po is a, for weight * a = u.  Fed the exact closed forms, the residual
    measures how fast they approach it (O(1/snr^2) up to a log factor).
    Broadcasts, slice by slice (``_map_slices``); a scalar input gives a
    Python float.
    """
    rd = _check_rate(config.rd)
    _check_rate(rd - config.rs)
    return _map_slices(_tradeoff, rd, config.rs, params)


def _tradeoff(rd, rs, params):
    """``tradeoff_residual``'s kernel."""
    gamma_s = _gamma(rd - rs)
    _, u = _secrecy_terms(params, gamma_s)
    po = _conn_mf(rd, params)
    weight = (gamma_s / (_gamma(rd) + 0.5)) * (params.eps2 / (params.eps1 + params.eps2))
    return np.exp(-u) + weight * po - 1.0


def _conn_event(scheme: Scheme, params: SystemParams, th: Thresholds, g1, g2,
                snr=None, tmp=None, out=None):
    """Connection outage: the scheme's rate below rd, i.e. its end-to-end
    SNR below gamma_1 (MF) or gamma_o (AF, cut-set).  ``snr`` and ``tmp``
    are ``_e2e_snr``'s scratch and ``out`` a bool array for the event."""
    gamma = th.gamma_1 if scheme is Scheme.MF else th.gamma_o
    return np.less(_e2e_snr(scheme, params, g1, g2, snr, tmp), gamma, out=out)


def _rows(record, shape):
    """Each point of a record whose fields broadcast to ``shape``, in C
    order, as a record of Python numbers."""
    fields = {k: np.broadcast_to(v, shape).ravel().tolist() for k, v in vars(record).items()}
    return [type(record)(**dict(zip(fields, point))) for point in zip(*fields.values())]


def mc_outage(params: SystemParams, config: RateConfig, scheme: Scheme | tuple, n: int,
              seed: int, stream=0):
    """Monte Carlo (connection, secrecy, joint) outage estimates of a
    ``Scheme``, or one such triple per scheme of a tuple of them.

    Broadcasts over the fields of ``params`` and ``config`` and over
    ``stream`` as the closed forms do: each ``MCEstimate`` holds Python
    numbers at one point and arrays of the broadcast shape otherwise.
    Point k draws block i of n from rng_stream(seed, (stream_k, i)), so
    its estimates are those of its own one-point call and do not depend on
    how blocks are farmed out to workers; ``stream`` namespaces
    independent runs under one seed (e.g. one stream per sweep row).
    Every point's blocks run on one pool (``_map_blocks``), each block
    drawn once: every scheme's connection event and the secrecy event are
    evaluated on it, so the schemes are compared on the same fading and
    the joint estimate reuses each realization for both events.  A block
    draws g1 whole into its thread's one block row, then g2 one 2^15-draw
    part at a time into slice scratch, just before that part's events:
    g2 is the block's last draw, so its parts are bitwise the whole draw's.
    """
    if not _is_number(n, integral=True) or n < 1:
        raise ValueError(f"mc_outage needs an integer n >= 1 samples, not {n!r}")
    n, schemes = int(n), scheme if isinstance(scheme, tuple) else (scheme,)
    shape = np.broadcast(*vars(params).values(), *vars(config).values(), stream).shape
    points = list(zip(_rows(params, shape), map(thresholds, _rows(config, shape))))
    streams = np.broadcast_to(stream, shape).ravel().tolist()

    def block(key, buf):
        (p, th), rng = key
        g1 = buf[0]  # drawn whole: the stream then holds g2 next, part by part
        rng.standard_exponential(out=g1)
        g1 *= p.eps1
        width = min(g1.size, _SLICE)
        scratch, flags = np.empty((3, width)), np.empty((2, width), dtype=bool)
        hits = np.zeros((len(schemes), 3), dtype=np.int64)
        with np.errstate(over="ignore"):  # an SNR of inf compares as its limit does
            for s in _slices(g1.size):
                (g2, snr, tmp), (sec, conn) = scratch[:, :g1[s].size], flags[:, :g1[s].size]
                rng.standard_exponential(out=g2)
                g2 *= p.eps2
                np.greater(_relay_sinr(p, g1[s], g2, snr, tmp), th.gamma_s, out=sec)
                hits[:, 1] += np.count_nonzero(sec)
                for k, scheme in enumerate(schemes):
                    _conn_event(scheme, p, th, g1[s], g2, snr, tmp, conn)
                    hits[k, 0] += np.count_nonzero(conn)
                    hits[k, 2] += np.count_nonzero(np.logical_or(conn, sec, out=conn))
        return hits

    hits = np.zeros((0, len(schemes), 3), dtype=np.int64)
    if points:  # an empty sweep starts no pool
        results = _map_blocks(block, n, lambda row, index: (
            points[row], rng_stream(seed, (streams[row], index))), 1, len(points))
        hits = np.reshape(results, (len(points), -1, len(schemes), 3)).sum(axis=1)
    hits = np.moveaxis(hits.reshape(shape + (len(schemes), 3)), (-2, -1), (0, 1))
    out = tuple(tuple(MCEstimate.from_counts(h, n) for h in events) for events in hits)
    return out if isinstance(scheme, tuple) else out[0]
