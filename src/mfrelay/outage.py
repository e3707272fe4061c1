"""Outage probabilities without transmitter CSI: closed forms, their
high-SNR approximations, the connection/secrecy tradeoff relation, the
total-outage bound pair, and Monte Carlo estimators validating all of it.

Zero-rate conventions: rd = 0 makes every closed-form connection outage 0
(continuity of the thresholds), and rd = rs makes the secrecy outage 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (RateConfig, SystemParams, Thresholds, _gamma, _is_number, _map_blocks,
                      _slices, rng_stream, sample_gains, thresholds)
from .numerics import _K1_SPLIT, _TINY, Interval, _k1_map, _scalar
from .rates import Scheme, _e2e_snr, _relay_sinr

def _normal(v):
    """Where v is a normal double: not 0, subnormal, infinite or nan."""
    return (v >= _TINY) & (v < np.inf)


@dataclass(frozen=True)
class MCEstimate:
    """Binomial probability estimate with its sampling error."""

    p_hat: float
    n: int
    std_err: float
    ci95: Interval

    @classmethod
    def from_counts(cls, hits: int, n: int) -> "MCEstimate":
        if n <= 0:
            raise ValueError("sample count must be positive")
        p = hits / n
        se = float(np.sqrt(p * (1.0 - p) / n))
        return cls(p_hat=p, n=n, std_err=se,
                   ci95=Interval(max(0.0, p - 1.96 * se), min(1.0, p + 1.96 * se)))


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
    1 - exp(-(1/eps1 + 1/eps2) * gamma_o * sigma2 / ps), and 0 at rd = 0."""
    gamma_o = _gamma(np.asarray(rd, dtype=float))
    expo = (1.0 / params.eps1 + 1.0 / params.eps2) * gamma_o * params.sigma2 / params.ps
    # an infinite 1/eps times 0 is nan
    return _scalar(np.where(gamma_o > 0, -np.expm1(-expo), 0.0))


def _secrecy_terms(params: SystemParams, gamma_s):
    """(pref, u) of the secrecy outage pref * exp(-u) at threshold gamma_s:
    the prefactor pref = ps*eps1/(ps*eps1 + pd*eps2*gamma_s) and the
    exponent u = gamma_s*sigma2/(ps*eps1).

    Where ps*eps1 is a normal double and that sum is finite, both are these
    quotients (u too where gamma_s*sigma2 is finite).  Elsewhere they come
    from sums of logs, which can neither overflow nor be nan:
    pref = 1/(1 + e^L), L = ln(pd*eps2*gamma_s/(ps*eps1)), and
    u = e^(ln(gamma_s*sigma2) - ln(ps*eps1)).
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ps_eps1 = params.ps * params.eps1
        jam = params.pd * params.eps2 * gamma_s
        spread = gamma_s * params.sigma2
        pref = ps_eps1 / (ps_eps1 + jam)
        u = spread / ps_eps1
        direct = _normal(ps_eps1) & _normal(ps_eps1 + jam)
        u_direct = direct & (spread < np.inf)
        if not np.all(u_direct):
            log_ps_eps1 = np.log(params.ps) + np.log(params.eps1)
            log_gamma_s = np.log(gamma_s)
            log_ratio = np.log(params.pd) + np.log(params.eps2) + log_gamma_s - log_ps_eps1
            pref = np.where(direct, pref, np.exp(-np.logaddexp(0.0, log_ratio)))
            u = np.where(u_direct, u, np.exp(log_gamma_s + np.log(params.sigma2) - log_ps_eps1))
    return pref, u


def p_secrecy_threshold(params: SystemParams, gamma_s, asymptotic: bool = False):
    """Secrecy outage at a given SNR threshold gamma_s (scheme-independent).

    Exact: ps*eps1/(ps*eps1 + pd*eps2*gamma_s) * exp(-gamma_s*sigma2/(ps*eps1)).
    Asymptotic drops the exponential to first order (high ps).
    """
    pref, u = _secrecy_terms(params, np.asarray(gamma_s, dtype=float))
    return _scalar(pref * (1.0 - u) if asymptotic else pref * np.exp(-u))


def p_secrecy(params: SystemParams, config: RateConfig, asymptotic: bool = False):
    """Secrecy outage probability for a rate pair (1 when rd = rs)."""
    return p_secrecy_threshold(params, _gamma(config.rd - config.rs), asymptotic)


_DIRECT = 2.0 ** 150  # the direct a and x of inputs in [1/_DIRECT, _DIRECT] stay normal
# any x past 746 gives exp(-a - x) = 0; an x of inf would make x*(e^x*K1(x)) times it nan
_X_CAP = 1e300


def _k1_outage(live, a, x, asymptotic: bool):
    """The MF and AF connection outage 1 - exp(-a)*x*K1(x), or its first
    order a, where ``live``; 0 elsewhere (the zero-rate convention).

    The exact form has no cancellation: where x <= 2 it is
    -expm1(-a) + exp(-a)*(1 - x*K1(x)), and where x > 2 it is
    1 - x*(e^x*K1(x))*exp(-a - x), so exp(-a) and K1 cannot underflow
    apart.  An x below the smallest normal double or above _X_CAP (0 or
    inf past the double range) is taken at that bound, where x*K1(x)
    already is its limit, 1 or 0, to double precision.
    """
    out = a
    if not asymptotic:
        out = _k1_map(_outage_terms, np.clip(np.where(live, x, 1.0), _TINY, _X_CAP), a)
    return _scalar(np.where(live, out, 0.0))


def _outage_terms(x, xk1, omx, ek1, a):
    """_k1_outage's exact form on one slice, from the K1 family of x."""
    return np.where(x <= _K1_SPLIT, -np.expm1(-a) + np.exp(-a) * omx,
                    1.0 - x * ek1 * np.exp(-a - x))


def _k1_arguments(params: SystemParams, gamma, a, x, af: bool):
    """(a, x) of the MF or AF connection outage 1 - exp(-a)*x*K1(x).

    With q = gamma*sigma2/ps, a = q*(r/eps1 + 1/eps2) and
    x = 2q*sqrt((r + s)/(eps1*eps2)), where MF has r = 1 and s = 0, and AF
    r = (ps + pd)/ps and s = 1/gamma.  ``a`` and ``x`` are the scheme's
    direct values.  They are kept where ps, sigma2, eps1, eps2 and gamma
    lie in [2^-150, 2^150] (and, for AF, pd <= 2^150), for then no product
    or quotient in them leaves the normal range.  Elsewhere both come from
    sums of logs, which can neither overflow nor be nan.
    """
    direct = params.pd <= _DIRECT if af else True
    for v in (params.ps, params.sigma2, params.eps1, params.eps2, gamma):
        direct = direct & (v >= 1.0 / _DIRECT) & (v <= _DIRECT)
    if np.all(direct):
        return a, x
    with np.errstate(divide="ignore", over="ignore"):  # log(0) of pd = 0; exp past the range
        log_ps, log_e1, log_e2 = np.log(params.ps), np.log(params.eps1), np.log(params.eps2)
        log_q = np.log(gamma) + np.log(params.sigma2) - log_ps
        log_r = np.logaddexp(log_ps, np.log(params.pd)) - log_ps if af else 0.0
        log_r_s = np.logaddexp(log_r, -np.log(gamma)) if af else 0.0
        return (np.where(direct, a, np.exp(log_q + np.logaddexp(log_r - log_e1, -log_e2))),
                np.where(direct, x, 2.0 * np.exp(log_q + (log_r_s - log_e1 - log_e2) / 2)))


def p_conn_mf(params: SystemParams, rd: float, asymptotic: bool = False):
    """Connection outage of the modulo-forward achievable rate (independent
    of pd).  Exact form uses gamma_1 = gamma_o + 1/2 and K1; the
    asymptotic variant is (1/eps1 + 1/eps2) * gamma_1 * sigma2 / ps.
    Returns 0 at rd = 0 by the zero-rate convention.
    """
    rd = np.asarray(rd, dtype=float)
    gamma_1 = _gamma(rd) + 0.5
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a = (1.0 / params.eps1 + 1.0 / params.eps2) * gamma_1 * params.sigma2 / params.ps
        x = 2.0 * gamma_1 * params.sigma2 / (params.ps * np.sqrt(params.eps1 * params.eps2))
    a, x = _k1_arguments(params, gamma_1, a, x, af=False)
    return _k1_outage(rd > 0, a, x, asymptotic)


def p_conn_af(params: SystemParams, rd: float, asymptotic: bool = False):
    """Connection outage of amplify-and-forward (depends on pd through the
    power wasted on forwarding the jamming signal).  Returns 0 at rd = 0,
    where the closed form's 1/gamma_o is singular.
    """
    gamma_o = _gamma(np.asarray(rd, dtype=float))
    safe = np.where(gamma_o > 0, gamma_o, 1.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratio = (params.ps + params.pd) / params.ps
        a = (safe * params.sigma2 / params.ps) * (ratio / params.eps1 + 1.0 / params.eps2)
        x = (2.0 * safe * params.sigma2 / params.ps) * np.sqrt((ratio + 1.0 / safe)
                                                               / (params.eps1 * params.eps2))
    a, x = _k1_arguments(params, safe, a, x, af=True)
    return _k1_outage(gamma_o > 0, a, x, asymptotic)


def outage_probs(params: SystemParams, config: RateConfig) -> OutageProbs:
    """MF connection outage and secrecy outage with the total-outage
    bound interval; broadcasts like the closed forms it combines."""
    return OutageProbs.from_components(p_conn_mf(params, config.rd), p_secrecy(params, config))


def tradeoff_residual(params: SystemParams, config: RateConfig, exact: bool = True):
    """Left side minus 1 of the high-SNR linear relation tying the secrecy
    and connection outage probabilities together.

    With exact=True the relation is fed the exact closed forms, so the
    residual measures how fast the relation becomes tight (O(1/snr^2) up
    to a log factor).  With exact=False the first-order asymptotic forms
    are substituted instead and the residual vanishes identically.
    Broadcasts; a scalar input gives a Python float.
    """
    th = thresholds(config)
    # pl / pref, with pl the secrecy outage pref * exp(-u) (or pref * (1 - u))
    _, u = _secrecy_terms(params, th.gamma_s)
    first = np.exp(-u) if exact else 1.0 - u
    po = p_conn_mf(params, config.rd, asymptotic=not exact)
    weight = (th.gamma_s / th.gamma_1) * (params.eps2 / (params.eps1 + params.eps2))
    return _scalar(first + weight * po - 1.0)


def _conn_event(scheme: Scheme, params: SystemParams, th: Thresholds, g1, g2):
    """Connection outage: the scheme's rate below rd, i.e. its end-to-end
    SNR below gamma_1 (MF) or gamma_o (AF, cut-set)."""
    return _e2e_snr(scheme, params, g1, g2) < (th.gamma_1 if scheme is Scheme.MF else th.gamma_o)


def _mc_counts(params: SystemParams, config: RateConfig, schemes, n: int, seed: int,
               stream: int = 0):
    """Hit counts [(connection, secrecy, joint) per scheme] over n draws.

    Each block is drawn once and every scheme's connection event is
    evaluated on it, so the schemes are compared on the same fading.
    """
    if not _is_number(n, integral=True) or n < 1:
        raise ValueError(f"mc_outage needs an integer n >= 1 samples, not {n!r}")
    n = int(n)
    th = thresholds(config)

    def block(rng, buf):
        g1, g2 = sample_gains(params, rng, buf.shape[1], out=buf)
        hits = np.zeros((len(schemes), 3), dtype=np.int64)
        with np.errstate(over="ignore"):  # an SNR of inf compares as its limit does
            for s in _slices(g1.size):
                sec = _relay_sinr(params, g1[s], g2[s]) > th.gamma_s
                hits[:, 1] += np.count_nonzero(sec)
                for k, scheme in enumerate(schemes):
                    conn = _conn_event(scheme, params, th, g1[s], g2[s])
                    hits[k, 0] += np.count_nonzero(conn)
                    hits[k, 2] += np.count_nonzero(conn | sec)
        return hits

    hits = sum(_map_blocks(block, n, lambda index: rng_stream(seed, (stream, index)), 2))
    return [tuple(map(int, row)) for row in hits]


def mc_outage(params: SystemParams, config: RateConfig, scheme: Scheme, n: int, seed: int,
              stream: int = 0):
    """Monte Carlo (connection, secrecy, joint) outage estimates.

    Draws are partitioned into fixed-size Philox substream blocks indexed
    from the seed, so the merged counts are bitwise reproducible and do
    not depend on how blocks would be farmed out to workers.  The joint
    estimate reuses each realization for both events (they are dependent
    through the gains).  ``stream`` namespaces independent runs under one
    seed (e.g. one stream per sweep row).
    """
    (counts,) = _mc_counts(params, config, (scheme,), n, seed, stream)
    return tuple(MCEstimate.from_counts(hits, int(n)) for hits in counts)
