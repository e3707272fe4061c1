"""Outage probabilities without transmitter CSI: closed forms, their
high-SNR approximations, the connection/secrecy tradeoff relation, the
total-outage bound pair, and Monte Carlo estimators validating all of it.

Zero-rate conventions: rd = 0 makes every closed-form connection outage 0
(continuity of the thresholds), and rd = rs makes the secrecy outage 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (RateConfig, SystemParams, Thresholds, _gamma, _map_blocks, _slices,
                      rng_stream, sample_gains, thresholds)
from .numerics import Interval, bessel_k1
from .rates import Scheme, _e2e_snr, _relay_sinr

_TINY = np.finfo(float).tiny  # the smallest normal double


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
        lower, upper = np.maximum(p_conn, p_secrecy), np.minimum(1.0, p_conn + p_secrecy)
        if lower.ndim == 0:
            lower, upper = float(lower), float(upper)
        return cls(p_conn=p_conn, p_secrecy=p_secrecy, p_total_lower=lower, p_total_upper=upper)


def p_conn_cutset_lower(params: SystemParams, rd: float):
    """Connection-outage lower bound from the cut-set capacity:
    1 - exp(-(1/eps1 + 1/eps2) * gamma_o * sigma2 / ps), and 0 at rd = 0."""
    gamma_o = _gamma(np.asarray(rd, dtype=float))
    expo = (1.0 / params.eps1 + 1.0 / params.eps2) * gamma_o * params.sigma2 / params.ps
    out = np.where(gamma_o > 0, -np.expm1(-expo), 0.0)  # an infinite 1/eps times 0 is nan
    return float(out) if np.ndim(out) == 0 else out


def p_secrecy_threshold(params: SystemParams, gamma_s, asymptotic: bool = False):
    """Secrecy outage at a given SNR threshold gamma_s (scheme-independent).

    Exact: ps*eps1/(ps*eps1 + pd*eps2*gamma_s) * exp(-gamma_s*sigma2/(ps*eps1)).
    Asymptotic drops the exponential to first order (high ps).
    """
    gamma_s = np.asarray(gamma_s, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        ps_eps1 = params.ps * params.eps1
        pref = ps_eps1 / (ps_eps1 + params.pd * params.eps2 * gamma_s)
        u = gamma_s * params.sigma2 / ps_eps1
        overflow = np.isinf(ps_eps1)
        if np.any(overflow):
            # pref reads inf/inf there; ps and eps1 both exceed 1, so dividing
            # by each in turn stays in range
            ratio = params.pd / params.ps * (params.eps2 / params.eps1) * gamma_s
            pref = np.where(overflow, 1.0 / (1.0 + ratio), pref)
            u = np.where(overflow, gamma_s * params.sigma2 / params.ps / params.eps1, u)
    out = pref * (1.0 - u) if asymptotic else pref * np.exp(-u)
    return float(out) if np.ndim(out) == 0 else out


def p_secrecy(params: SystemParams, config: RateConfig, asymptotic: bool = False):
    """Secrecy outage probability for a rate pair (1 when rd = rs)."""
    return p_secrecy_threshold(params, _gamma(config.rd - config.rs), asymptotic)


def _k1_outage(live, a, x, asymptotic: bool):
    """The MF and AF connection outage 1 - exp(-a)*x*K1(x), or its first
    order a, where ``live``; 0 elsewhere (the zero-rate convention).  Where
    exp(-a) is 0 the outage is 1, as x*K1(x) <= 1: K1 gets a stand-in x there,
    for x may have overflowed to inf.  Below the smallest normal x, x*K1(x)
    is its limit 1 to double precision (K1 itself may overflow there), so it
    is taken as 1; a nan ``a`` keeps its x, and K1 refuses."""
    out = a
    if not asymptotic:
        decay = np.exp(-a)
        at_limit = (x < _TINY) & ~np.isnan(decay)
        x = np.where(live & (decay != 0) & ~at_limit, x, 1.0)
        out = 1.0 - np.where(at_limit, decay, decay * x * bessel_k1(x))
    out = np.where(live, out, 0.0)
    return float(out) if np.ndim(out) == 0 else out


def _eps_product(params: SystemParams):
    """(p, r) with sqrt(eps1*eps2) = sqrt(p)*r: p = eps1*eps2 and r = 1 where
    that product is a normal double, else p = 1 and r = sqrt(eps1)*sqrt(eps2),
    which cannot under- or overflow where the product does."""
    with np.errstate(over="ignore"):
        prod = params.eps1 * params.eps2
    normal = (prod >= _TINY) & np.isfinite(prod)
    return (np.where(normal, prod, 1.0),
            np.where(normal, 1.0, np.sqrt(params.eps1) * np.sqrt(params.eps2)))


def p_conn_mf(params: SystemParams, rd: float, asymptotic: bool = False):
    """Connection outage of the modulo-forward achievable rate (independent
    of pd).  Exact form uses gamma_1 = gamma_o + 1/2 and K1; the
    asymptotic variant is (1/eps1 + 1/eps2) * gamma_1 * sigma2 / ps.
    Returns 0 at rd = 0 by the zero-rate convention.
    """
    rd = np.asarray(rd, dtype=float)
    gamma_1 = _gamma(rd) + 0.5
    a = (1.0 / params.eps1 + 1.0 / params.eps2) * gamma_1 * params.sigma2 / params.ps
    prod, root = _eps_product(params)
    x = 2.0 * gamma_1 * params.sigma2 / (params.ps * np.sqrt(prod) * root)
    return _k1_outage(rd > 0, a, x, asymptotic)


def p_conn_af(params: SystemParams, rd: float, asymptotic: bool = False):
    """Connection outage of amplify-and-forward (depends on pd through the
    power wasted on forwarding the jamming signal).  Returns 0 at rd = 0,
    where the closed form's 1/gamma_o is singular.
    """
    gamma_o = _gamma(np.asarray(rd, dtype=float))
    safe = np.where(gamma_o > 0, gamma_o, 1.0)
    ratio = (params.ps + params.pd) / params.ps
    a = (safe * params.sigma2 / params.ps) * (ratio / params.eps1 + 1.0 / params.eps2)
    prod, root = _eps_product(params)
    x = (2.0 * safe * params.sigma2 / params.ps) * (np.sqrt((ratio + 1.0 / safe) / prod) / root)
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
    pl = p_secrecy(params, config, asymptotic=not exact)
    po = p_conn_mf(params, config.rd, asymptotic=not exact)
    lhs = ((params.ps * params.eps1 + params.pd * params.eps2 * th.gamma_s)
           / (params.ps * params.eps1)) * pl
    lhs += (th.gamma_s * params.eps2 / (th.gamma_1 * (params.eps1 + params.eps2))) * po
    out = lhs - 1.0
    return float(out) if np.ndim(out) == 0 else out


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
    n = int(n)
    if n < 1:
        raise ValueError("mc_outage needs n >= 1 samples")
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
