"""Outage probabilities without transmitter CSI: closed forms, their
high-SNR approximations, the connection/secrecy tradeoff relation, the
total-outage bound pair, and Monte Carlo estimators validating all of it.

Zero-rate conventions: rd = 0 makes every closed-form connection outage 0
(continuity of the thresholds), and rd = rs makes the secrecy outage 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (RateConfig, SystemParams, Thresholds, _exp2_2rd, rng_stream,
                      sample_gains, thresholds)
from .numerics import Interval, bessel_k1
from .rates import Scheme, _e2e_snr, _relay_sinr

_MC_BLOCK = 1 << 17  # fixed block size keeps merged estimates worker-count independent


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
    def from_components(cls, p_conn: float, p_secrecy: float) -> "OutageProbs":
        for p in (p_conn, p_secrecy):
            if not (0.0 <= p <= 1.0):
                raise ValueError("probabilities must lie in [0, 1]")
        return cls(p_conn=p_conn, p_secrecy=p_secrecy,
                   p_total_lower=max(p_conn, p_secrecy),
                   p_total_upper=min(1.0, p_conn + p_secrecy))


def p_conn_cutset_lower(params: SystemParams, rd: float):
    """Connection-outage lower bound from the cut-set capacity:
    1 - exp(-(1/eps1 + 1/eps2) * gamma_o * sigma2 / ps)."""
    gamma_o = _exp2_2rd(np.asarray(rd, dtype=float)) - 1.0
    expo = (1.0 / params.eps1 + 1.0 / params.eps2) * gamma_o * params.sigma2 / params.ps
    out = -np.expm1(-expo)
    return float(out) if np.ndim(out) == 0 else out


def p_secrecy_threshold(params: SystemParams, gamma_s, asymptotic: bool = False):
    """Secrecy outage at a given SNR threshold gamma_s (scheme-independent).

    Exact: ps*eps1/(ps*eps1 + pd*eps2*gamma_s) * exp(-gamma_s*sigma2/(ps*eps1)).
    Asymptotic drops the exponential to first order (high ps).
    """
    gamma_s = np.asarray(gamma_s, dtype=float)
    pref = params.ps * params.eps1 / (params.ps * params.eps1 + params.pd * params.eps2 * gamma_s)
    u = gamma_s * params.sigma2 / (params.ps * params.eps1)
    out = pref * (1.0 - u) if asymptotic else pref * np.exp(-u)
    return float(out) if np.ndim(out) == 0 else out


def p_secrecy(params: SystemParams, config: RateConfig, asymptotic: bool = False):
    """Secrecy outage probability for a rate pair (1 when rd = rs)."""
    return p_secrecy_threshold(params, thresholds(config).gamma_s, asymptotic)


def _k1_outage(live, a, x, asymptotic: bool):
    """The MF and AF connection outage 1 - exp(-a)*x*K1(x), or its first
    order a, where ``live``; 0 elsewhere (the zero-rate convention)."""
    out = np.where(live, a if asymptotic else 1.0 - np.exp(-a) * x * bessel_k1(x), 0.0)
    return float(out) if np.ndim(out) == 0 else out


def p_conn_mf(params: SystemParams, rd: float, asymptotic: bool = False):
    """Connection outage of the modulo-forward achievable rate (independent
    of pd).  Exact form uses gamma_1 = 2^(2 rd) - 1/2 and K1; the
    asymptotic variant is (1/eps1 + 1/eps2) * gamma_1 * sigma2 / ps.
    Returns 0 at rd = 0 by the zero-rate convention.
    """
    rd = np.asarray(rd, dtype=float)
    gamma_1 = _exp2_2rd(rd) - 0.5
    a = (1.0 / params.eps1 + 1.0 / params.eps2) * gamma_1 * params.sigma2 / params.ps
    x = 2.0 * gamma_1 * params.sigma2 / (params.ps * np.sqrt(params.eps1 * params.eps2))
    return _k1_outage(rd > 0, a, x, asymptotic)


def p_conn_af(params: SystemParams, rd: float, asymptotic: bool = False):
    """Connection outage of amplify-and-forward (depends on pd through the
    power wasted on forwarding the jamming signal).  Returns 0 at rd = 0,
    where the closed form's 1/gamma_o is singular.
    """
    rd = np.asarray(rd, dtype=float)
    gamma_o = _exp2_2rd(rd) - 1.0
    safe = np.where(gamma_o > 0, gamma_o, 1.0)
    ratio = (params.ps + params.pd) / params.ps
    a = (safe * params.sigma2 / params.ps) * (ratio / params.eps1 + 1.0 / params.eps2)
    x = (2.0 * safe * params.sigma2 / params.ps) * np.sqrt(
        (ratio + 1.0 / safe) / (params.eps1 * params.eps2))
    return _k1_outage(gamma_o > 0, a, x, asymptotic)


def outage_probs(params: SystemParams, config: RateConfig) -> OutageProbs:
    """MF connection outage and secrecy outage with the total-outage
    bound interval."""
    return OutageProbs.from_components(
        p_conn=float(p_conn_mf(params, config.rd)),
        p_secrecy=float(p_secrecy(params, config)),
    )


def tradeoff_residual(params: SystemParams, config: RateConfig, exact: bool = True) -> float:
    """Left side minus 1 of the high-SNR linear relation tying the secrecy
    and connection outage probabilities together.

    With exact=True the relation is fed the exact closed forms, so the
    residual measures how fast the relation becomes tight (O(1/snr^2) up
    to a log factor).  With exact=False the first-order asymptotic forms
    are substituted instead and the residual vanishes identically.
    """
    th = thresholds(config)
    if th.gamma_1 <= 0:
        raise ValueError("tradeoff relation needs gamma_1 > 0")
    pl = p_secrecy(params, config, asymptotic=not exact)
    po = p_conn_mf(params, config.rd, asymptotic=not exact)
    lhs = ((params.ps * params.eps1 + params.pd * params.eps2 * th.gamma_s)
           / (params.ps * params.eps1)) * pl
    lhs += (th.gamma_s * params.eps2 / (th.gamma_1 * (params.eps1 + params.eps2))) * po
    return float(lhs - 1.0)


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
    hits_conn = [0] * len(schemes)
    hits_joint = [0] * len(schemes)
    hits_sec = 0
    done = 0
    block = 0
    with np.errstate(over="ignore"):  # an SNR of inf compares as its limit does
        while done < n:
            m = min(_MC_BLOCK, n - done)
            g1, g2 = sample_gains(params, rng_stream(seed, (stream, block)), m)
            sec = _relay_sinr(params, g1, g2) > th.gamma_s
            hits_sec += int(np.count_nonzero(sec))
            for k, scheme in enumerate(schemes):
                conn = _conn_event(scheme, params, th, g1, g2)
                hits_conn[k] += int(np.count_nonzero(conn))
                hits_joint[k] += int(np.count_nonzero(conn | sec))
            done += m
            block += 1
    return [(c, hits_sec, j) for c, j in zip(hits_conn, hits_joint)]


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
