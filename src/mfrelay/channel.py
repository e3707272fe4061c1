"""Parameter records, derived quantities, and Rayleigh-fading sampling.

The model is real-valued per dimension: amplitudes are h = ±sqrt(g) with
the gains g exponentially distributed (mean eps per hop), which is the
per-dimension view of Rayleigh fading.  All rates downstream carry the
matching 1/2 log2 prefactor.
"""

from __future__ import annotations

import collections
import numbers
import os
import sys
import threading
from concurrent import futures
from dataclasses import dataclass

import numpy as np

_BLOCK = 1 << 17  # fixed block size keeps merged results worker-count independent
_SLICE = 1 << 15  # elementwise work runs on slices of a block short enough to stay in cache
# one thread per CPU this process may run on; tests patch it
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_TINY = np.finfo(float).tiny  # the smallest normal double


def _normal(v):
    """Where v is a normal double: not 0, subnormal, infinite or nan."""
    return (v >= _TINY) & (v < np.inf)


def _all_finite(*vals) -> bool:
    """Whether each value is a finite real number (``_is_number``) or an
    int or float numpy array or scalar of finite entries; a str, a bool or
    a list is not."""
    return all(np.all(np.isfinite(v)) if isinstance(v, (np.ndarray, np.generic))
               and v.dtype.kind in "iuf" else _is_number(v) for v in vals)


def _is_number(value, integral: bool = False) -> bool:
    """The one rule for a number set by a caller or a config: a real scalar
    that a double holds finitely, and not a bool (an int to Python); where
    ``integral``, a count or seed, also a whole one (1e6 counts).  A numpy
    float is compared in double precision, not the double maximum in its own."""
    if isinstance(value, np.floating):
        value = float(value)
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max and (not integral or value == int(value)))


@dataclass(frozen=True)
class SystemParams:
    """Transmit powers, noise variance, and fading means (all linear).

    Fields broadcast: scalars for a single operating point, arrays for
    vectorized parameter sweeps.
    """

    ps: float
    pd: float
    sigma2: float
    eps1: float = 1.0
    eps2: float = 1.0

    def __post_init__(self):
        if not _all_finite(self.ps, self.pd, self.sigma2, self.eps1, self.eps2):
            raise ValueError("system parameters must be finite")
        if np.any(np.asarray(self.ps) <= 0) or np.any(np.asarray(self.sigma2) <= 0):
            raise ValueError("ps and sigma2 must be positive")
        if np.any(np.asarray(self.eps1) <= 0) or np.any(np.asarray(self.eps2) <= 0):
            raise ValueError("fading means eps1, eps2 must be positive")
        if np.any(np.asarray(self.pd) < 0):
            raise ValueError("pd must be nonnegative")

    @property
    def snr(self):
        return self.ps / self.sigma2

    @property
    def inr(self):
        return self.pd / self.sigma2


def derived_ratios(params: SystemParams):
    """(snr, inr, rho) with rho = log(inr)/log(snr); needs snr > 1.

    Where snr or inr is not a finite normal double (ps/sigma2 or pd/sigma2
    left the double range), rho is (ln pd - ln sigma2)/(ln ps - ln sigma2)
    instead, from logs that stay in range; pd = 0 gives -inf, without a
    warning.
    """
    # snr or inr may overflow, log(0) is -inf, and an inf/inf rho is redone
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        snr, inr = params.snr, params.inr
        if np.any(np.asarray(snr) <= 1.0):
            raise ValueError("rho is undefined for snr <= 1 (0 dB)")
        rho = np.log(inr) / np.log(snr)
        off = ~(_normal(snr) & _normal(inr))
        if np.any(off):
            s2 = np.log(params.sigma2)
            # [()] keeps a scalar's rho a numpy scalar, as the direct form gives it
            rho = np.where(off, (np.log(params.pd) - s2) / (np.log(params.ps) - s2), rho)[()]
    return snr, inr, rho


def _pd_at_rho(ps, sigma2, rho):
    """The pd whose rho derived_ratios returns: snr^rho * sigma2, or where
    that reads inf, exp(rho*ln ps + (1 - rho)*ln sigma2), which stays finite
    where only snr overflows.  A ValueError names rho where pd itself
    overflows a double; a nan pd (sigma2 = 0) is left to SystemParams."""
    # float_power rounds as the scalar pow does; np.power's SIMD loop may not
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        pd = np.float_power(ps / sigma2, rho) * sigma2
        pd = np.where(np.isinf(pd), np.exp(rho * np.log(ps) + (1.0 - rho) * np.log(sigma2)), pd)
    if np.any(np.isinf(pd)):
        raise ValueError("rho is too large: pd = snr^rho * sigma2 overflows a double")
    return pd


@dataclass(frozen=True)
class RateConfig:
    """Total rate rd and confidential rate rs, bits per real dimension."""

    rd: float
    rs: float

    def __post_init__(self):
        if not _all_finite(self.rd, self.rs):
            raise ValueError("rates must be finite")
        if np.any(np.asarray(self.rd) < 0) or np.any(np.asarray(self.rs) < 0):
            raise ValueError("rates must be nonnegative")
        if np.any(np.asarray(self.rs) > np.asarray(self.rd)):
            raise ValueError("confidential rate rs cannot exceed rd")


@dataclass(frozen=True)
class Thresholds:
    """SNR thresholds implied by a rate pair.

    gamma_o = 2^(2 rd) - 1 (connection), gamma_1 = gamma_o + 1/2 (the
    threshold of MF's 1/2-offset achievable rate), and
    gamma_s = 2^(2 (rd - rs)) - 1 (secrecy).
    """

    gamma_o: float
    gamma_1: float
    gamma_s: float


def _gamma(rate):
    """2^(2 rate) - 1, the SNR threshold of a rate: the one threshold map,
    and so the one gate for a rate from a caller.  A ValueError names rd
    where the rate is negative or nan, which has no threshold, and where
    the power would overflow a double (rate >= 512)."""
    if not np.all(np.asarray(rate) >= 0.0):
        raise ValueError("rd must be a nonnegative number of bits, not negative or nan")
    if np.any(np.asarray(rate) >= 512.0):
        raise ValueError("rd must be below 512 bits: 2^(2 rd) overflows a double")
    # float_power rounds as the scalar pow does, so a point gets the same bits
    # alone or inside an array; np.power's SIMD loop may differ in the last bit
    return np.float_power(2.0, 2.0 * rate) - 1.0


def thresholds(config: RateConfig) -> Thresholds:
    gamma_o = _gamma(config.rd)
    return Thresholds(gamma_o=gamma_o, gamma_1=gamma_o + 0.5,
                      gamma_s=_gamma(config.rd - config.rs))


@dataclass(frozen=True)
class ChannelRealization:
    """Instantaneous gains g_i = h_i^2 and signed amplitudes h_i.

    Fields may be scalars or equally-shaped arrays (a batch of draws).
    """

    g1: float
    g2: float
    h1: float
    h2: float

    def __post_init__(self):
        if not _all_finite(self.g1, self.g2, self.h1, self.h2):
            raise ValueError("channel realization must be finite")
        if np.any(np.asarray(self.g1) < 0) or np.any(np.asarray(self.g2) < 0):
            raise ValueError("gains must be nonnegative")
        for g, h in ((self.g1, self.h1), (self.g2, self.h2)):
            if not np.allclose(np.asarray(h) ** 2, g, rtol=1e-9, atol=1e-12):
                raise ValueError("amplitude/gain mismatch: need g = h^2")

    @classmethod
    def from_gains(cls, g1, g2, sign1=1.0, sign2=1.0):
        g1 = np.asarray(g1, dtype=float) if np.ndim(g1) else float(g1)
        g2 = np.asarray(g2, dtype=float) if np.ndim(g2) else float(g2)
        return cls(g1=g1, g2=g2, h1=sign1 * np.sqrt(g1), h2=sign2 * np.sqrt(g2))


def rng_stream(seed: int, index=None) -> np.random.Generator:
    """Deterministic counter-based generator (Philox).

    ``index`` (an int or tuple of ints) selects an independent substream;
    disjoint indices give independent streams for the same seed, which is
    how Monte Carlo work is partitioned reproducibly.  The seed and each
    index entry must be whole numbers >= 0; 1.0 draws what 1 draws.
    """
    indices = () if index is None else (index,) if np.ndim(index) == 0 else tuple(index)
    for name, value in (("seed", seed), *(("index entry", i) for i in indices)):
        if not _is_number(value, integral=True) or value < 0:
            raise ValueError(f"rng_stream {name} must be a whole number >= 0, not {value!r}")
    # numpy takes the 128-bit Philox key from SeedSequence([seed, *indices])
    return np.random.Generator(np.random.Philox([int(seed), *map(int, indices)]))


def _blocks(n: int):
    """(index, size) of each substream block of n draws, in index order."""
    for index, start in enumerate(range(0, n, _BLOCK)):
        yield index, min(_BLOCK, n - start)


def _slices(m: int, size: int = _SLICE):
    """Slices of at most ``size`` that cover range(m) in order."""
    return (slice(start, start + size) for start in range(0, m, size))


def _map_blocks(fn, n: int, streams, height: int, rows: int = 1) -> list:
    """[fn(streams(row, index), buf) for each row in range(rows) and each
    (index, size) in _blocks(n)], in (row, index) order, where buf is a
    (height, size) view of a float buffer that belongs to the thread
    running the block and is made once per call.

    Every row's blocks run on one pool of min(_WORKERS, blocks) threads,
    each block under the caller's np.errstate; ``streams`` is called in the
    calling thread.  Callers reduce each row's results in index order, so
    the output does not depend on the worker count.  A block's exception is
    raised here once the submitted blocks, 2 per thread at most, have run.
    Needs n >= 1.
    """
    local = threading.local()
    width = min(n, _BLOCK)
    workers = min(_WORKERS, rows * -(-n // _BLOCK))
    err = np.geterr()

    def run(stream, size):
        if not hasattr(local, "buf"):
            local.buf = np.empty((height, width))
        with np.errstate(**err):
            return fn(stream, local.buf[:, :size])

    results, pending = [], collections.deque()
    # futures imports its thread module here, on first use, not with mfrelay
    with futures.ThreadPoolExecutor(workers) as pool:
        for row in range(rows):
            for index, size in _blocks(n):
                if len(pending) == 2 * workers:  # bounds the streams held at once
                    results.append(pending.popleft().result())
                pending.append(pool.submit(run, streams(row, index), size))
        results.extend(future.result() for future in pending)
    return results


def sample_realization(params: SystemParams, rng: np.random.Generator, size=None) -> ChannelRealization:
    """Draw gains exponential(eps_i) and signs as fair coin flips.

    With ``size=None`` returns a scalar realization; otherwise array
    fields of that shape.  Deterministic given the generator state.
    """
    g1, g2 = sample_gains(params, rng, size)
    s1 = 2.0 * rng.integers(0, 2, size) - 1.0
    s2 = 2.0 * rng.integers(0, 2, size) - 1.0
    return ChannelRealization.from_gains(g1, g2, s1, s2)


def sample_gains(params: SystemParams, rng: np.random.Generator, size, out=None):
    """Gains-only batch draw (signs are irrelevant to outage events).

    With ``out``, a (2, size) float array, the gains are drawn into its
    rows and returned as them, bitwise equal to the fresh draws.
    """
    if out is None:
        return rng.exponential(params.eps1, size), rng.exponential(params.eps2, size)
    for row, eps in zip(out, (params.eps1, params.eps2)):
        rng.standard_exponential(out=row)
        row *= eps
    return out[0], out[1]
