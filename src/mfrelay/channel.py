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


def _all_finite(*vals) -> bool:
    return all(np.all(np.isfinite(v)) for v in vals)


def _is_number(value, integral: bool = False) -> bool:
    """The one rule for a number set by a caller or a config: a real scalar
    that a double holds finitely, and not a bool (an int to Python); where
    ``integral``, a count or seed, also a whole one (1e6 counts)."""
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
    """(snr, inr, rho) with rho = log(inr)/log(snr); needs snr > 1."""
    snr = params.snr
    inr = params.inr
    if np.any(np.asarray(snr) <= 1.0):
        raise ValueError("rho is undefined for snr <= 1 (0 dB)")
    rho = np.log(inr) / np.log(snr)
    return snr, inr, rho


def _pd_at_rho(ps, sigma2, rho):  # the pd whose rho derived_ratios returns
    # float_power rounds as the scalar pow does; np.power's SIMD loop may not
    return np.float_power(ps / sigma2, rho) * sigma2


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
    """2^(2 rate) - 1, the SNR threshold of a rate; a ValueError names rd
    where the power would overflow a double (rate >= 512)."""
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
    how Monte Carlo work is partitioned reproducibly.
    """
    indices = () if index is None else (index,) if np.ndim(index) == 0 else index
    # numpy takes the 128-bit Philox key from SeedSequence([seed, *indices])
    return np.random.Generator(np.random.Philox([int(seed), *map(int, indices)]))


def _blocks(n: int):
    """(index, size) of each substream block of n draws, in index order."""
    for index, start in enumerate(range(0, n, _BLOCK)):
        yield index, min(_BLOCK, n - start)


def _slices(m: int, size: int = _SLICE):
    """Slices of at most ``size`` that cover range(m) in order."""
    return (slice(start, start + size) for start in range(0, m, size))


def _map_blocks(fn, n: int, streams, rows: int) -> list:
    """[fn(streams(index), buf) for each (index, size) in _blocks(n)], in
    index order, where buf is a (rows, size) view of a float buffer that
    belongs to the thread running the block and is made once per call.

    The blocks run on min(_WORKERS, blocks) threads, each block under the
    caller's np.errstate; ``streams`` is called in the calling thread.
    Callers reduce the results in index order, so the output does not
    depend on the worker count.  A block's exception is raised here once
    the submitted blocks, 2 per thread at most, have run.  Needs n >= 1.
    """
    local = threading.local()
    width = min(n, _BLOCK)
    workers = min(_WORKERS, -(-n // _BLOCK))
    err = np.geterr()

    def run(rng, size):
        if not hasattr(local, "buf"):
            local.buf = np.empty((rows, width))
        with np.errstate(**err):
            return fn(rng, local.buf[:, :size])

    results, pending = [], collections.deque()
    # futures imports its thread module here, on first use, not with mfrelay
    with futures.ThreadPoolExecutor(workers) as pool:
        for index, size in _blocks(n):
            if len(pending) == 2 * workers:  # bounds the streams held at once
                results.append(pending.popleft().result())
            pending.append(pool.submit(run, streams(index), size))
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
