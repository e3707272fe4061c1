"""Parameter records, derived quantities, and Rayleigh-fading sampling.

The model is real-valued per dimension: amplitudes are h = ±sqrt(g) with
the gains g exponentially distributed (mean eps per hop), which is the
per-dimension view of Rayleigh fading.  All rates downstream carry the
matching 1/2 log2 prefactor.
"""

from __future__ import annotations

import collections
import copy
import math
import numbers
import os
import sys
import threading
from dataclasses import dataclass, is_dataclass

import numpy as np

_BLOCK = 1 << 17  # fixed block size keeps merged results worker-count independent
# elementwise work, in the Monte Carlo and chain blocks and in the bulk closed
# forms, runs on slices short enough to stay in cache (2^15: CHANGES.md)
_SLICE = 1 << 15
# one thread per CPU this process may run on; tests patch it
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_TINY = np.finfo(float).tiny  # the smallest normal double


def _normal(v):
    """Where v is a normal double: not 0, subnormal, infinite or nan."""
    return (v >= _TINY) & (v < np.inf)


def _direct_or_logs(inside, direct, logs, *values):
    """The one "direct in the box, logs outside" rule of the forms that must
    hold over the whole double range: ``direct`` (an array or a tuple of
    arrays) where ``inside``, and elsewhere ``logs(*map(np.log, values))``,
    the same quantities built from the values' logs.

    ``logs`` runs only if some point is outside, under an errstate where
    ln 0 = -inf and an exp past the range give no warning.  Each output is
    merged with np.where(...)[()], so a scalar gives a numpy scalar.
    """
    if np.all(inside):
        return direct
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = logs(*map(np.log, values))
    if isinstance(direct, tuple):
        return tuple(np.where(inside, d, o)[()] for d, o in zip(direct, out))
    return np.where(inside, direct, out)[()]


def _scalar(out):
    """The one scalar-result rule: a 0-d result is a Python float, and an
    array stays an array."""
    return float(out) if np.ndim(out) == 0 else out


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

    Its box is where snr and inr are finite normal doubles.  Outside it
    (ps/sigma2 or pd/sigma2 left the double range), rho is
    (ln pd - ln sigma2)/(ln ps - ln sigma2), from logs that stay in range
    (``_direct_or_logs``); pd = 0 gives -inf, without a warning.
    """
    # snr or inr may overflow and log(0) is -inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        snr, inr = params.snr, params.inr
        if np.any(np.asarray(snr) <= 1.0):
            raise ValueError("rho is undefined for snr <= 1 (0 dB)")
        rho = np.log(inr) / np.log(snr)
    return snr, inr, _direct_or_logs(_normal(snr) & _normal(inr), rho, lambda lps, lpd, ls2:
                                     (lpd - ls2) / (lps - ls2), params.ps, params.pd, params.sigma2)


def _pd_at_rho(ps, sigma2, rho):
    """The pd whose rho derived_ratios returns: snr^rho * sigma2 in its box,
    where that is not inf, and outside it exp(rho*ln ps + (1 - rho)*ln sigma2)
    (``_direct_or_logs``), which stays finite where only snr overflows.  A
    ValueError names rho where pd itself overflows a double; a nan pd
    (sigma2 = 0) is left to SystemParams."""
    # float_power rounds as the scalar pow does; np.power's SIMD loop may not
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        pd = np.float_power(ps / sigma2, rho) * sigma2
    pd = _direct_or_logs(~np.isinf(pd), pd, lambda lps, ls2:
                         np.exp(rho * lps + (1.0 - rho) * ls2), ps, sigma2)
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
    gamma_s = 2^(2 (rd - rs)) - 1 (secrecy).  gamma_1 (the CSV column)
    reads 1/2 at rd = 0, where MF's clipped rate is never below rd and its
    connection event is empty: the outages read their thresholds from
    ``rates._threshold``, which is 0 there.
    """

    gamma_o: float
    gamma_1: float
    gamma_s: float


def _check_rate(rate):
    """The rate as a float array, through the one gate for a rate from a
    caller, a whole-array check run before any slice: a ValueError names rd
    where the rate is negative or nan, which has no threshold, and where
    2^(2 rate) would overflow a double (rate >= 512)."""
    rate = np.asarray(rate, dtype=float)
    if not np.all(rate >= 0.0):
        raise ValueError("rd must be a nonnegative number of bits, not negative or nan")
    if np.any(rate >= 512.0):
        raise ValueError("rd must be below 512 bits: 2^(2 rd) overflows a double")
    return rate


def _gamma(rate):
    """2^(2 rate) - 1, the SNR threshold of a rate that passed ``_check_rate``:
    the one threshold map, elementwise."""
    # float_power rounds as the scalar pow does, so a point gets the same bits
    # alone or inside an array; np.power's SIMD loop may differ in the last bit
    return np.float_power(2.0, 2.0 * rate) - 1.0


def thresholds(config: RateConfig) -> Thresholds:
    _check_rate(config.rd)
    _check_rate(config.rd - config.rs)
    gamma_o = _gamma(config.rd)
    return Thresholds(gamma_o=gamma_o, gamma_1=gamma_o + 0.5,
                      gamma_s=_gamma(config.rd - config.rs))


@dataclass(frozen=True)
class ChannelRealization:
    """Instantaneous gains g_i and amplitude signs sign_i (each +1 or -1);
    the amplitudes h_i = sign_i * sqrt(g_i) are formed on each read.

    Fields may be scalars or arrays that broadcast together (a batch of
    draws); the rates and outages read the gains alone.
    """

    g1: float
    g2: float
    sign1: float = 1.0
    sign2: float = 1.0

    def __post_init__(self):
        if not _all_finite(self.g1, self.g2, self.sign1, self.sign2):
            raise ValueError("channel realization must be finite")
        if np.any(np.asarray(self.g1) < 0) or np.any(np.asarray(self.g2) < 0):
            raise ValueError("gains must be nonnegative")
        if not all(np.all((s == 1.0) | (s == -1.0)) for s in (self.sign1, self.sign2)):
            raise ValueError("amplitude signs must be +1 or -1")
        np.broadcast_shapes(*map(np.shape, (self.g1, self.g2, self.sign1, self.sign2)))

    # the amplitudes sign * sqrt(g), formed on each read and never stored
    h1 = property(lambda self: self.sign1 * np.sqrt(self.g1))
    h2 = property(lambda self: self.sign2 * np.sqrt(self.g2))

    @classmethod
    def from_gains(cls, g1, g2, sign1=1.0, sign2=1.0):
        """The record of the gains and signs as floats: a real number as a
        Python float, an int or float array-like as a float array (a float64
        array is held, not copied).  Any other value (a str, a bool, None)
        is passed on as it is, for the record to refuse."""
        def as_float(v):
            a = np.asarray(v)
            if _is_number(v) or (a.dtype.kind in "iuf" and a.ndim == 0):
                return float(v)
            return np.asarray(a, dtype=float) if a.dtype.kind in "iuf" else v

        return cls(*map(as_float, (g1, g2, sign1, sign2)))


def _unchecked(cls, *values):
    """A ``cls`` record of values, in field order, taken from one that
    passed its checks (a slice of its arrays, or some of its fields), built
    without running the checks again; fields left out keep their defaults."""
    record = object.__new__(cls)
    vars(record).update(zip(cls.__dataclass_fields__, values))
    return record


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


def _ahead(rng: np.random.Generator, k: int) -> np.random.Generator:
    """A copy of ``rng``, a Philox generator, k raw 64-bit outputs on: it
    draws what rng would after k such outputs (a uniform double uses one),
    and rng does not move.  Philox makes 4 outputs per counter step, so a
    copy with no buffered output (as rng_stream makes it) jumps k // 4
    steps in O(1) and draws the other k % 4; any other copy draws all k."""
    bits = copy.deepcopy(rng.bit_generator)
    if bits.state["buffer_pos"] == 4:
        bits.advance(k // 4)
        k %= 4
    bits.random_raw(k, output=False)
    return np.random.Generator(bits)


def _blocks(n: int):
    """(index, size) of each substream block of n draws, in index order."""
    for index, start in enumerate(range(0, n, _BLOCK)):
        yield index, min(_BLOCK, n - start)


def _slices(m: int, size: int = _SLICE):
    """Slices of at most ``size`` that cover range(m) in order."""
    return (slice(start, start + size) for start in range(0, m, size))


def _on_pool(fn, items, workers: int) -> list:
    """[fn(*item) for item in items], in order, on one pool of ``workers``
    threads, each call under the caller's np.errstate: the one pool of
    ``_map_blocks`` and ``_map_slices``.  ``items`` is drawn in the calling
    thread, at most 2 per thread ahead of the results taken, and a call's
    exception is raised here once the calls submitted by then have run.
    One worker is the calling thread itself, with no pool.
    """
    if workers == 1:  # a pool of one thread would only wait on it
        return [fn(*item) for item in items]
    from concurrent import futures  # on first use, not with mfrelay

    err = np.geterr()

    def run(*item):
        with np.errstate(**err):
            return fn(*item)

    results, pending = [], collections.deque()
    with futures.ThreadPoolExecutor(workers) as pool:
        for item in items:
            if len(pending) == 2 * workers:
                results.append(pending.popleft().result())
            pending.append(pool.submit(run, *item))
        results.extend(future.result() for future in pending)
    return results


def _map_blocks(fn, n: int, streams, height: int, rows: int = 1) -> list:
    """[fn(streams(row, index), buf) for each row in range(rows) and each
    (index, size) in _blocks(n)], in (row, index) order, where buf is a
    (height, size) view of a float buffer that belongs to the thread
    running the block and is made once per call: the rows a block draws
    whole (the Monte Carlo g1, the chain's z and n_r).  What a block draws
    part by part goes into its own slice-sized scratch.

    Every row's blocks run on one pool (``_on_pool``) of min(_WORKERS,
    blocks) threads; ``streams`` is called in the calling thread.  Callers
    reduce each row's results in index order, so the output does not
    depend on the worker count.  Needs n >= 1.
    """
    local = threading.local()
    width = min(n, _BLOCK)

    def block(stream, size):
        if not hasattr(local, "buf"):
            local.buf = np.empty((height, width))
        return fn(stream, local.buf[:, :size])

    items = ((streams(row, index), size) for row in range(rows) for index, size in _blocks(n))
    return _on_pool(block, items, min(_WORKERS, rows * -(-n // _BLOCK)))


def _cutter(v, shape):
    """``_map_slices``' cut of an array v that broadcasts to ``shape``: a
    function of a slice s of the flat broadcast shape, giving v's points
    there without forming v at the whole shape."""
    if np.ndim(v) == 0:
        return lambda s: v
    full = np.broadcast_to(v, shape)
    if full.flags.c_contiguous:  # v itself, laid out at the shape: a view
        return full.reshape(-1).__getitem__
    return lambda s: full.flat[s]  # a new iterator per slice, so threads share none


def _map_slices(kernel, *args):
    """kernel(*args) for an elementwise ``kernel`` of one result, through
    ``_scalar``: the one driver of the bulk closed forms, whose callers
    check their inputs on the whole arrays first.  Each arg is an array or
    a record (a dataclass instance such as ``SystemParams``), and the
    arrays and the records' fields broadcast to one shape.

    A call of at most _SLICE points runs kernel(*args) as it is, in the
    calling thread.  A larger call preallocates the output of the broadcast
    shape and runs the kernel on slices of at most _SLICE points of it in
    C order, each writing its result into its part of it; a record reaches
    the kernel as a record of its slice's fields, built by ``_unchecked``.
    Each array and field is sorted once, when the call starts: a 0-d one
    reaches every slice as it is, one laid out in C order at the broadcast
    shape as a view of the slice, and any other (one that broadcasts, or
    a strided one) is gathered one slice at a time.  The slices run on
    ``_map_blocks``' pool (``_on_pool``), with its worker count,
    min(_WORKERS, blocks): within one _BLOCK they run in the calling
    thread.  So the output is the only full-size array it makes, and an
    elementwise kernel gives it the same bits for any slicing and any
    worker count.  A kernel must call private functions only: perfbench's
    tracer times the public ones on the calling thread.
    """
    groups = [vars(a).values() if is_dataclass(a) else (a,) for a in args]
    shape = np.broadcast_shapes(*(np.shape(v) for group in groups for v in group))
    size = math.prod(shape)
    if size <= _SLICE:
        return _scalar(kernel(*args))
    cutters = [[_cutter(v, shape) for v in group] for group in groups]
    out = np.empty(size)

    def run(s):
        cuts = ([cut(s) for cut in group] for group in cutters)
        out[s] = kernel(*(_unchecked(type(a), *cut) if is_dataclass(a) else cut[0]
                          for a, cut in zip(args, cuts)))

    workers = min(_WORKERS, -(-size // _BLOCK))
    # a kernel holds about ten slice-sized temporaries: slices of at most an
    # eighth of a worker's share keep those in flight within the output's size
    width = min(_SLICE, -(-size // (8 * workers)))
    _on_pool(run, ((s,) for s in _slices(size, width)), workers)
    return out.reshape(shape)


def sample_realization(params: SystemParams, rng: np.random.Generator, size=None) -> ChannelRealization:
    """Draw gains exponential(eps_i) and signs as fair coin flips.

    With ``size=None`` returns a scalar realization; otherwise array
    fields of that shape.  Deterministic given the generator state.
    """
    g1, g2 = sample_gains(params, rng, size)
    s1 = 2.0 * rng.integers(0, 2, size) - 1.0
    s2 = 2.0 * rng.integers(0, 2, size) - 1.0
    return ChannelRealization.from_gains(g1, g2, s1, s2)


def sample_gains(params: SystemParams, rng: np.random.Generator, size):
    """Gains-only batch draw (signs are irrelevant to outage events)."""
    return rng.exponential(params.eps1, size), rng.exponential(params.eps2, size)
