"""Sample-level simulation of the modulo-forward signal chain over a
scalar coarse lattice delta*Z with cell [-delta/2, delta/2).

The scalar cell preserves the second-moment identities the rate analysis
rests on (dither uniformity, relay power, MMSE residual variance) while
forgoing the shaping gain of high-dimensional cells.  Because a scalar
cell folds a non-negligible tail of the residual at these operating points,
the report carries both the linear residual variance (the quantity the
equivalent-noise formula describes; validated against it) and the folded
variance of the cell-reduced output.  The exact modulo-algebra identity
fold(linear residual) == chain output is asserted on every symbol of every
operating point; a batch of operating points runs on one set of draws.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import (_SLICE, ChannelRealization, SystemParams, _ahead, _all_finite,
                      _is_number, _map_blocks, _scalar, _slices, rng_stream)
from .rates import rate_report

_UNIFORMITY_BINS = 64
_DOF = _UNIFORMITY_BINS - 1  # odd, which the closed-form chi-square tail needs
_LOG_DBL_MAX = math.log(sys.float_info.max)
# ln(sqrt(2/pi)/(1*3*...*(2k-1))) for k = 1 .. (_DOF - 1)/2
_LOG_TERM_CONSTANTS = tuple(0.5 * math.log(2.0 / math.pi)
                            - math.fsum(math.log(2 * j - 1) for j in range(1, k + 1))
                            for k in range(1, _DOF // 2 + 1))


@dataclass(frozen=True)
class LatticeConfig:
    """Scalar coarse lattice sized so the cell's average power is ps, which
    must equal the ps of the SystemParams the chain runs with."""

    ps: float
    n_symbols: int
    seed: int = 0

    def __post_init__(self):
        if np.size(self.ps) != 1 or not _all_finite(self.ps) or self.ps <= 0:
            raise ValueError(f"ps must be one positive finite power, not {self.ps!r}")
        with np.errstate(over="ignore"):  # 12 ps overflows above about 1.498e307
            if math.isinf(self.delta):
                raise ValueError(f"ps must be at most DBL_MAX/12, so that the cell width "
                                 f"sqrt(12 ps) is finite, not {self.ps!r}")
        for name in ("n_symbols", "seed"):
            if not _is_number(getattr(self, name), integral=True):
                raise ValueError(f"{name} must be an integer, not {getattr(self, name)!r}")
        if self.n_symbols < 1:
            raise ValueError("n_symbols must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def delta(self) -> float:
        # delta^2 / 12 == ps (up to one ulp), from ps's one value (a 1-element array too)
        return float(np.sqrt(12.0 * np.reshape(self.ps, ())))


@dataclass(frozen=True)
class ChainReport:
    """Measured chain statistics against the analytic equivalent noise.

    Each field is a float for a single operating point, or an array of the
    batch's broadcast shape holding one value per operating point.
    """

    measured_relay_power: float
    measured_residual_var: float   # linear residual, the sigma_e^2 estimand
    measured_folded_var: float     # after the final cell fold
    analytic_sigma_e2: float
    uniformity_pvalue: float
    alpha: float
    beta: float
    # the largest |fold(r - y)| of the modulo-chain identity y == fold(r) over
    # all symbols; a run refuses drift beyond 1e-9 * delta
    max_identity_drift: float = 0.0

    def __post_init__(self):
        for p in (self.measured_relay_power, self.measured_residual_var,
                  self.measured_folded_var, self.analytic_sigma_e2):
            if np.any(np.asarray(p) < 0):
                raise ValueError("powers must be nonnegative")
        _check_scalings(self.alpha, self.beta)


def _check_scalings(*scalings):
    """Each scaling, or grid of them, must lie in (0, 1]; NaN does not."""
    if not all(np.all((s > 0.0) & (s <= 1.0)) for s in map(np.asarray, scalings)):
        raise ValueError("scaling factors must lie in (0, 1]")


def _fold(x, delta, tmp):
    """x - delta*floor(x/delta + 0.5), written over x; ``tmp`` is scratch
    of x's shape.  The one cell reduction of mod_lattice and the chain."""
    np.divide(x, delta, out=tmp)
    tmp += 0.5
    np.floor(tmp, out=tmp)
    tmp *= delta
    x -= tmp
    return x


def mod_lattice(x, delta):
    """Reduce x modulo delta*Z into [-delta/2, delta/2); the +delta/2
    boundary maps to -delta/2.  An x whose quotient x/delta overflows a
    double has no cell to fold into and is refused."""
    if not (_is_number(delta) and delta > 0.0):
        raise ValueError("delta must be positive and finite")
    x = np.array(x, dtype=float)  # a copy for the fold to overwrite
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(x / delta)):
            raise ValueError("x / delta must be finite")
    return _scalar(_fold(x, delta, np.empty_like(x)))


def mmse_scalings(params: SystemParams, real: ChannelRealization):
    """Optimal destination/relay scalings (alpha, beta) minimizing the
    residual variance."""
    alpha = params.ps / (params.ps + params.sigma2 / real.g2)
    beta = params.ps / (params.ps + params.sigma2 / real.g1)
    return alpha, beta


def residual_variance_bound(params: SystemParams, real: ChannelRealization, alpha, beta):
    """Variance of the linear residual for arbitrary scalings; equals the
    equivalent noise variance at the MMSE pair."""
    ps, s2 = params.ps, params.sigma2
    return ((1.0 - alpha) ** 2 * ps + (1.0 - beta) ** 2 * ps
            + alpha ** 2 * s2 / real.g2 + beta ** 2 * s2 / real.g1)


def _uniformity_pvalue(stat: float) -> float:
    """chi2.sf(stat, bins - 1) of the relay-output histogram.

    For an odd number nu of degrees of freedom the tail has the closed form
    erfc(sqrt(x/2)) + sqrt(2x/pi)*e^(-x/2)*sum_{k=1}^{(nu-1)/2} x^(k-1)/(1*3*...*(2k-1)).
    Each term of the sum is formed from its log, and the sum is scaled by
    its largest term, since e^(-x/2) underflows where the powers of x
    overflow.  As in Cephes' igamc, the upper tail reads 0 once the gamma
    density factor (x/2)^(nu/2)*e^(-x/2)/Gamma(nu/2) is below 1/DBL_MAX,
    which for 63 degrees is past x = 1691 (a p-value below 7e-312).
    """
    x = float(stat)
    if x <= 0.0:
        return 1.0
    half, a = 0.5 * x, 0.5 * _DOF
    if half > a and a * math.log(half) - half - math.lgamma(a) < -_LOG_DBL_MAX:
        return 0.0
    log_x = math.log(x)
    logs = [c + (k - 0.5) * log_x - half for k, c in enumerate(_LOG_TERM_CONSTANTS, 1)]
    top = max(logs)
    tail = math.exp(top + math.log(math.fsum(math.exp(v - top) for v in logs)))
    return min(1.0, math.erfc(math.sqrt(half)) + tail)


def _block_draws(rng, full, parts, delta, params):
    """Draw one block of (u, u1, z, n_r, n_d) and yield it part by part.

    z and n_r are drawn whole into ``full``, the thread's 2 block rows
    from ``_map_blocks``: they are ziggurat normals, whose use of the
    stream varies.  u, u1 and n_d are drawn one _slices part at a time into
    ``parts``, 3 of the block's 7 slice rows: u from rng, u1 from a copy of
    rng m raw outputs on (a uniform uses one) and z, n_r, then n_d from a
    copy 2m on (``_ahead``).  So the rows of each yielded part are bitwise
    that part of the draws in stream order: rng.uniform(-delta/2, delta/2,
    m) for u and then u1, rng.standard_normal(m) for z and
    sqrt(sigma2)*rng.standard_normal(m) for n_r and then n_d.

    z is the jamming x_d at unit power: a chain at jamming power pd uses
    sqrt(pd)*z.  None of the rows depends on pd or the scalings, so one set
    of blocks serves any number of operating points.
    """
    m = full.shape[1]
    dithers, normals = (rng, _ahead(rng, m)), _ahead(rng, 2 * m)
    z, n_r = full
    s_n = np.sqrt(params.sigma2)
    normals.standard_normal(out=z)
    normals.standard_normal(out=n_r)
    n_r *= s_n
    for s in _slices(m):
        u, u1, n_d = parts[:, :z[s].shape[0]]
        for stream, row in zip(dithers, (u, u1)):  # source dither (x_s = u), relay dither
            stream.random(out=row)
            row *= delta
            row += -delta / 2
        normals.standard_normal(out=n_d)
        n_d *= s_n
        yield u, u1, z[s], n_r[s], n_d


class _Case(NamedTuple):
    """One operating point of the chain: sqrt(pd), the amplitudes and the
    scalings, as floats.  The relay stage reads all but alpha, case[:4]."""

    s_d: float
    h1: float
    h2: float
    beta: float
    alpha: float


# The chain in three stages, each written in place over slice-sized arrays
# (``draws`` is one part's (u, u1, z, n_r, n_d), ``tmp`` scratch).  The
# operations and their order are those of the chain's formulas, so every
# value is bitwise what evaluating the formula would give.

def _relay_stage(draws, case, delta, x_r, tmp):
    """x_r = fold(beta*y_r/h1 + u1), y_r = h1*x_s + h2*x_d + n_r; of the
    scalings it depends on beta only."""
    u, u1, z, n_r, _ = draws
    np.multiply(case.h1, u, out=x_r)
    np.multiply(case.s_d, z, out=tmp)  # x_d
    tmp *= case.h2
    x_r += tmp
    x_r += n_r
    x_r *= case.beta
    x_r /= case.h1
    x_r += u1
    _fold(x_r, delta, tmp)


def _destination_stage(draws, case, delta, x_r, y, tmp):
    """y = fold(alpha*y_d/h2 - beta*(h2/h1)*x_d - u - u1), y_d = h2*x_r + n_d:
    the destination strips its own jamming and both dithers."""
    u, u1, z, _, n_d = draws
    np.multiply(case.h2, x_r, out=y)
    y += n_d
    y *= case.alpha
    y /= case.h2
    np.multiply(case.s_d, z, out=tmp)
    tmp *= case.beta * (case.h2 / case.h1)
    y -= tmp
    y -= u
    y -= u1
    _fold(y, delta, tmp)


def _residual_stage(draws, case, x_r, r, tmp):
    """r = (alpha - 1)*x_r + (beta - 1)*x_s + beta*n_r/h1 + alpha*n_d/h2,
    the linear residual."""
    u, _, _, n_r, n_d = draws
    np.multiply(case.alpha - 1.0, x_r, out=r)
    np.multiply(case.beta - 1.0, u, out=tmp)
    r += tmp
    np.multiply(case.beta, n_r, out=tmp)
    tmp /= case.h1
    r += tmp
    np.multiply(case.alpha, n_d, out=tmp)
    tmp /= case.h2
    r += tmp


def _identity_drift(r, y, delta, tmp):
    """max |fold(r - y)| over a slice, computed over y (``tmp`` is scratch
    of its shape), so that r keeps its values for its sum; y's sum is taken
    before.  The whole modulo algebra collapses to y == fold(r); a drift
    beyond 1e-9*delta, or a NaN one, is refused as a ValueError: the
    jamming then spans too many cells for a double to place a symbol within
    its cell (pd far above ps does it)."""
    np.subtract(r, y, out=y)
    drift = float(np.max(np.abs(_fold(y, delta, tmp), out=y)))
    if not drift <= 1e-9 * delta:
        raise ValueError(f"modulo-chain identity violated (drift {drift:.3e} > 1e-9*delta): "
                         "the jamming spans too many lattice cells for double precision "
                         "(pd far above ps)")
    return drift


def _sum_of_squares(row, factor, out=None):
    """Sum of the squares of a row times ``factor``, a power of two near
    one over the cell width, squared in place (in ``out`` when given, so
    that row keeps its values) and added by np.sum.  The factor keeps the
    sum finite for any ps and, where no square is subnormal, changes no bit
    of it but the exponent."""
    out = np.multiply(row, factor, out=row if out is None else out)
    np.square(out, out=out)
    return np.sum(out)


def _histogram(x, edges, tmp):
    """np.histogram(x, bins=edges)[0], counted from a sorted copy of x in
    ``tmp``, scratch of x's shape, by np.histogram's own rule: each bin
    holds its left edge, the last also its right one, and a value outside
    the edges (or NaN) is in no bin."""
    np.copyto(tmp, x)
    tmp.sort()
    cuts = tmp.searchsorted(edges, "left")
    cuts[-1] = tmp.searchsorted(edges[-1], "right")
    return np.diff(cuts)


def _check_chain(params, real, cfg):
    """Refuse a chain that cannot run: an array ps or sigma2 (every
    operating point shares one lattice and one noise draw), a dead hop, or
    a lattice sized for another power than params.ps (the dither would use
    one, the scalings the other)."""
    if np.ndim(params.ps) or np.ndim(params.sigma2):
        raise ValueError("chain simulation needs a scalar ps and sigma2")
    if np.any(np.asarray(real.g1) <= 0) or np.any(np.asarray(real.g2) <= 0):
        raise ValueError("chain simulation needs g1 > 0 and g2 > 0")
    if cfg.ps != params.ps:
        raise ValueError(f"LatticeConfig.ps ({cfg.ps}) must equal params.ps ({params.ps})")


def simulate_chain(params: SystemParams, real: ChannelRealization, cfg: LatticeConfig,
                   alpha=None, beta=None) -> ChainReport:
    """Run the full chain and report measured second moments.

    ``alpha``/``beta`` default to the MMSE values; passing 1.0 shows the
    penalty of forwarding without scaling.  ``params.pd``, the gains and
    signs of ``real``, and ``alpha``/``beta`` broadcast: arrays of
    one shape run one chain per operating point, and the report's fields
    are arrays of that shape.  ``params.ps`` (which must equal ``cfg.ps``)
    and ``params.sigma2`` are scalars.  Every operating point runs on the
    same blocks, each drawn once, and a point that differs from the one
    before it (in C order) in alpha alone reuses that point's relay pass.
    Blocks use independent substreams and are cut into parts of at most
    2^15 symbols; the parts' sums, and then the blocks', are added in index
    order, so each point equals its own scalar call bit for bit and results
    are reproducible for a given (config, seed).  A block holds only its
    z and n_r rows whole (``_block_draws``): u, u1 and n_d are drawn part
    by part, with the same bits, so a pool thread holds 2 block rows and
    7 slice rows (the draws' 3, x_r, y, r and one scratch row, in which
    the relay histogram sorts its copy of x_r).  A batch of no operating
    points draws nothing and starts no pool.
    """
    _check_chain(params, real, cfg)
    a_opt, b_opt = mmse_scalings(params, real)
    alpha = np.asarray(a_opt if alpha is None else alpha, dtype=float)
    beta = np.asarray(b_opt if beta is None else beta, dtype=float)
    _check_scalings(alpha, beta)
    # each amplitude read forms its square root: read h1 and h2 once
    point = np.broadcast_arrays(np.sqrt(params.pd), real.h1, real.h2, beta, alpha)
    shape = point[0].shape
    cases = [_Case(*map(float, values)) for values in zip(*(np.ravel(v) for v in point))]
    # a point reuses the relay output of the point before it when they share it
    relays = [k == 0 or case[:4] != cases[k - 1][:4] for k, case in enumerate(cases)]
    delta, n = cfg.delta, int(cfg.n_symbols)
    scale = math.frexp(delta)[1]  # the sums of squares are of values times 2^-scale
    factor = math.ldexp(1.0, -scale)
    edges = np.linspace(-delta / 2, delta / 2, _UNIFORMITY_BINS + 1)

    def block(rng, full):
        rows = np.empty((7, min(full.shape[1], _SLICE)))  # u, u1, n_d, x_r, y, r, scratch
        squares = np.zeros((len(cases), 3))
        hists = np.zeros((len(cases), _UNIFORMITY_BINS), dtype=np.int64)
        drifts = np.zeros(len(cases))
        # every operating point on one part of the block
        for part in _block_draws(rng, full, rows[:3], delta, params):
            x_r, y, r, tmp = rows[3:, :part[0].shape[0]]
            for k, case in enumerate(cases):
                if relays[k]:  # else x_r holds the point before's, and so do counts and x_sq
                    _relay_stage(part, case, delta, x_r, tmp)
                    counts = _histogram(x_r, edges, tmp)
                    x_sq = _sum_of_squares(x_r, factor, out=tmp)
                _destination_stage(part, case, delta, x_r, y, tmp)
                _residual_stage(part, case, x_r, r, tmp)
                y_sq = _sum_of_squares(y, factor, out=tmp)
                drifts[k] = max(drifts[k], _identity_drift(r, y, delta, tmp))
                squares[k] += x_sq, y_sq, _sum_of_squares(r, factor)
                hists[k] += counts
        return squares, hists, drifts

    # an empty batch draws nothing: one block's results of no points stand in
    results = (_map_blocks(block, n, lambda row, index: rng_stream(cfg.seed, index), 2) if cases
               else [(np.zeros((0, 3)), np.zeros((0, _UNIFORMITY_BINS)), np.zeros(0))])
    squares, hists, drifts = zip(*results)
    squares, hist, drift = sum(squares), sum(hists), np.max(drifts, axis=0)
    powers = np.ldexp(squares / n, 2 * scale)
    expected = n / _UNIFORMITY_BINS
    pvalues = [_uniformity_pvalue(np.sum((h - expected) ** 2) / expected) for h in hist]

    def field(values):
        return _scalar(np.array(values, dtype=float).reshape(shape))

    return ChainReport(
        measured_relay_power=field(powers[:, 0]),
        measured_residual_var=field(powers[:, 2]),
        measured_folded_var=field(powers[:, 1]),
        analytic_sigma_e2=field(np.broadcast_to(rate_report(params, real).sigma_e2, shape)),
        uniformity_pvalue=field(pvalues),
        alpha=field(point[4]),
        beta=field(point[3]),
        max_identity_drift=field(drift),
    )


def scan_scaling(params: SystemParams, real: ChannelRealization, cfg: LatticeConfig,
                 alpha_grid, beta_grid) -> np.ndarray:
    """Measured linear-residual variance over a grid of scaling pairs.

    One simulate_chain call over the grid, alpha across and beta down:
    every grid point runs on the same blocks (common random numbers), so
    the empirical argmin lands within one grid step of the MMSE pair, and
    the relay stage runs once per block and beta.  Each point equals
    ``simulate_chain(..., alpha, beta).measured_residual_var``.  ``params``
    and ``real`` describe one operating point, and the grids are 1-d.
    Returns an array of shape (len(alpha_grid), len(beta_grid)).
    """
    if any(np.ndim(v) for v in (params.pd, real.g1, real.g2, real.sign1, real.sign2)):
        raise ValueError("scan_scaling runs one operating point: scalar pd, gains and signs")
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    beta_grid = np.asarray(beta_grid, dtype=float)
    if alpha_grid.ndim != 1 or beta_grid.ndim != 1:
        raise ValueError("scan_scaling needs 1-d alpha and beta grids")
    report = simulate_chain(params, real, cfg, alpha=alpha_grid[None, :], beta=beta_grid[:, None])
    return np.ascontiguousarray(report.measured_residual_var.T)
