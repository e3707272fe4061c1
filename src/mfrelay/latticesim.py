"""Sample-level simulation of the modulo-forward signal chain over a
scalar coarse lattice delta*Z with cell [-delta/2, delta/2).

The scalar cell preserves the second-moment identities the rate analysis
rests on (dither uniformity, relay power, MMSE residual variance) while
forgoing the shaping gain of high-dimensional cells.  Because a scalar
cell folds a non-negligible tail of the residual at these operating points,
the report carries both the linear residual variance (the quantity the
equivalent-noise formula describes; validated against it) and the folded
variance of the cell-reduced output.  The exact modulo-algebra identity
fold(linear residual) == chain output is asserted on every run.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, SystemParams, _map_blocks, _slices, rng_stream
from .numerics import _scalar
from .rates import sigma_e_sq

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
        if not np.isfinite(self.ps) or self.ps <= 0:
            raise ValueError("ps must be positive and finite")
        if int(self.n_symbols) < 1:
            raise ValueError("n_symbols must be >= 1")

    @property
    def delta(self) -> float:
        # delta^2 / 12 == ps (up to one ulp)
        return float(np.sqrt(12.0 * self.ps))


@dataclass(frozen=True)
class ChainReport:
    """Measured chain statistics against the analytic equivalent noise."""

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
            if p < 0:
                raise ValueError("powers must be nonnegative")
        _check_scalings(self.alpha, self.beta)


def _check_scalings(*scalings):
    """Each scaling, or grid of them, must lie in (0, 1]; NaN does not."""
    if not all(np.all((s > 0.0) & (s <= 1.0)) for s in map(np.asarray, scalings)):
        raise ValueError("scaling factors must lie in (0, 1]")


def mod_lattice(x, delta):
    """Reduce x modulo delta*Z into [-delta/2, delta/2); the +delta/2
    boundary maps to -delta/2."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    x = np.asarray(x, dtype=float)
    return _scalar(x - delta * np.floor(x / delta + 0.5))


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


def _block_draws(rng, draws, delta, params):
    """Fill rows 0-4 of ``draws`` with one block's (u, u1, x_d, n_r, n_d).

    They do not depend on the scalings, so one set of blocks serves any
    number of (alpha, beta) pairs.  The in-place forms are bitwise equal
    to rng.uniform(-delta/2, delta/2, m) and s * rng.standard_normal(m).
    """
    for row in draws[:2]:  # source dither (x_s = u at the zero codeword), relay dither
        rng.random(out=row)
        row *= delta
        row += -delta / 2
    s_n = np.sqrt(params.sigma2)
    for row, s in zip(draws[2:5], (np.sqrt(params.pd), s_n, s_n)):
        rng.standard_normal(out=row)
        row *= s


def _check_chain(params, real, cfg):
    """Refuse a chain that cannot run: a dead hop, or a lattice sized for
    another power than params.ps (the dither would use one, the scalings the
    other)."""
    if real.g1 <= 0 or real.g2 <= 0:
        raise ValueError("chain simulation needs g1 > 0 and g2 > 0")
    if cfg.ps != params.ps:
        raise ValueError(f"LatticeConfig.ps ({cfg.ps}) must equal params.ps ({params.ps})")


def _map_chain_blocks(params, real, cfg, fn, extra_rows=0):
    """[fn(draws)] over the blocks of cfg, in index order; ``draws`` holds
    the block's draws in rows 0-4 and ``extra_rows`` free rows after them."""
    delta = cfg.delta

    def block(rng, draws):
        _block_draws(rng, draws, delta, params)
        return fn(draws)

    return _map_blocks(block, int(cfg.n_symbols), lambda index: rng_stream(cfg.seed, index),
                       5 + extra_rows)


def _chain_block(real, delta, draws, alpha, beta):
    """(x_r, folded, linear_residual, identity drift) of a block's draws, or
    a slice of them."""
    u, u1, x_d, n_r, n_d = draws
    h1, h2 = real.h1, real.h2
    x_s = u
    y_r = h1 * x_s + h2 * x_d + n_r
    x_r = mod_lattice(beta * y_r / h1 + u1, delta)
    y_d = h2 * x_r + n_d
    y = mod_lattice(alpha * y_d / h2 - beta * (h2 / h1) * x_d - u - u1, delta)
    r = (alpha - 1.0) * x_r + (beta - 1.0) * x_s + beta * n_r / h1 + alpha * n_d / h2
    # the whole modulo algebra collapses to y == fold(r); enforce it
    drift = np.max(np.abs(mod_lattice(r - y, delta)))
    if drift > 1e-9 * delta:
        raise RuntimeError(f"modulo-chain identity violated (drift {drift:.3e})")
    return x_r, y, r, drift


def simulate_chain(params: SystemParams, real: ChannelRealization, cfg: LatticeConfig,
                   alpha: float | None = None, beta: float | None = None) -> ChainReport:
    """Run the full chain and report measured second moments.

    ``alpha``/``beta`` default to the MMSE values; passing 1.0 shows the
    penalty of forwarding without scaling.  Blocks use independent
    substreams and are accumulated in index order, so results are
    reproducible for a given (config, seed).
    """
    _check_chain(params, real, cfg)
    a_opt, b_opt = mmse_scalings(params, real)
    alpha = a_opt if alpha is None else float(alpha)
    beta = b_opt if beta is None else float(beta)
    _check_scalings(alpha, beta)
    delta = cfg.delta
    edges = np.linspace(-delta / 2, delta / 2, _UNIFORMITY_BINS + 1)

    def block(draws):
        drift = 0.0
        for s in _slices(draws.shape[1]):
            # the slice's outputs overwrite the draws it has used up
            draws[0, s], draws[1, s], draws[2, s], d = _chain_block(real, delta, draws[:, s],
                                                                    alpha, beta)
            drift = max(drift, d)
        hist = np.histogram(draws[0], bins=edges)[0]
        np.square(draws[:3], out=draws[:3])
        return np.array([np.sum(row) for row in draws[:3]]), hist, drift

    squares, hists, drifts = zip(*_map_chain_blocks(params, real, cfg, block))
    squares, hist = sum(squares), sum(hists)
    sum_xr2, sum_y2, sum_r2 = map(float, squares)
    n = int(cfg.n_symbols)
    expected = n / _UNIFORMITY_BINS
    stat = float(np.sum((hist - expected) ** 2) / expected)
    pvalue = _uniformity_pvalue(stat)
    return ChainReport(
        measured_relay_power=sum_xr2 / n,
        measured_residual_var=sum_r2 / n,
        measured_folded_var=sum_y2 / n,
        analytic_sigma_e2=float(sigma_e_sq(params, real)),
        uniformity_pvalue=pvalue,
        alpha=alpha,
        beta=beta,
        max_identity_drift=float(max(drifts)),
    )


def scan_scaling(params: SystemParams, real: ChannelRealization, cfg: LatticeConfig,
                 alpha_grid, beta_grid) -> np.ndarray:
    """Measured linear-residual variance over a grid of scaling pairs.

    Draws each block once and evaluates every grid point on it (common
    random numbers), so the empirical argmin lands within one grid step
    of the MMSE pair.  Each point sums its blocks in index order and
    equals ``simulate_chain(..., alpha, beta).measured_residual_var``.
    Returns an array of shape (len(alpha_grid), len(beta_grid)).
    """
    _check_chain(params, real, cfg)
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    beta_grid = np.asarray(beta_grid, dtype=float)
    _check_scalings(alpha_grid, beta_grid)
    delta = cfg.delta

    def block(draws):
        r = draws[5]
        sums = np.empty((alpha_grid.size, beta_grid.size))
        for i, a in enumerate(alpha_grid):
            for j, b in enumerate(beta_grid):
                for s in _slices(r.size):
                    r[s] = _chain_block(real, delta, draws[:5, s], a, b)[2]
                np.square(r, out=r)
                sums[i, j] = np.sum(r)
        return sums

    return sum(_map_chain_blocks(params, real, cfg, block, extra_rows=1)) / int(cfg.n_symbols)
