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

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from .channel import ChannelRealization, SystemParams, rng_stream
from .rates import sigma_e_sq

_SIM_BLOCK = 1 << 17
_UNIFORMITY_BINS = 64


@dataclass(frozen=True)
class LatticeConfig:
    """Scalar coarse lattice sized so the cell's average power is ps."""

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

    def __post_init__(self):
        for p in (self.measured_relay_power, self.measured_residual_var,
                  self.measured_folded_var, self.analytic_sigma_e2):
            if p < 0:
                raise ValueError("powers must be nonnegative")
        for s in (self.alpha, self.beta):
            if not (0.0 < s <= 1.0):
                raise ValueError("scaling factors must lie in (0, 1]")


def mod_lattice(x, delta):
    """Reduce x modulo delta*Z into [-delta/2, delta/2); the +delta/2
    boundary maps to -delta/2."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    x = np.asarray(x, dtype=float)
    out = x - delta * np.floor(x / delta + 0.5)
    return float(out) if out.ndim == 0 else out


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

    Taken from scipy.special: importing scipy.stats for this one call
    would cost more than the rest of a cold CLI run's imports.
    """
    return float(chdtrc(_UNIFORMITY_BINS - 1, stat))


def _block_draws(params, real, cfg):
    """Yield the draws (u, u1, x_d, n_r, n_d) of each deterministic block.

    They do not depend on the scalings, so one set of blocks serves any
    number of (alpha, beta) pairs.
    """
    if real.g1 <= 0 or real.g2 <= 0:
        raise ValueError("chain simulation needs g1 > 0 and g2 > 0")
    delta = cfg.delta
    s_n = np.sqrt(params.sigma2)
    s_d = np.sqrt(params.pd)
    n = int(cfg.n_symbols)
    for block, done in enumerate(range(0, n, _SIM_BLOCK)):
        m = min(_SIM_BLOCK, n - done)
        rng = rng_stream(cfg.seed, block)
        u = rng.uniform(-delta / 2, delta / 2, m)    # source dither; x_s = u at the zero codeword
        u1 = rng.uniform(-delta / 2, delta / 2, m)   # relay dither
        x_d = s_d * rng.standard_normal(m)
        n_r = s_n * rng.standard_normal(m)
        n_d = s_n * rng.standard_normal(m)
        yield u, u1, x_d, n_r, n_d


def _chain_block(real, delta, draws, alpha, beta):
    """(x_r, folded, linear_residual) of one block of draws."""
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
    return x_r, y, r


def simulate_chain(params: SystemParams, real: ChannelRealization, cfg: LatticeConfig,
                   alpha: float | None = None, beta: float | None = None) -> ChainReport:
    """Run the full chain and report measured second moments.

    ``alpha``/``beta`` default to the MMSE values; passing 1.0 shows the
    penalty of forwarding without scaling.  Blocks use independent
    substreams and are accumulated in index order, so results are
    reproducible for a given (config, seed).
    """
    if real.g1 <= 0 or real.g2 <= 0:
        raise ValueError("chain simulation needs g1 > 0 and g2 > 0")
    a_opt, b_opt = mmse_scalings(params, real)
    alpha = a_opt if alpha is None else float(alpha)
    beta = b_opt if beta is None else float(beta)
    delta = cfg.delta
    sum_xr2 = sum_y2 = sum_r2 = 0.0
    hist = np.zeros(_UNIFORMITY_BINS, dtype=np.int64)
    edges = np.linspace(-delta / 2, delta / 2, _UNIFORMITY_BINS + 1)
    for draws in _block_draws(params, real, cfg):
        x_r, y, r = _chain_block(real, delta, draws, alpha, beta)
        sum_xr2 += float(np.sum(x_r * x_r))
        sum_y2 += float(np.sum(y * y))
        sum_r2 += float(np.sum(r * r))
        hist += np.histogram(x_r, bins=edges)[0]
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
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    beta_grid = np.asarray(beta_grid, dtype=float)
    for grid in (alpha_grid, beta_grid):
        if np.any(grid <= 0) or np.any(grid > 1.5):
            raise ValueError("scaling grids must lie in (0, 1.5]")
    delta = cfg.delta
    sums = np.zeros((alpha_grid.size, beta_grid.size))
    for draws in _block_draws(params, real, cfg):
        for i, a in enumerate(alpha_grid):
            for j, b in enumerate(beta_grid):
                _, _, r = _chain_block(real, delta, draws, a, b)
                sums[i, j] += float(np.sum(r * r))
    return sums / int(cfg.n_symbols)
