"""High-SNR laws: generalized secure degrees of freedom (prelog of the
secrecy rate) and generalized secure diversity gain (decay exponent of
the total outage probability), as closed piecewise forms in
rho = log(INR)/log(SNR) plus finite-SNR slope estimators that verify
them.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelRealization, RateConfig, SystemParams, _pd_at_rho
from .numerics import slope_fit
from .outage import p_conn_af, p_conn_cutset_lower, p_conn_mf, p_secrecy
from .rates import Scheme, af_rates, mf_rates, secrecy_upper_bound

DEFAULT_SNR_GRID = tuple(np.logspace(6, 12, 10))


def _check_rho(rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=float)
    if not np.all(np.isfinite(rho) & (rho >= 0.0)):
        raise ValueError("rho must be finite and nonnegative")
    return rho


def gsdof_closed_form(scheme: Scheme, rho):
    """Secure-DoF law: rho/2 capped at 1/2 for the bound and MF; AF falls
    back to 1 - rho/2 on [1, 2) and to 0 beyond.  Broadcasts over rho."""
    half = _check_rho(rho) / 2.0
    out = (np.minimum(half, 0.5) if scheme in (Scheme.UPPER, Scheme.MF)
           else np.maximum(0.0, np.minimum(half, 1.0 - half)))
    return float(out) if out.ndim == 0 else out


def gsdg_closed_form(scheme: Scheme, rho):
    """Secure diversity law: 0 up to rho=1, then rho-1, saturating at 1
    for the bound and MF; AF peaks at 1/2 (rho=3/2) and collapses to 0
    for rho >= 2.  Broadcasts over rho."""
    rho = _check_rho(rho)
    out = (np.clip(rho - 1.0, 0.0, 1.0) if scheme in (Scheme.UPPER, Scheme.MF)
           else np.maximum(0.0, np.minimum(rho - 1.0, 2.0 - rho)))
    return float(out) if out.ndim == 0 else out


def _snr_points(rho, snr_grid):
    """The validated grid and one SystemParams holding its points at sigma2 = 1."""
    _check_rho(rho)
    grid = np.asarray(snr_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("snr_grid must be a 1-d grid with >= 2 points")
    if np.any(np.diff(grid) <= 0) or grid[0] < 1e4:
        raise ValueError("snr_grid must be increasing with min >= 1e4")
    return grid, SystemParams(ps=grid, pd=_pd_at_rho(grid, 1.0, rho), sigma2=1.0)


def estimate_gsdof(scheme: Scheme, rho: float, snr_grid=DEFAULT_SNR_GRID,
                   real: ChannelRealization | None = None) -> float:
    """Finite-SNR slope estimate of the secure DoF at a given rho.

    Evaluates the grid with ps = snr*sigma2 and pd = snr^rho*sigma2, then
    fits the rate (in nats) against ln(snr).  The limit is independent of
    the fixed scalar realization, which defaults to g1 = g2 = 1.
    """
    grid, params = _snr_points(rho, snr_grid)
    if real is None:
        real = ChannelRealization.from_gains(1.0, 1.0)
    # built per call, so a tracer that rebinds these names sees the calls
    rate = {Scheme.MF: lambda p, r: mf_rates(p, r).rs,
            Scheme.AF: lambda p, r: af_rates(p, r).rs_af}.get(scheme, secrecy_upper_bound)
    return slope_fit(zip(np.log(grid), rate(params, real) * np.log(2.0)))


def estimate_gsdg(scheme: Scheme, rho: float, snr_grid=DEFAULT_SNR_GRID,
                  config: RateConfig | None = None) -> float:
    """Finite-SNR decay-exponent estimate of the secure diversity gain.

    Uses the closed-form outage probabilities, with the total outage
    proxied by max(connection, secrecy) (the two bounds share the
    exponent).
    """
    grid, params = _snr_points(rho, snr_grid)
    if config is None:
        config = RateConfig(rd=1.0, rs=0.5)
    # built per call, as in estimate_gsdof
    conn = {Scheme.MF: p_conn_mf, Scheme.AF: p_conn_af}.get(scheme, p_conn_cutset_lower)
    p_t = np.maximum(conn(params, config.rd), p_secrecy(params, config))
    if np.any(p_t <= 0.0):
        raise ValueError("total outage proxy underflowed to 0 on the grid")
    return -slope_fit(zip(np.log(grid), np.log(p_t)))
