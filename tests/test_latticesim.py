from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfrelay import channel, latticesim
from mfrelay.channel import _BLOCK, ChannelRealization, SystemParams, rng_stream
from mfrelay.latticesim import (ChainReport, LatticeConfig, _uniformity_pvalue,
                                mmse_scalings, mod_lattice,
                                residual_variance_bound, scan_scaling,
                                simulate_chain)


def setup(g1=3.0, g2=3.0, ps=1.0, pd=10.0, n=10 ** 6, seed=42):
    params = SystemParams(ps=ps, pd=pd, sigma2=1.0)
    real = ChannelRealization.from_gains(g1, g2)
    cfg = LatticeConfig(ps=ps, n_symbols=n, seed=seed)
    return params, real, cfg


class TestModLattice:
    def test_identity_and_wraps(self):
        d = 2.0
        assert mod_lattice(0.0, d) == 0.0
        assert mod_lattice(d, d) == 0.0
        assert mod_lattice(0.75 * d, d) == pytest.approx(-0.25 * d)

    def test_half_open_boundary(self):
        d = 2.0
        assert mod_lattice(-d / 2, d) == -d / 2
        assert mod_lattice(d / 2, d) == -d / 2  # ties at +d/2 wrap down

    def test_idempotent_and_congruent(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-50, 50, 1000)
        d = 3.2
        m = mod_lattice(x, d)
        assert np.all(m >= -d / 2) and np.all(m < d / 2)
        assert np.allclose(mod_lattice(m, d), m)
        k = (x - m) / d
        assert np.allclose(k, np.round(k), atol=1e-9)

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            mod_lattice(1.0, 0.0)


class TestLatticeConfig:
    def test_cell_power_matches_ps(self):
        for ps in (1.0, 7.3, 250.0):
            cfg = LatticeConfig(ps=ps, n_symbols=10)
            assert cfg.delta ** 2 / 12.0 == pytest.approx(ps, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeConfig(ps=0.0, n_symbols=10)
        with pytest.raises(ValueError):
            LatticeConfig(ps=1.0, n_symbols=0)


class TestSimulateChain:
    def test_relay_power_and_residual_at_symmetric_point(self):
        params, real, cfg = setup()
        rep = simulate_chain(params, real, cfg)
        assert rep.analytic_sigma_e2 == pytest.approx(0.5)
        assert abs(rep.measured_relay_power - params.ps) / params.ps < 0.01
        assert abs(rep.measured_residual_var - rep.analytic_sigma_e2) / rep.analytic_sigma_e2 < 0.02
        assert rep.uniformity_pvalue > 1e-3
        assert (rep.alpha, rep.beta) == (0.75, 0.75)

    def test_folded_variance_below_linear(self):
        # the scalar cell folds residual tails, shaving second moment
        params, real, cfg = setup()
        rep = simulate_chain(params, real, cfg)
        assert rep.measured_folded_var < rep.measured_residual_var

    def test_unit_scalings_inflate_residual(self):
        params, real, cfg = setup(n=200000)
        opt = simulate_chain(params, real, cfg)
        unit = simulate_chain(params, real, cfg, alpha=1.0, beta=1.0)
        assert unit.measured_residual_var > opt.measured_residual_var
        # with alpha = beta = 1 the residual is pure channel noise
        assert unit.measured_residual_var == pytest.approx(2.0 / 3.0, rel=0.03)

    def test_variance_matches_bound_for_any_scalings(self):
        params, real, cfg = setup(n=400000)
        for a, b in ((0.6, 0.9), (1.0, 0.75), (0.75, 1.0)):
            rep = simulate_chain(params, real, cfg, alpha=a, beta=b)
            bound = residual_variance_bound(params, real, a, b)
            se = bound * np.sqrt(2.0 / cfg.n_symbols) * 3  # ~3 sigma for a variance mean
            assert rep.measured_residual_var <= bound + 3 * se
            assert rep.measured_residual_var == pytest.approx(bound, rel=0.02)

    def test_jamming_power_does_not_touch_residual(self):
        reps = []
        for pd in (0.0, 10.0, 1e3, 1e6):
            params, real, cfg = setup(pd=pd, n=400000)
            reps.append(simulate_chain(params, real, cfg).measured_residual_var)
        assert (max(reps) - min(reps)) / min(reps) < 0.02

    def test_determinism(self):
        params, real, cfg = setup(n=100000)
        a = simulate_chain(params, real, cfg)
        b = simulate_chain(params, real, cfg)
        assert a.measured_residual_var == b.measured_residual_var
        assert a.uniformity_pvalue == b.uniformity_pvalue

    def test_zero_gain_rejected(self):
        params, _, cfg = setup()
        dead = ChannelRealization.from_gains(0.0, 3.0)
        with pytest.raises(ValueError):
            simulate_chain(params, dead, cfg)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e4))
    def test_uniformity_pvalue_is_chi2_sf(self, stat):
        from scipy.stats import chi2

        assert _uniformity_pvalue(stat) == pytest.approx(chi2.sf(stat, 63), rel=1e-12, abs=0)

    def test_report_validation(self):
        with pytest.raises(ValueError):
            ChainReport(measured_relay_power=1.0, measured_residual_var=0.5,
                        measured_folded_var=0.5, analytic_sigma_e2=0.5,
                        uniformity_pvalue=0.5, alpha=1.2, beta=0.5)


class TestMmseScalings:
    def test_analytic_values(self):
        params, real, _ = setup()
        assert mmse_scalings(params, real) == (0.75, 0.75)
        params2 = SystemParams(ps=1.0, pd=0.0, sigma2=1.0)
        real2 = ChannelRealization.from_gains(1.0, 10.0)
        a, b = mmse_scalings(params2, real2)
        assert a == pytest.approx(10.0 / 11.0)
        assert b == pytest.approx(0.5)


class TestScanScaling:
    def test_argmin_at_mmse_point(self):
        params, real, cfg = setup(n=150000)
        grid = np.round(np.arange(0.55, 1.0001, 0.05), 10)
        surface = scan_scaling(params, real, cfg, grid, grid)
        i, j = np.unravel_index(np.argmin(surface), surface.shape)
        assert abs(grid[i] - 0.75) <= 0.05 + 1e-9
        assert abs(grid[j] - 0.75) <= 0.05 + 1e-9

    def test_unit_point_pays_the_mmse_gap(self):
        params, real, cfg = setup(n=300000)
        grid_a = np.array([0.75, 1.0])
        surface = scan_scaling(params, real, cfg, grid_a, grid_a)
        gap = surface[1, 1] - surface[0, 0]
        analytic_gap = (residual_variance_bound(params, real, 1.0, 1.0)
                        - residual_variance_bound(params, real, 0.75, 0.75))
        assert gap == pytest.approx(analytic_gap, rel=0.15)

    def test_points_equal_simulate_chain(self):
        # 3 blocks, the last one partial; one draw per block serves the grid
        params, real, cfg = setup(n=300001)
        alphas, betas = np.array([0.6, 0.75, 1.0]), np.array([0.7, 0.9])
        surface = scan_scaling(params, real, cfg, alphas, betas)
        for i, j in ((0, 1), (2, 0)):
            rep = simulate_chain(params, real, cfg, alpha=alphas[i], beta=betas[j])
            assert surface[i, j] == rep.measured_residual_var

    def test_grid_validation(self):
        params, real, cfg = setup(n=10)
        with pytest.raises(ValueError):
            scan_scaling(params, real, cfg, [0.0, 0.5], [0.5])
        with pytest.raises(ValueError):
            scan_scaling(params, real, cfg, [0.5], [1.6])


@pytest.mark.parametrize("ps", [1e-6, 1.0, 10.0, 1e6])
@pytest.mark.parametrize("m", [_BLOCK, 54321])
def test_block_draws_equal_fresh_draws(ps, m):
    # the fresh draws written out, as the chain drew them before its buffers
    params = SystemParams(ps=ps, pd=7.0, sigma2=0.3)
    delta = LatticeConfig(ps=ps, n_symbols=m).delta
    rng = rng_stream(4, 1)
    want = [rng.uniform(-delta / 2, delta / 2, m), rng.uniform(-delta / 2, delta / 2, m),
            np.sqrt(params.pd) * rng.standard_normal(m),
            np.sqrt(params.sigma2) * rng.standard_normal(m),
            np.sqrt(params.sigma2) * rng.standard_normal(m)]
    draws = np.empty((6, _BLOCK))[:, :m]
    latticesim._block_draws(rng_stream(4, 1), draws, delta, params)
    for got, w in zip(draws, want):
        assert got.tobytes() == w.tobytes()


@settings(max_examples=6, deadline=None)
@given(st.sampled_from([1, _BLOCK - 1, _BLOCK + 5, 3 * _BLOCK + 1]), st.integers(0, 2 ** 32 - 1))
def test_chain_does_not_depend_on_workers(n, seed):
    params, real, cfg = setup(g1=2.0, g2=5.0, n=n, seed=seed)
    runs = []
    for workers in (1, 2, 3):
        with mock.patch.object(channel, "_WORKERS", workers):
            runs.append((simulate_chain(params, real, cfg),
                         scan_scaling(params, real, cfg, [0.6, 0.8], [0.7]).tobytes()))
    assert runs[1] == runs[0] and runs[2] == runs[0]


class TestScalingDomain:
    """alpha and beta lie in (0, 1] for simulate_chain, scan_scaling and
    ChainReport alike, and a bad value is refused before any draw."""

    @pytest.fixture
    def no_draws(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("drew blocks for a refused scaling")
        monkeypatch.setattr(latticesim, "_block_draws", refuse)

    @pytest.mark.parametrize("alpha, beta", [(1.2, None), (None, 0.0), (float("nan"), 0.5),
                                             (0.5, float("nan")), (-0.5, 0.5)])
    def test_simulate_chain_refuses_before_drawing(self, alpha, beta, no_draws):
        params, real, cfg = setup()
        with pytest.raises(ValueError, match="scaling factors must lie in"):
            simulate_chain(params, real, cfg, alpha=alpha, beta=beta)

    @pytest.mark.parametrize("alphas, betas", [([0.5, float("nan")], [0.5]),
                                               ([0.5], [float("nan")]), ([0.5], [1.2])])
    def test_scan_scaling_refuses_before_drawing(self, alphas, betas, no_draws):
        params, real, cfg = setup()
        with pytest.raises(ValueError, match="scaling factors must lie in"):
            scan_scaling(params, real, cfg, alphas, betas)

    @pytest.mark.parametrize("lattice_ps", [1.0, 100.0])
    def test_lattice_for_another_power_is_refused_before_drawing(self, lattice_ps, no_draws):
        # the dither would use LatticeConfig.ps and the scalings params.ps
        params, real, _ = setup(ps=10.0)
        cfg = LatticeConfig(ps=lattice_ps, n_symbols=10 ** 6)
        with pytest.raises(ValueError, match="LatticeConfig.ps"):
            simulate_chain(params, real, cfg)
        with pytest.raises(ValueError, match="LatticeConfig.ps"):
            scan_scaling(params, real, cfg, [0.5], [0.5])

    def test_report_refuses_nan(self):
        with pytest.raises(ValueError, match="scaling factors must lie in"):
            ChainReport(measured_relay_power=1.0, measured_residual_var=0.5,
                        measured_folded_var=0.5, analytic_sigma_e2=0.5,
                        uniformity_pvalue=0.5, alpha=float("nan"), beta=0.5)


def test_chain_reports_its_identity_drift():
    # the largest |fold(r - y)| over all blocks: within the run's own 1e-9*delta
    # check, and the same for any worker count
    params, real, cfg = setup(g1=2.0, g2=5.0, n=2 * _BLOCK + 7, seed=9)
    reports = []
    for workers in (1, 2):
        with mock.patch.object(channel, "_WORKERS", workers):
            reports.append(simulate_chain(params, real, cfg))
    drift = reports[0].max_identity_drift
    assert type(drift) is float
    assert 0.0 < drift <= 1e-9 * cfg.delta
    assert reports[1] == reports[0]
