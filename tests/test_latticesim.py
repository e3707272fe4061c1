import math
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfrelay import channel, cli, latticesim
from mfrelay.channel import _BLOCK, _SLICE, ChannelRealization, SystemParams, rng_stream
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
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused, not a NaN with a RuntimeWarning
            for delta in (-1.0, float("nan"), float("inf"), -float("inf"), np.array([1.0, 2.0]),
                          "1.0"):
                with pytest.raises(ValueError, match="delta must be positive and finite"):
                    mod_lattice(1.0, delta)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("wrap", [float, lambda v: np.array([0.5, v, 1.0])],
                             ids=["scalar", "array"])
    def test_x_that_is_not_finite_is_refused(self, bad, wrap):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused, not a NaN with a RuntimeWarning
            with pytest.raises(ValueError, match="x must be finite"):
                mod_lattice(wrap(bad), 1.0)

    @pytest.mark.parametrize("x, delta", [(1e300, 1e-10), (-1e300, 1e-10), (1.0, 1e-320)])
    @pytest.mark.parametrize("wrap", [float, lambda v: np.array([0.5, v, 1.0])],
                             ids=["scalar", "array"])
    def test_x_whose_quotient_overflows_is_refused(self, x, delta, wrap):
        # refused, not -inf (outside [-delta/2, delta/2)) with an overflow RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="x / delta must be finite"):
                mod_lattice(wrap(x), delta)

    @settings(max_examples=300, deadline=None)
    @given(delta=st.floats(min_value=1e-6, max_value=1e6),
           units=st.lists(st.one_of(st.floats(min_value=-1e15, max_value=1e15),
                                    st.integers(-10 ** 6, 10 ** 6).map(lambda k: k + 0.5),
                                    st.sampled_from([-0.0, 0.0, 0.5, -0.5])),
                          min_size=1, max_size=20))
    def test_fold_is_the_cell_expression(self, delta, units):
        # the in-place fold of mod_lattice and the chain stages against the
        # expression it replaced: ties at +-delta/2, -0.0 and |x| up to 1e15*delta
        x = np.array(units) * delta
        want = x - delta * np.floor(x / delta + 0.5)
        kept = x.copy()
        assert mod_lattice(x, delta).tobytes() == want.tobytes()
        assert x.tobytes() == kept.tobytes()  # the input is not overwritten
        got = x.copy()
        assert latticesim._fold(got, delta, np.empty_like(got)) is got
        assert got.tobytes() == want.tobytes()
        for v, w in zip(x, want):
            assert np.float64(mod_lattice(float(v), delta)).tobytes() == w.tobytes()

    def test_ties_and_signed_zero(self):
        d = 2.5
        assert mod_lattice([d / 2, -d / 2], d).tolist() == [-d / 2, -d / 2]
        assert np.signbit(mod_lattice(-0.0, d))


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
        # the CLI's rule for counts and seeds: a whole number, not a bool or a string
        for bad in ({"n_symbols": 2.5}, {"n_symbols": "5"}, {"n_symbols": True},
                    {"n_symbols": float("inf")}, {"n_symbols": 10, "seed": 1.5},
                    {"n_symbols": 10, "seed": False}, {"n_symbols": 10, "seed": "1"},
                    {"n_symbols": 10, "seed": float("nan")}):
            with pytest.raises(ValueError, match="must be an integer"):
                LatticeConfig(ps=1.0, **bad)
        assert LatticeConfig(ps=1.0, n_symbols=1e6, seed=np.int64(3)).n_symbols == 10 ** 6

    @pytest.mark.parametrize("ps", [np.array([1.0, 2.0]), np.array([])])
    def test_array_of_powers_is_refused_by_name(self, ps):
        # one lattice takes one power: numpy used to refuse the array's truth value
        with pytest.raises(ValueError, match="ps must be one positive finite power"):
            LatticeConfig(ps=ps, n_symbols=1)

    @pytest.mark.parametrize("ps", [2, 2.0, 7.3, 1e-200, 1e300])
    def test_one_element_array_of_power_gives_the_scalar_delta(self, ps):
        # float() of a 1-d array used to raise a TypeError
        want = LatticeConfig(ps=ps, n_symbols=10).delta
        got = LatticeConfig(ps=np.array([ps]), n_symbols=10).delta
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_power_whose_cell_width_overflows_is_refused_by_name(self):
        # 12 ps overflows above about 1.498e307: delta used to be inf, with a warning
        top = sys.float_info.max / 12.0  # moved to the largest ps whose 12 ps is finite
        while math.isinf(12.0 * top):
            top = math.nextafter(top, 0.0)
        while math.isfinite(12.0 * math.nextafter(top, math.inf)):
            top = math.nextafter(top, math.inf)
        for ps in (math.nextafter(top, math.inf), 1.6e307, sys.float_info.max):
            with pytest.raises(ValueError, match="ps must be at most DBL_MAX/12"):
                LatticeConfig(ps=ps, n_symbols=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ps in (top, 1.4e307):
                delta = LatticeConfig(ps=np.array([ps]), n_symbols=10).delta
                assert delta == math.sqrt(12.0 * ps) < math.inf

    def test_negative_seed_refused_at_construction(self):
        # it used to pass here and fail only when the chain drew its blocks
        with pytest.raises(ValueError, match="seed must be >= 0"):
            LatticeConfig(ps=1.0, n_symbols=10, seed=-3)


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


def _assembled_draws(rng, m, delta, params, full=None):
    """The 5 rows (u, u1, z, n_r, n_d) of one block of m symbols, put
    together from the parts _block_draws yields (``full`` holds z and n_r)."""
    full = np.empty((2, m)) if full is None else full
    parts = np.empty((3, min(m, channel._SLICE)))
    draws = np.empty((5, m))
    for s, part in zip(channel._slices(m),
                       latticesim._block_draws(rng, full, parts, delta, params), strict=True):
        for row, values in zip(draws, part, strict=True):
            row[s] = values
    return draws


@pytest.mark.parametrize("ps", [1e-6, 1.0, 10.0, 1e6])
@pytest.mark.parametrize("m", [_BLOCK, 54321, 2 ** 15 + 3, 1])
def test_block_draws_equal_fresh_draws(ps, m):
    # the fresh draws written out, as the chain drew them before its buffers
    params = SystemParams(ps=ps, pd=7.0, sigma2=0.3)
    delta = LatticeConfig(ps=ps, n_symbols=m).delta
    rng = rng_stream(4, 1)
    want = [rng.uniform(-delta / 2, delta / 2, m), rng.uniform(-delta / 2, delta / 2, m),
            np.sqrt(params.pd) * rng.standard_normal(m),
            np.sqrt(params.sigma2) * rng.standard_normal(m),
            np.sqrt(params.sigma2) * rng.standard_normal(m)]
    draws = _assembled_draws(rng_stream(4, 1), m, delta, params, np.empty((6, _BLOCK))[:2, :m])
    draws[2] *= np.sqrt(params.pd)  # x_d is drawn at unit power, scaled per operating point
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
                                               ([0.5], [float("nan")]), ([0.5], [1.2]),
                                               (0.5, [0.5]), ([[0.5, 0.6]], [0.5])])
    def test_scan_scaling_refuses_before_drawing(self, alphas, betas, no_draws):
        params, real, cfg = setup()
        grids = np.ndim(alphas) == np.ndim(betas) == 1
        with pytest.raises(ValueError, match="scaling factors must lie in" if grids else "1-d"):
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

    @pytest.mark.parametrize("ps, sigma2, g1", [(1.0, 1.0, [3.0, 0.0]),
                                                (np.array([1.0, 1.0]), 1.0, 3.0),
                                                (1.0, np.array([1.0, 2.0]), 3.0)])
    def test_batch_refused_before_drawing(self, ps, sigma2, g1, no_draws):
        # one dead hop in a batch, or an array ps or sigma2 (one lattice and
        # one noise draw serve every operating point)
        params = SystemParams(ps=ps, pd=np.array([0.0, 10.0]), sigma2=sigma2)
        real = ChannelRealization.from_gains(g1, 3.0)
        cfg = LatticeConfig(ps=1.0, n_symbols=10 ** 6)
        with pytest.raises(ValueError, match="chain simulation needs"):
            simulate_chain(params, real, cfg)

    def test_scan_refuses_a_batch_before_drawing(self, no_draws):
        params, _, cfg = setup()
        for real in (ChannelRealization.from_gains([2.0, 3.0], 3.0),
                     ChannelRealization.from_gains(3.0, 3.0, [1.0, -1.0])):
            with pytest.raises(ValueError, match="one operating point"):
                scan_scaling(params, real, cfg, [0.5], [0.5])

    @pytest.mark.parametrize("field", ["measured_relay_power", "measured_residual_var",
                                       "measured_folded_var", "analytic_sigma_e2"])
    def test_report_power_is_nonnegative(self, field):
        # zero is a nonnegative power; the negative double nearest it is not
        powers = dict.fromkeys(("measured_relay_power", "measured_residual_var",
                                "measured_folded_var", "analytic_sigma_e2"), 0.5)
        report = dict(uniformity_pvalue=0.5, alpha=0.5, beta=0.5)
        assert getattr(ChainReport(**{**powers, field: 0.0}, **report), field) == 0.0
        with pytest.raises(ValueError, match="powers must be nonnegative"):
            ChainReport(**{**powers, field: -1e-300}, **report)

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


@settings(max_examples=100, deadline=None)
@given(g1=st.floats(1e-3, 1e3), g2=st.floats(1e-3, 1e3), pd=st.sampled_from([0.0, 10.0, 1e6]),
       alpha=st.floats(1e-3, 1.0), beta=st.floats(1e-3, 1.0),
       signs=st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0])))
def test_stages_equal_the_chain_formulas(g1, g2, pd, alpha, beta, signs):
    # the chain as its formulas read, evaluated whole, against the in-place stages
    params = SystemParams(ps=2.0, pd=pd, sigma2=0.7)
    real = ChannelRealization.from_gains(g1, g2, *signs)
    delta = LatticeConfig(ps=2.0, n_symbols=1).delta
    draws = _assembled_draws(rng_stream(1, 0), 1000, delta, params)
    u, u1, z, n_r, n_d = draws
    h1, h2 = real.h1, real.h2
    x_d = np.sqrt(pd) * z
    y_r = h1 * u + h2 * x_d + n_r
    x_r = mod_lattice(beta * y_r / h1 + u1, delta)
    y_d = h2 * x_r + n_d
    y = mod_lattice(alpha * y_d / h2 - beta * (h2 / h1) * x_d - u - u1, delta)
    r = (alpha - 1.0) * x_r + (beta - 1.0) * u + beta * n_r / h1 + alpha * n_d / h2

    case = latticesim._Case(s_d=float(np.sqrt(pd)), h1=h1, h2=h2, beta=beta, alpha=alpha)
    got, tmp = np.empty((3, 1000)), np.empty(1000)
    latticesim._relay_stage(draws, case, delta, got[0], tmp)
    latticesim._destination_stage(draws, case, delta, got[0], got[1], tmp)
    latticesim._residual_stage(draws, case, got[0], got[2], tmp)
    for have, want in zip(got, (x_r, y, r)):
        assert have.tobytes() == want.tobytes()
    drift = latticesim._identity_drift(got[2], got[1].copy(), delta, tmp)
    assert drift == np.max(np.abs(mod_lattice(r - y, delta)))


@pytest.mark.parametrize("row", [0, 1])
def test_identity_drift_that_is_not_within_its_bound_is_refused(row):
    # a nan drift used to pass, since nan > bound is False
    ry = np.zeros((2, 8))
    ry[row, 5] = np.nan
    with pytest.raises(ValueError, match="modulo-chain identity violated"):
        latticesim._identity_drift(ry[0], ry[1].copy(), 2.0, np.empty(8))  # y is written over
    ry[row, 5] = 2e-9  # the bound itself passes, the double above it does not
    assert latticesim._identity_drift(ry[0], ry[1].copy(), 2.0, np.empty(8)) == 2e-9
    ry[row, 5] = math.nextafter(2e-9, 1.0)
    with pytest.raises(ValueError, match="modulo-chain identity violated"):
        latticesim._identity_drift(ry[0], ry[1].copy(), 2.0, np.empty(8))


@pytest.mark.parametrize("m", [3, 1000, 2 ** 15 - 3])
def test_histogram_counts_as_np_histogram_does(m):
    # every edge (both ends among them), the doubles just outside the range,
    # +-0 and values beyond the cell, among uniform draws, in a ragged part
    delta = LatticeConfig(ps=1.0, n_symbols=1).delta
    edges = np.linspace(-delta / 2, delta / 2, latticesim._UNIFORMITY_BINS + 1)
    marks = np.concatenate([edges, np.nextafter(edges[[0, -1]], [-np.inf, np.inf]),
                            [-0.0, 0.0, -delta, delta]])
    rng = np.random.default_rng(m)
    x = rng.permutation(np.concatenate([np.resize(marks, m // 2),
                                        rng.uniform(-delta / 2, delta / 2, m - m // 2)]))
    before = x.tobytes()
    got = latticesim._histogram(x, edges, np.empty(m))
    assert got.tolist() == np.histogram(x, bins=edges)[0].tolist()
    assert x.tobytes() == before  # the chain's relay output keeps its values


def _chain_grid():
    """run_chain's grid: gain pairs down, jamming powers (0 among them) across."""
    g1, g2 = (np.array(cli.CHAIN_GAIN_GRID)[:, [k]] for k in (0, 1))
    return np.array(cli.CHAIN_PD_GRID), ChannelRealization.from_gains(g1, g2)


def _fields(report):
    return {f: np.asarray(getattr(report, f), dtype=float)
            for f in ChainReport.__dataclass_fields__}


def _assert_batch_equals_scalar_calls(params, real, cfg, alpha=None, beta=None):
    batch = _fields(simulate_chain(params, real, cfg, alpha=alpha, beta=beta))
    shape = batch["alpha"].shape
    pd, g1, g2, s1, s2, a, b = (np.broadcast_to(v, shape) for v in
                                (params.pd, real.g1, real.g2, real.sign1, real.sign2,
                                 np.nan if alpha is None else alpha,
                                 np.nan if beta is None else beta))
    for idx in np.ndindex(shape):
        point = SystemParams(ps=params.ps, pd=float(pd[idx]), sigma2=params.sigma2)
        one = ChannelRealization(g1=float(g1[idx]), g2=float(g2[idx]),
                                 sign1=float(s1[idx]), sign2=float(s2[idx]))
        scalar = simulate_chain(point, one, cfg, alpha=None if alpha is None else a[idx],
                                beta=None if beta is None else b[idx])
        for name, values in batch.items():
            got = getattr(scalar, name)
            assert type(got) is float
            # tobytes tells -0.0 from 0.0
            assert values[idx].tobytes() == np.float64(got).tobytes(), (name, idx)


@pytest.mark.parametrize("n", [1, 20000, _BLOCK - 1, _BLOCK + 5, 3 * _BLOCK + 1])
def test_batch_equals_scalar_calls(n):
    # each operating point of one batched call is its own scalar call, bit
    # for bit, for any worker count
    pd, real = _chain_grid()
    params = SystemParams(ps=1.0, pd=pd, sigma2=1.0)
    cfg = LatticeConfig(ps=1.0, n_symbols=n, seed=n)
    runs = []
    for workers in (1, 2, 3):
        with mock.patch.object(channel, "_WORKERS", workers):
            runs.append(_fields(simulate_chain(params, real, cfg)))
    for run in runs[1:]:
        assert all(run[f].tobytes() == runs[0][f].tobytes() for f in run)
    assert runs[0]["alpha"].shape == (3, 3)
    _assert_batch_equals_scalar_calls(params, real, cfg)


def test_batch_of_scalings_equals_scalar_calls():
    params, real, cfg = setup(g1=2.0, g2=5.0, pd=0.0, n=_BLOCK + 5, seed=3)
    _assert_batch_equals_scalar_calls(params, real, cfg, alpha=np.array([[0.6], [0.75], [1.0]]),
                                      beta=np.array([0.7, 1.0]))


@pytest.fixture
def counted(monkeypatch):
    """Counts the blocks drawn and the symbols the relay and residual
    stages process."""
    counts = {"blocks": 0, "relayed": 0, "residuals": 0}
    block_draws, relay_stage = latticesim._block_draws, latticesim._relay_stage
    residual_stage = latticesim._residual_stage

    def draws(*args):
        counts["blocks"] += 1
        return block_draws(*args)

    def relay(draws, case, delta, x_r, tmp):
        counts["relayed"] += x_r.size
        relay_stage(draws, case, delta, x_r, tmp)

    def residual(draws, case, x_r, r, tmp):
        counts["residuals"] += r.size
        residual_stage(draws, case, x_r, r, tmp)

    monkeypatch.setattr(latticesim, "_block_draws", draws)
    monkeypatch.setattr(latticesim, "_relay_stage", relay)
    monkeypatch.setattr(latticesim, "_residual_stage", residual)
    return counts


def test_chain_grid_draws_each_block_once(counted):
    n = 3 * _BLOCK + 1
    cli.run_chain({"ps": 1.0, "sigma2": 1.0, "eps1": 1.0, "eps2": 1.0,
                   "mc_samples": n, "seed": 2})
    assert counted["blocks"] == 4  # not 9 * 4
    assert counted["relayed"] == 9 * n
    assert counted["residuals"] == 9 * n  # one residual per case and symbol


@pytest.mark.parametrize("scan", [
    scan_scaling,
    # the batch scan_scaling makes: alpha across, beta down
    lambda params, real, cfg, alphas, betas: simulate_chain(
        params, real, cfg, alpha=np.array(alphas)[None, :], beta=np.array(betas)[:, None]),
], ids=["scan_scaling", "simulate_chain"])
def test_scan_relays_once_per_beta(counted, scan):
    params, real, cfg = setup(n=3 * _BLOCK + 1)
    scan(params, real, cfg, [0.6, 0.75, 1.0], [0.7, 0.9])
    assert counted["blocks"] == 4
    assert counted["relayed"] == 2 * cfg.n_symbols  # 2 betas per block, not 6 pairs
    assert counted["residuals"] == 6 * cfg.n_symbols  # one per pair


def test_sums_add_parts_then_blocks_in_index_order(monkeypatch):
    # each block is cut by _slices; a part's sum of squares is np.sum's, and
    # the parts and then the blocks are added in index order
    n = _BLOCK + 37856
    params, real, cfg = setup(g1=2.0, g2=5.0, n=n, seed=11)
    alpha, beta = mmse_scalings(params, real)
    case = latticesim._Case(s_d=float(np.sqrt(params.pd)), h1=real.h1, h2=real.h2,
                            beta=beta, alpha=alpha)
    k = math.frexp(cfg.delta)[1]
    blocks = []
    for index, size in channel._blocks(n):
        draws = _assembled_draws(rng_stream(cfg.seed, index), size, cfg.delta, params)
        parts = []
        for s in channel._slices(size):
            part = draws[:, s]
            x_r, tmp = np.empty((2, part.shape[1]))
            latticesim._relay_stage(part, case, cfg.delta, x_r, tmp)
            parts.append(np.sum(np.square(x_r * math.ldexp(1.0, -k))))
        blocks.append(sum(parts))
    want = np.ldexp(sum(blocks) / n, 2 * k)

    widths, relay_stage = [], latticesim._relay_stage

    def relay(draws, case, delta, x_r, tmp):
        widths.append(x_r.size)
        relay_stage(draws, case, delta, x_r, tmp)

    monkeypatch.setattr(latticesim, "_relay_stage", relay)
    monkeypatch.setattr(channel, "_WORKERS", 1)  # the blocks' calls in index order
    got = simulate_chain(params, real, cfg).measured_relay_power
    assert np.float64(got).tobytes() == want.tobytes()
    assert widths == [2 ** 15] * 4 + [2 ** 15, 5088]


def test_chain_allocates_about_its_draws():
    # a block holds its 5 draw rows; x_r, y, r and the scratch are slice-sized
    pd, real = _chain_grid()
    params = SystemParams(ps=1.0, pd=pd, sigma2=1.0)
    with mock.patch.object(channel, "_WORKERS", 1):
        # a first call leaves any one-time setup out of the measurement
        simulate_chain(params, real, LatticeConfig(ps=1.0, n_symbols=1))
        tracemalloc.start()
        try:
            simulate_chain(params, real, LatticeConfig(ps=1.0, n_symbols=3 * _BLOCK + 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= 7 * _BLOCK * 8  # 7 block rows of doubles


def test_chain_holds_two_block_rows_per_thread():
    # z and n_r are a block's only full rows: u, u1 and n_d are drawn part by
    # part into slice rows, with x_r, y, r and one scratch row, which also
    # holds the sorted copy the relay histogram counts
    pd, real = _chain_grid()
    params = SystemParams(ps=1.0, pd=pd, sigma2=1.0)
    with mock.patch.object(channel, "_WORKERS", 1):
        simulate_chain(params, real, LatticeConfig(ps=1.0, n_symbols=1))
        tracemalloc.start()
        try:
            simulate_chain(params, real, LatticeConfig(ps=1.0, n_symbols=_BLOCK))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    # 2 block rows and 7 slice rows, with room for the rest
    assert peak <= 8 * (2 * _BLOCK + 7 * _SLICE) + 2 * _SLICE


@pytest.mark.parametrize("grid", ["pd", "alpha"])
def test_empty_batch_draws_nothing(monkeypatch, grid):
    # it used to draw every block of n_symbols for no operating point
    refuse = mock.Mock(side_effect=AssertionError)
    monkeypatch.setattr(latticesim, "rng_stream", refuse)
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", refuse)
    _, real, cfg = setup(n=4 * 10 ** 6)
    if grid == "pd":
        report = simulate_chain(SystemParams(ps=1.0, pd=np.array([]), sigma2=1.0), real, cfg)
        assert all(np.shape(v) == (0,) for v in vars(report).values())
    else:
        out = scan_scaling(SystemParams(ps=1.0, pd=10.0, sigma2=1.0), real, cfg, [], [0.5, 0.6])
        assert out.shape == (0, 2)


def test_chain_makes_one_rng_stream_call_per_block(monkeypatch):
    # the copies that draw u1 and the normals start from the block's own
    # generator; each block's stream is made in the calling thread
    calls = []

    def stream(*args):
        calls.append((args, threading.get_ident()))
        return rng_stream(*args)

    monkeypatch.setattr(latticesim, "rng_stream", stream)
    monkeypatch.setattr(channel, "_WORKERS", 2)
    params, real, cfg = setup(n=3 * _BLOCK + 1, seed=6)
    simulate_chain(params, real, cfg)
    assert calls == [((6, index), threading.get_ident()) for index in range(4)]
