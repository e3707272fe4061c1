"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> PASS` line when its assertions hold
(run with `pytest -s tests/test_acceptance.py` to see them live).
"""

import time

import numpy as np
import pytest

from mfrelay.asymptotics import (Scheme, estimate_gsdof, estimate_gsdg,
                                 gsdg_closed_form, gsdof_closed_form)
from mfrelay.channel import (ChannelRealization, RateConfig, SystemParams,
                             rng_stream, sample_realization)
from mfrelay.cli import load_config, run_fig2, run_fig4
from mfrelay.latticesim import LatticeConfig, simulate_chain
from mfrelay.numerics import bessel_k1
from mfrelay.outage import (mc_outage, p_conn_af, p_conn_mf, p_secrecy_threshold,
                            tradeoff_residual)
from mfrelay.rates import rate_report


def _report(num, detail):
    print(f"\nACCEPTANCE {num} PASS  {detail}")


def test_acceptance_01_half_bit_gap():
    t0 = time.perf_counter()
    n = 10 ** 5
    rng = rng_stream(20260810)
    sigma2 = 10.0 ** rng.uniform(-2, 2, n)
    snr = 10.0 ** (rng.uniform(0.0, 80.0, n) / 10.0)
    rho = rng.uniform(0.0, 3.0, n)
    params = SystemParams(ps=snr * sigma2, pd=snr ** rho * sigma2, sigma2=sigma2)
    real = sample_realization(params, rng, size=n)
    rep = rate_report(params, real)
    u, rs = rep.upper_bound_u, rep.rs_mf
    active = (u > 0) & (rs > 0)
    gap = u[active] - rs[active]
    assert active.sum() > 10 ** 4
    assert np.all(gap >= 0.0)
    assert np.all(gap <= 0.5 + 1e-12)
    clipped = rs == 0.0
    assert np.all(u[clipped] < 0.5)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(1, f"max gap {gap.max():.12f} over {int(active.sum())} active draws, "
               f"U<1/2 on {int(clipped.sum())} clipped draws, {elapsed:.2f}s")


def test_acceptance_02_secrecy_outage_closed_form():
    t0 = time.perf_counter()
    n = 10 ** 6
    worst = 0.0
    for i, ps in enumerate((1.0, 10.0, 100.0)):
        for j, pd in enumerate((1.0, 10.0, 100.0)):
            for k, gamma_s in enumerate((0.5, 1.0, 3.0)):
                params = SystemParams(ps=ps, pd=pd, sigma2=1.0)
                rd = 0.5 * np.log2(1.0 + gamma_s)  # rs = 0 pins gamma_s
                cfg = RateConfig(rd=rd, rs=0.0)
                _, sec, _ = mc_outage(params, cfg, Scheme.MF, n, seed=100 + i,
                                      stream=10 * j + k)
                analytic = p_secrecy_threshold(params, gamma_s)
                z = abs(sec.p_hat - analytic) / max(sec.std_err, 1e-12)
                worst = max(worst, z)
                assert abs(sec.p_hat - analytic) <= 3.0 * sec.std_err, \
                    f"ps={ps} pd={pd} gamma_s={gamma_s}: z={z:.2f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(2, f"27 grid points within 3 SE (worst z {worst:.2f}), {elapsed:.1f}s")


def test_acceptance_03_connection_outage_closed_forms():
    n = 10 ** 6
    worst = {"mf": 0.0, "af": 0.0}
    for i, ps in enumerate((5.0, 10.0, 50.0)):
        for j, pd in enumerate((10.0, 100.0)):
            for k, rd in enumerate((0.5, 1.0, 2.0)):
                params = SystemParams(ps=ps, pd=pd, sigma2=1.0)
                cfg = RateConfig(rd=rd, rs=0.25)
                conn_mf, _, _ = mc_outage(params, cfg, Scheme.MF, n, seed=200 + i,
                                          stream=10 * j + k)
                conn_af, _, _ = mc_outage(params, cfg, Scheme.AF, n, seed=300 + i,
                                          stream=10 * j + k)
                for tag, est, analytic in (("mf", conn_mf, p_conn_mf(params, rd)),
                                           ("af", conn_af, p_conn_af(params, rd))):
                    tol = 3.0 * est.std_err + 3.0 / n  # rule of three when p_hat=1
                    assert abs(est.p_hat - analytic) <= tol, \
                        f"{tag} ps={ps} pd={pd} rd={rd}: diff={abs(est.p_hat - analytic):.2e}"
                    if est.std_err > 0:
                        worst[tag] = max(worst[tag], abs(est.p_hat - analytic) / est.std_err)
    _report(3, f"18 grid points x 2 schemes within 3 SE "
               f"(worst z mf {worst['mf']:.2f}, af {worst['af']:.2f})")


def test_acceptance_04_fig4_reproduction():
    cfg = load_config("fig4", None, {"mc_samples": 0})
    header, rows = run_fig4(cfg)
    col = {name: np.array([r[i] for r in rows]) for i, name in enumerate(header)}
    assert col["rd"][0] == 0.5 and col["rd"][-1] == 15.0
    assert col["p_secrecy"][0] == 1.0
    assert np.all(col["p_conn_af"] >= col["p_conn_mf"] - 1e-12)
    assert np.all(np.diff(col["p_secrecy"]) <= 0.0)
    assert np.all(np.diff(col["p_conn_mf"]) >= 0.0)
    _report(4, f"{len(rows)} rows: AF>=MF connection outage, monotone tradeoff, "
               "certain secrecy outage at rd=rs=1/2")


def test_acceptance_05_fig2_reproduction():
    cfg = load_config("fig2", None, {})
    header, rows = run_fig2(cfg)
    col = {name: np.array([r[i] for r in rows]) for i, name in enumerate(header)}
    assert col["pd"][0] == 1.0 and col["pd"][-1] == pytest.approx(1e8)
    assert np.all(col["gap"] <= 0.5 + 1e-12)
    assert 0.45 <= col["rs_af"][-1] <= 0.55
    grow = col["pd"] > 100.0 * (1 - 1e-9)
    assert np.all(np.diff(col["rs_mf"][grow]) > 0.0)
    _report(5, f"gap<=1/2 on all {len(rows)} rows, rs_af(pd=1e8)="
               f"{col['rs_af'][-1]:.4f}, rs_mf strictly increasing past pd=1e2")


RHO_SET = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


def test_acceptance_06_gsdof_limits():
    worst = 0.0
    for scheme in (Scheme.UPPER, Scheme.MF, Scheme.AF):
        for rho in RHO_SET:
            err = abs(estimate_gsdof(scheme, rho) - gsdof_closed_form(scheme, rho))
            worst = max(worst, err)
            assert err <= 0.05, f"{scheme} rho={rho}: err={err:.4f}"
    for rho in np.linspace(0, 3, 61):
        assert gsdof_closed_form(Scheme.MF, rho) == gsdof_closed_form(Scheme.UPPER, rho)
    _report(6, f"slope fits within 0.05 of closed forms (worst {worst:.4f}); "
               "MF == upper bound exactly")


def test_acceptance_07_gsdg_limits():
    worst = 0.0
    for scheme in (Scheme.UPPER, Scheme.MF, Scheme.AF):
        for rho in RHO_SET:
            err = abs(estimate_gsdg(scheme, rho) - gsdg_closed_form(scheme, rho))
            worst = max(worst, err)
            assert err <= 0.1, f"{scheme} rho={rho}: err={err:.4f}"
    assert estimate_gsdg(Scheme.MF, 3.0) == pytest.approx(1.0, abs=0.1)
    assert estimate_gsdg(Scheme.AF, 1.5) == pytest.approx(0.5, abs=0.1)
    _report(7, f"decay fits within 0.1 of closed forms (worst {worst:.4f}); "
               "MF(rho=3)=1, AF(rho=1.5)=1/2")


def test_acceptance_08_chain_validation():
    t0 = time.perf_counter()
    n = 10 ** 6
    lines = []
    for g1, g2 in ((3.0, 3.0), (1.0, 10.0), (10.0, 1.0)):
        residuals = []
        for pd in (0.0, 10.0, 1e6):
            params = SystemParams(ps=1.0, pd=pd, sigma2=1.0)
            real = ChannelRealization.from_gains(g1, g2)
            rep = simulate_chain(params, real, LatticeConfig(ps=1.0, n_symbols=n, seed=8))
            rel = abs(rep.measured_residual_var - rep.analytic_sigma_e2) / rep.analytic_sigma_e2
            assert rel < 0.02, f"g=({g1},{g2}) pd={pd}: residual off by {rel:.3%}"
            assert abs(rep.measured_relay_power - 1.0) < 0.01
            assert rep.uniformity_pvalue > 1e-3
            residuals.append(rep.measured_residual_var)
        spread = (max(residuals) - min(residuals)) / min(residuals)
        assert spread < 0.02, f"g=({g1},{g2}): pd spread {spread:.3%}"
        lines.append(f"g=({g1:g},{g2:g}) spread {spread:.3%}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(8, "; ".join(lines) + f"; {elapsed:.1f}s")


def test_acceptance_09_k1_accuracy():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    xs = np.logspace(-6, np.log10(30.0), 1000)
    vals = bessel_k1(xs)
    worst = 0.0
    for x, v in zip(xs, vals):
        ref = float(mp.besselk(1, mp.mpf(float(x))))
        rel = abs(v - ref) / ref
        worst = max(worst, rel)
        assert rel <= 1e-10, f"x={x}: rel err {rel:.2e}"
    _report(9, f"1000 points in [1e-6, 30], worst relative error {worst:.2e}")


def test_acceptance_10_tradeoff_relation():
    cfg = RateConfig(rd=1.0, rs=0.5)
    r6 = abs(tradeoff_residual(SystemParams(ps=1e6, pd=1e6, sigma2=1.0), cfg))
    r3 = abs(tradeoff_residual(SystemParams(ps=1e3, pd=1e3, sigma2=1.0), cfg))
    assert r6 < 1e-4
    assert r3 < 1e-1
    _report(10, f"residual {r3:.2e} at snr=1e3, {r6:.2e} at snr=1e6")
