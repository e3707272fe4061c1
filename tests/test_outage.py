import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mfrelay import channel, outage
from mfrelay.asymptotics import Scheme
from mfrelay.channel import (_BLOCK, _SLICE, ChannelRealization, RateConfig, SystemParams,
                             rng_stream, sample_gains, thresholds)
from mfrelay.numerics import Interval
from mfrelay.outage import (MCEstimate, OutageProbs, _k1_arguments, _k1_outage, _secrecy_terms,
                            mc_outage, outage_probs, p_conn_af, p_conn_cutset_lower, p_conn_mf,
                            p_secrecy, p_secrecy_threshold, tradeoff_residual)
from mfrelay.rates import _e2e_snr, _relay_sinr, _threshold, rate_report


def params(ps=10.0, pd=10.0, sigma2=1.0, eps1=1.0, eps2=1.0):
    return SystemParams(ps=ps, pd=pd, sigma2=sigma2, eps1=eps1, eps2=eps2)


class TestCutsetLower:
    def test_oracle_value(self):
        # eps1 = eps2 = 1, gamma_o*sigma2/ps = 0.1 -> 1 - e^-0.2
        p = params(ps=10.0 * (2.0 ** 1.0 - 1.0))  # rd = 0.5 -> gamma_o = 1
        assert p_conn_cutset_lower(p, 0.5) == pytest.approx(0.181269246922018141, rel=1e-12)

    def test_limits(self):
        assert p_conn_cutset_lower(params(ps=1e15), 1.0) == pytest.approx(0.0, abs=1e-12)
        assert p_conn_cutset_lower(params(), 0.0) == 0.0


_WIDE = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)  # log-uniform on [1e-300, 1e300]


def _secrecy_reference(p, gamma_s):
    """The exact secrecy outage at threshold gamma_s in 50-digit mpmath."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        ps, pd, sigma2, eps1, eps2, gs = map(mp.mpf, (p.ps, p.pd, p.sigma2, p.eps1, p.eps2,
                                                      gamma_s))
        return float(ps * eps1 / (ps * eps1 + pd * eps2 * gs) * mp.exp(-gs * sigma2 / (ps * eps1)))


def _cutset_reference(p, gamma_o):
    """The cut-set bound -expm1(-a) at threshold gamma_o in 50-digit mpmath."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        ps, sigma2, eps1, eps2, g = map(mp.mpf, (p.ps, p.sigma2, p.eps1, p.eps2, gamma_o))
        return float(-mp.expm1(-(1 / eps1 + 1 / eps2) * g * sigma2 / ps))


def _conn_reference(p, gamma, af):
    """The exact MF (gamma = gamma_1) or AF (gamma = gamma_o) connection
    outage 1 - exp(-a)*x*K1(x) in mpmath, as -expm1(-a) + exp(-a)*(1 - x*K1(x))
    so that a small outage keeps its digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        ps, pd, sigma2, eps1, eps2, g = map(mp.mpf, (p.ps, p.pd, p.sigma2, p.eps1, p.eps2, gamma))
        q = g * sigma2 / ps
        r, s = ((ps + pd) / ps, 1 / g) if af else (1, 0)
        a = q * (r / eps1 + 1 / eps2)
        x = 2 * q * mp.sqrt((r + s) / (eps1 * eps2))
        if a > 800 or x > 800:
            return 1.0  # exp(-a)*x*K1(x) < 1e-340, as x*K1(x) <= 1 and e^x*K1(x) < 2
        if x < 1e-20:
            # the two leading terms of DLMF 10.31.1; the next is x^2 times smaller
            one_minus_x_k1 = x ** 2 / 4 * (2 * mp.log(2 / x) + 1 - 2 * mp.euler)
        else:
            with mp.workdps(90):  # the subtraction loses 40 digits at x = 1e-20
                one_minus_x_k1 = 1 - x * mp.besselk(1, x)
        return float(-mp.expm1(-a) + mp.exp(-a) * one_minus_x_k1)


class TestSecrecy:
    def test_certain_outage_at_equal_rates(self):
        assert p_secrecy(params(), RateConfig(rd=0.5, rs=0.5)) == 1.0

    def test_no_jamming(self):
        p = params(pd=0.0)
        assert p_secrecy_threshold(p, 1.0) == pytest.approx(np.exp(-0.1), rel=1e-12)

    def test_oracle_value(self):
        assert p_secrecy_threshold(params(), 1.0) == pytest.approx(
            0.452418709017979787, rel=1e-12)

    def test_asymptotic_close_at_high_snr(self):
        # the first-order law pref*(1 - u), written out here
        p = params(ps=1e4, pd=1e4)
        exact = p_secrecy_threshold(p, 1.0)
        pref = p.ps * p.eps1 / (p.ps * p.eps1 + p.pd * p.eps2 * 1.0)
        u = 1.0 * p.sigma2 / (p.ps * p.eps1)
        assert pref * (1.0 - u) == pytest.approx(exact, rel=1e-6)

    def test_ps_eps1_overflow(self):
        # ps*eps1 overflows to inf, where the direct prefactor reads inf/inf
        p = SystemParams(ps=np.array([1e200, 1e300]), pd=10, sigma2=1, eps1=1e200, eps2=1e200)
        assert p_secrecy(p, RateConfig(1, 0.5)) == pytest.approx(1.0, rel=1e-12)
        # the prefactor's ratio form against the exact 1e400/(1e400 + 1e600)
        p = SystemParams(ps=1e200, pd=1e300, sigma2=1, eps1=1e200, eps2=1e300)
        assert p_secrecy_threshold(p, 1.0) == pytest.approx(1e-200, rel=1e-12)

    def test_ps_eps1_underflow(self):
        # ps*eps1 underflows to 0, where the direct prefactor reads 0/0
        p = SystemParams(ps=1e-200, pd=0.0, sigma2=1.0, eps1=1e-200)
        assert p_secrecy(p, RateConfig(1.0, 0.5)) == 0.0

    @pytest.mark.parametrize("ps, pd, sigma2, eps1, eps2, gamma_s", [
        # ps*eps1 is normal but pd*eps2*gamma_s overflows: the prefactor is
        # 1/(1 + 1e12), not the 0 of 1e298/inf
        (1e298, 1e300, 1.0, 1.0, 1e10, 1.0),
        (1e200, 1.0, 1e300, 1e200, 1.0, 1e10),      # gamma_s*sigma2, ps*eps1 overflow; u ~ 1e-90
        (1e-160, 1.0, 1e-300, 1e-160, 1.0, 1e-25),  # both underflow; u ~ 1e-5
        (1e150, 1.0, 1e300, 1e158, 1.0, 1e10),      # only gamma_s*sigma2 overflows; u ~ 100
    ])
    def test_out_of_range_products_against_mpmath(self, ps, pd, sigma2, eps1, eps2, gamma_s):
        p = SystemParams(ps=ps, pd=pd, sigma2=sigma2, eps1=eps1, eps2=eps2)
        got = p_secrecy_threshold(p, gamma_s)
        assert abs(got - _secrecy_reference(p, gamma_s)) <= 1e-10 * got

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[_WIDE] * 4), st.one_of(st.just(0.0), _WIDE),
           st.floats(0.0, 500.0, exclude_max=True), st.floats(0.0, 1.0))
    def test_in_the_unit_interval_over_the_double_range(self, powers, pd, rd, frac):
        ps, sigma2, eps1, eps2 = powers
        p = SystemParams(ps=ps, pd=pd, sigma2=sigma2, eps1=eps1, eps2=eps2)
        rc = RateConfig(rd=rd, rs=rd * frac)
        th = thresholds(rc)
        # the logs carry an absolute error of about 1e-13 into an exponent
        # of at most 745, so 1e-9 relative, and the result may be subnormal;
        # the references take the thresholds as the library rounds them, and
        # the zero-rate convention (AF's gamma_o is 0 also for rd below 8e-17)
        for got, want in ((p_secrecy(p, rc), _secrecy_reference(p, th.gamma_s)),
                          (p_conn_mf(p, rd), _conn_reference(p, th.gamma_1, af=False)
                           if rd > 0 else 0.0),
                          (p_conn_af(p, rd), _conn_reference(p, th.gamma_o, af=True)
                           if th.gamma_o > 0 else 0.0),
                          (p_conn_cutset_lower(p, rd), _cutset_reference(p, th.gamma_o)
                           if th.gamma_o > 0 else 0.0)):
            assert 0.0 <= got <= 1.0
            assert abs(got - want) <= 1e-9 * want + 1e-300
        cut = p_conn_cutset_lower(p, rd)
        assert cut <= p_conn_mf(p, rd) and cut <= p_conn_af(p, rd)
        assert np.isfinite(tradeoff_residual(p, rc))


class TestConnMf:
    def test_high_power_limit(self):
        # x*K1(x) -> 1 makes the closed form vanish
        assert p_conn_mf(params(ps=1e12), 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_zero_rate_convention(self):
        assert p_conn_mf(params(), 0.0) == 0.0

    def test_independent_of_pd(self):
        assert p_conn_mf(params(pd=0.0), 1.0) == p_conn_mf(params(pd=1e9), 1.0)

    @pytest.mark.parametrize("ps, sigma2, eps1, eps2, rd", [
        (1e300, 1e9, 1e10, 1e10, 500.0),    # x's numerator and denominator overflow: inf/inf
        (100.0, 5e-324, 5e-324, 1.0, 1.0),  # 1/eps1 overflows, so a read inf
    ])
    def test_products_out_of_range_come_from_logs(self, ps, sigma2, eps1, eps2, rd):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            ps_, s2, e1, e2 = (mp.mpf(v) for v in (ps, sigma2, eps1, eps2))
            gamma_1 = mp.mpf(2) ** (2 * mp.mpf(rd)) - mp.mpf(0.5)
            x = 2 * gamma_1 * s2 / (ps_ * mp.sqrt(e1 * e2))
            want = 1 - mp.exp(-(1 / e1 + 1 / e2) * gamma_1 * s2 / ps_) * x * mp.besselk(1, x)
        got = p_conn_mf(params(ps=ps, sigma2=sigma2, eps1=eps1, eps2=eps2), rd)
        assert abs(got - want) <= 1e-10 * want

    def test_asymptotic_convergence(self):
        # against the first-order law (1/eps1 + 1/eps2)*gamma_1*sigma2/ps =
        # 2*gamma_1/ps here, the relative error decays like u*ln(1/u) in
        # u = gamma_1*sigma2/ps; measured: 3.3% at u = 0.01, under 2% from u ~ 0.004
        for rd in (0.25, 0.5, 1.0):
            gamma_1 = 2.0 ** (2 * rd) - 0.5
            rel = []
            for u in (0.01, 0.004, 0.001):
                p = params(ps=gamma_1 / u)
                exact = p_conn_mf(p, rd)
                rel.append(abs(2.0 * gamma_1 / p.ps - exact) / exact)
            assert rel[0] < 0.04
            assert rel[1] < 0.02
            assert rel[2] < 0.006
            assert rel[0] > rel[1] > rel[2]


@pytest.mark.parametrize("snr", [1e3, 1e6, 1e9, 1e12, 1e15, 1e18])
@pytest.mark.parametrize("rho", [1.0, 1.5])  # pd = snr^rho; AF at pd >> ps
@pytest.mark.parametrize("conn", [p_conn_mf, p_conn_af])
def test_connection_outage_relative_error_at_high_snr(snr, rho, conn):
    # 1 - exp(-a)*x*K1(x) cancels as x -> 0: its direct form was 2.6e-5 off
    # at snr = 1e12 and read 0 at 1e18
    p = params(ps=snr, pd=snr ** rho)
    th = thresholds(RateConfig(1.0, 0.5))
    af = conn is p_conn_af
    want = _conn_reference(p, th.gamma_o if af else th.gamma_1, af)
    assert abs(conn(p, 1.0) - want) <= 1e-10 * want


class TestConnAf:
    def test_zero_rate_convention(self):
        assert p_conn_af(params(), 0.0) == 0.0
        # gamma_o = 0 takes the log form of (a, x) and reads 0 beside a live point
        for conn in (p_conn_af, p_conn_cutset_lower):
            assert conn(params(), np.array([0.0, 1.0])).tolist() == [0.0, conn(params(), 1.0)]

    def test_vanishes_at_high_snr_when_rho_below_2(self):
        vals = []
        for snr in (1e4, 1e6, 1e8):
            p = params(ps=snr, pd=snr ** 1.5)
            vals.append(p_conn_af(p, 1.0))
        assert vals[0] > vals[1] > vals[2]
        assert vals[-1] < 1e-3

    def test_floors_when_rho_above_2(self):
        vals = [p_conn_af(params(ps=snr, pd=snr ** 2.5), 1.0) for snr in (1e4, 1e6)]
        assert min(vals) > 0.5


class TestClosedFormRanges:
    def test_probabilities_in_unit_interval_on_random_grid(self):
        rng = rng_stream(3)
        n = 10 ** 4
        ps = 10.0 ** rng.uniform(-1, 6, n)
        pd = 10.0 ** rng.uniform(-3, 8, n)
        sigma2 = 10.0 ** rng.uniform(-2, 2, n)
        eps1 = 10.0 ** rng.uniform(-1, 1, n)
        eps2 = 10.0 ** rng.uniform(-1, 1, n)
        rd = rng.uniform(0.01, 6.0)
        gamma_s = rng.uniform(0.0, 50.0)
        p = SystemParams(ps=ps, pd=pd, sigma2=sigma2, eps1=eps1, eps2=eps2)
        for vals in (p_conn_cutset_lower(p, rd), p_conn_mf(p, rd),
                     p_conn_af(p, rd), p_secrecy_threshold(p, gamma_s)):
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_cutset_below_mf_everywhere(self):
        rng = rng_stream(4)
        n = 2000
        p = SystemParams(ps=10.0 ** rng.uniform(-1, 5, n), pd=1.0,
                         sigma2=10.0 ** rng.uniform(-1, 1, n),
                         eps1=10.0 ** rng.uniform(-1, 1, n),
                         eps2=10.0 ** rng.uniform(-1, 1, n))
        for rd in (0.25, 1.0, 3.0):
            assert np.all(p_conn_cutset_lower(p, rd) <= p_conn_mf(p, rd) + 1e-12)

    def test_cutset_below_af_where_the_exponents_round_apart(self):
        # at pd = 0 MF's and AF's a are equal in exact arithmetic, but AF's
        # rounds one ulp below here; MF's a put the bound one ulp above AF
        p = params(ps=2.544368187907291e38, pd=0.0, sigma2=126.40008819047684,
                   eps1=1.0551810109034164e31, eps2=0.04567558232595234)
        rd = 39.94476633482685
        cut = p_conn_cutset_lower(p, rd)
        assert cut <= p_conn_af(p, rd) and cut <= p_conn_mf(p, rd)
        assert cut == pytest.approx(_cutset_reference(p, thresholds(RateConfig(rd, 0.0)).gamma_o),
                                    rel=1e-15)

    def test_mf_below_af_under_strong_jamming(self):
        # ordering regime: pd >= ps, rd >= 1/2 (the reference figure setting)
        rng = rng_stream(5)
        n = 2000
        ps = 10.0 ** rng.uniform(0, 4, n)
        p = SystemParams(ps=ps, pd=ps * 10.0 ** rng.uniform(0, 3, n), sigma2=1.0)
        for rd in (0.5, 1.0, 2.0):
            assert np.all(p_conn_mf(p, rd) <= p_conn_af(p, rd) + 1e-12)

    def test_monotonicity(self):
        ps_grid = np.logspace(0, 4, 30)
        vals = p_conn_mf(SystemParams(ps=ps_grid, pd=1.0, sigma2=1.0), 1.0)
        assert np.all(np.diff(vals) < 0)
        pd_grid = np.logspace(-2, 6, 30)
        sec = p_secrecy_threshold(SystemParams(ps=10.0, pd=pd_grid, sigma2=1.0), 1.0)
        assert np.all(np.diff(sec) < 0)
        ps_grid2 = np.logspace(0, 4, 30)
        sec2 = p_secrecy_threshold(SystemParams(ps=ps_grid2, pd=10.0, sigma2=1.0), 1.0)
        assert np.all(np.diff(sec2) > 0)

    def test_rate_tradeoff_directions(self):
        # for fixed rs, raising rd lowers secrecy outage and raises connection
        # outage (strictly, until the closed form saturates at 1.0 in floats)
        p = params()
        rds = np.linspace(0.5, 2.75, 25)
        sec = np.array([p_secrecy(p, RateConfig(rd=rd, rs=0.5)) for rd in rds])
        conn = np.array([p_conn_mf(p, rd) for rd in rds])
        assert np.all(np.diff(sec) < 0)
        assert np.all(np.diff(conn) > 0)


    def test_rd_overflow_names_rd(self):
        # 2^(2 rd) overflows a double from rd = 512 on; every user of the
        # power says so before numpy can warn or K1 sees inf
        p = params()
        calls = (lambda rd: thresholds(RateConfig(rd=rd, rs=0.5)),
                 lambda rd: p_conn_mf(p, rd), lambda rd: p_conn_af(p, rd),
                 lambda rd: p_conn_cutset_lower(p, rd),
                 lambda rd: p_conn_mf(p, np.array([1.0, rd])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(ValueError, match="rd must be below 512"):
                    call(512.0)
                call(500.0)

    @pytest.mark.parametrize("call, rate, name", [
        (p_secrecy_threshold, -0.5, "gamma_s"),   # read 2.10
        (p_secrecy_threshold, -2.0, "gamma_s"),   # read nan
        (p_secrecy_threshold, np.nan, "gamma_s"),
        (p_conn_mf, -1.0, "rd"),                  # read 0.0 with a log warning
        (p_conn_af, np.nan, "rd"),                # read 0.0
        (p_conn_cutset_lower, -1.0, "rd"),        # read 0.0
        (p_conn_mf, np.array([1.0, np.nan]), "rd"),
    ])
    def test_negative_or_nan_rate_is_refused(self, call, rate, name):
        # _gamma is the one gate for a rate, p_secrecy_threshold for a threshold
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} must be a nonnegative"):
                call(params(), rate)

    @pytest.mark.parametrize("pd", [0.0, 10.0])
    def test_infinite_secrecy_threshold_gives_0(self, pd):
        # pd*eps2*gamma_s is 0*inf at pd = 0; the outage is pref*exp(-inf) = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert p_secrecy_threshold(params(pd=pd), np.inf) == 0.0

    def test_threshold_powers_unchanged(self):
        rd = np.array([0.0, 0.25, 1.0, 3.7, 15.0, 100.0])
        p = params()
        expo = (1.0 / p.eps1 + 1.0 / p.eps2) * (2.0 ** (2.0 * rd) - 1.0) * p.sigma2 / p.ps
        assert np.array_equal(p_conn_cutset_lower(p, rd), -np.expm1(-expo))
        for r in rd:
            th = thresholds(RateConfig(rd=float(r), rs=0.0))
            assert th.gamma_o == 2.0 ** (2.0 * float(r)) - 1.0


class TestTotalOutageBounds:
    def test_bound_pair(self):
        probs = outage_probs(params(), RateConfig(rd=1.0, rs=0.5))
        assert probs.p_total_lower == max(probs.p_conn, probs.p_secrecy)
        assert probs.p_total_upper == min(1.0, probs.p_conn + probs.p_secrecy)
        assert probs.p_total_lower <= probs.p_total_upper <= 2 * probs.p_total_lower

    def test_component_validation(self):
        with pytest.raises(ValueError):
            OutageProbs.from_components(1.2, 0.0)


class TestTradeoffResidual:
    def test_first_order_terms_obey_the_linear_relation(self):
        # at first order pl/pref = 1 - u and po = a, so the relation holds
        # exactly where weight*a = u
        th = thresholds(RateConfig(rd=1.0, rs=0.5))
        for snr in (1e2, 1e4, 1e6):
            p = params(ps=snr, pd=snr, eps1=2.0, eps2=0.5)
            weight = (th.gamma_s / th.gamma_1) * (p.eps2 / (p.eps1 + p.eps2))
            a = _k1_arguments(p, th.gamma_1, af=False)[0]
            _, u = _secrecy_terms(p, th.gamma_s)
            assert weight * a == pytest.approx(u, rel=1e-12)

    def test_exact_residual_converges(self):
        rc = RateConfig(rd=1.0, rs=0.5)
        r3 = abs(tradeoff_residual(params(ps=1e3, pd=1e3), rc))
        r6 = abs(tradeoff_residual(params(ps=1e6, pd=1e6), rc))
        assert r3 < 1e-1
        assert r6 < 1e-4
        assert r6 < r3

    @pytest.mark.parametrize("p", [params(ps=1e300, pd=1.0, eps1=1e10),
                                   params(ps=1e298, pd=1e300, eps2=1e10)])
    def test_finite_where_a_product_overflows(self, p):
        # ps*eps1, then pd*eps2*gamma_s overflow; the secrecy term is about 1 and 0
        assert np.isfinite(tradeoff_residual(p, RateConfig(rd=1.0, rs=0.5)))

    def test_gamma1_guard(self):
        # gamma_1 = 2^(2 rd) - 1/2 >= 1/2 for valid configs, so no trigger
        # is reachable through RateConfig; the guard protects raw calls
        assert tradeoff_residual(params(), RateConfig(rd=0.0, rs=0.0)) is not None


class TestMonteCarlo:
    @pytest.mark.parametrize("scheme, named", [
        ("mf", "'mf'"), (None, "None"), ((), "()"), ((Scheme.MF, "af"), "'af'"),
        ((Scheme.MF, None), "None")])
    def test_a_value_that_is_not_a_scheme_is_refused(self, scheme, named):
        # "af" used to get the cut-set event, and () failed after drawing every block
        with mock.patch.object(outage, "_map_blocks") as map_blocks:
            with pytest.raises(ValueError, match=re.escape(f"scheme must be a Scheme, not {named}")):
                mc_outage(params(), RateConfig(rd=1.0, rs=0.5), scheme, 1000, 1)
        map_blocks.assert_not_called()

    def test_cutset_matches_closed_form(self):
        p = params()
        conn, _, _ = mc_outage(p, RateConfig(rd=1.0, rs=0.5), Scheme.UPPER, 10 ** 6, 11)
        cf = p_conn_cutset_lower(p, 1.0)
        assert abs(conn.p_hat - cf) <= 3 * conn.std_err
        # rd = 0: no rate is below it, in the draws as in the closed form
        conn, _, _ = mc_outage(p, RateConfig(rd=0.0, rs=0.0), Scheme.UPPER, 10 ** 5, 11)
        assert conn.p_hat == p_conn_cutset_lower(p, 0.0) == 0.0

    def test_mf_and_af_match_closed_forms(self):
        p = params()
        rc = RateConfig(rd=1.0, rs=0.5)
        conn_mf, sec, _ = mc_outage(p, rc, Scheme.MF, 10 ** 6, 12)
        conn_af, _, _ = mc_outage(p, rc, Scheme.AF, 10 ** 6, 12)
        assert abs(conn_mf.p_hat - p_conn_mf(p, 1.0)) <= 3 * conn_mf.std_err
        assert abs(conn_af.p_hat - p_conn_af(p, 1.0)) <= 3 * conn_af.std_err
        assert abs(sec.p_hat - p_secrecy(p, rc)) <= 3 * sec.std_err
        # rd = 0: MF's rate is clipped at 0, so neither scheme's is below it
        (conn_mf, _, _), (conn_af, _, _) = mc_outage(p, RateConfig(rd=0.0, rs=0.0),
                                                     (Scheme.MF, Scheme.AF), 10 ** 5, 12)
        assert conn_mf.p_hat == p_conn_mf(p, 0.0) == 0.0
        assert conn_af.p_hat == p_conn_af(p, 0.0) == 0.0

    def test_secrecy_estimate_is_scheme_independent(self):
        p = params()
        rc = RateConfig(rd=1.0, rs=0.5)
        _, sec_mf, _ = mc_outage(p, rc, Scheme.MF, 10 ** 5, 13)
        _, sec_af, _ = mc_outage(p, rc, Scheme.AF, 10 ** 5, 13)
        _, sec_cut, _ = mc_outage(p, rc, Scheme.UPPER, 10 ** 5, 13)
        assert sec_mf.p_hat == sec_af.p_hat == sec_cut.p_hat

    def test_joint_obeys_union_bounds(self):
        p = params()
        rc = RateConfig(rd=1.0, rs=0.5)
        conn, sec, joint = mc_outage(p, rc, Scheme.MF, 10 ** 5, 14)
        assert max(conn.p_hat, sec.p_hat) <= joint.p_hat <= conn.p_hat + sec.p_hat

    def test_bitwise_reproducible(self):
        p = params()
        rc = RateConfig(rd=1.0, rs=0.5)
        a = mc_outage(p, rc, Scheme.MF, 300001, 15)
        b = mc_outage(p, rc, Scheme.MF, 300001, 15)
        assert all(x.p_hat == y.p_hat for x, y in zip(a, b))
        c = mc_outage(p, rc, Scheme.MF, 300001, 16)
        assert c[0].p_hat != a[0].p_hat

    def test_one_pass_equals_one_pass_per_scheme(self):
        # n spans two blocks; drawing once for (MF, AF) must count exactly
        # what one block loop per scheme counts
        p = params(ps=4.0, pd=8.0)
        rc = RateConfig(rd=1.0, rs=0.5)
        n, seed, stream = (1 << 17) + 5, 21, 3
        both = mc_outage(p, rc, (Scheme.MF, Scheme.AF), n, seed, stream)
        th = thresholds(rc)
        for scheme, estimates in zip((Scheme.MF, Scheme.AF), both):
            ref = [0, 0, 0]
            for block, m in enumerate((1 << 17, 5)):
                g1, g2 = sample_gains(p, rng_stream(seed, (stream, block)), m)
                conn = _e2e_snr(scheme, p, g1, g2) < _threshold(scheme, rc.rd)
                sec = p.ps * g1 / (p.pd * g2 + p.sigma2) > th.gamma_s
                for k, event in enumerate((conn, sec, conn | sec)):
                    ref[k] += int(np.count_nonzero(event))
            assert estimates == tuple(MCEstimate.from_counts(h, n) for h in ref)
            assert mc_outage(p, rc, scheme, n, seed, stream) == estimates

    @pytest.mark.parametrize("m", [_BLOCK, 12345])
    def test_block_gains_equal_fresh_draws(self, monkeypatch, m):
        # a block draws g1 whole into its buffer row and g2 part by part into
        # slice scratch: the parts the events read are sample_gains' draws
        p = params(eps1=1.7, eps2=0.3)
        seen, relay_sinr = [], outage._relay_sinr

        def record(p, g1, g2, *scratch):
            seen.append((g1.copy(), g2.copy()))
            return relay_sinr(p, g1, g2, *scratch)

        monkeypatch.setattr(outage, "_relay_sinr", record)
        monkeypatch.setattr(channel, "_WORKERS", 1)
        mc_outage(p, RateConfig(rd=1.0, rs=0.5), Scheme.MF, m, 8, 2)
        assert [g1.size for g1, _ in seen] == [min(_SLICE, m - k) for k in range(0, m, _SLICE)]
        for got, want in zip(zip(*seen), sample_gains(p, rng_stream(8, (2, 0)), m)):
            assert np.concatenate(got).tobytes() == want.tobytes()

    def test_block_holds_one_block_row(self):
        # g1 is a block's one whole row; g2, the SNR and its scratch are 3
        # float slice rows, beside the 2 bool rows of the events
        p, rc, schemes = params(), RateConfig(rd=1.0, rs=0.5), (Scheme.MF, Scheme.AF)
        with mock.patch.object(channel, "_WORKERS", 1):
            mc_outage(p, rc, schemes, 1, 1)  # one-time setup left out
            tracemalloc.start()
            try:
                mc_outage(p, rc, schemes, _BLOCK, 1)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= 8 * _BLOCK + (3 * 8 + 2) * _SLICE + 2 * _SLICE  # with room for the rest

    def test_extreme_jamming_raises_no_warning(self):
        # pd*g2 overflows to inf, which both events compare exactly
        p = params(pd=1e308)
        rc = RateConfig(rd=1.0, rs=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ((conn, sec, joint),) = mc_outage(p, rc, (Scheme.AF,), 1000, 3)
        assert sec.p_hat == 0 and conn == joint  # the relay hears only jamming

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from([1, _BLOCK - 1, _BLOCK + 5, 3 * _BLOCK + 1]),
           st.integers(0, 2 ** 32 - 1))
    def test_counts_do_not_depend_on_workers(self, n, seed):
        p = params(ps=4.0, pd=8.0)
        rc = RateConfig(rd=1.0, rs=0.5)
        estimates = []
        for workers in (1, 2, 3):
            with mock.patch.object(channel, "_WORKERS", workers):
                estimates.append(mc_outage(p, rc, (Scheme.MF, Scheme.AF), n, seed, 2))
        assert estimates[1] == estimates[0] and estimates[2] == estimates[0]

    @settings(max_examples=10, deadline=None)
    @given(n=st.sampled_from([1, _BLOCK - 1, _BLOCK + 5, 3 * _BLOCK + 1]),
           seed=st.integers(0, 2 ** 32 - 1),
           rows=st.lists(st.tuples(st.floats(1.0, 1e4), st.floats(0.1, 4.0),
                                   st.integers(0, 10 ** 6)),
                         min_size=1, max_size=4, unique_by=lambda row: row[2]))
    def test_batched_counts_equal_per_row_calls(self, n, seed, rows):
        # k rows with their own ps, rd and stream on one pool estimate what k
        # calls estimate, field for field
        ps, rd, stream = map(np.array, zip(*rows))
        schemes = (Scheme.MF, Scheme.AF)
        want = [mc_outage(params(ps=a, pd=8.0), RateConfig(rd=b, rs=b / 2), schemes, n, seed, c)
                for a, b, c in rows]
        for workers in (1, 2, 3):
            with mock.patch.object(channel, "_WORKERS", workers):
                got = mc_outage(params(ps=ps, pd=8.0), RateConfig(rd=rd, rs=rd / 2), schemes,
                                n, seed, stream)
            assert [tuple(tuple(_at(est, k) for est in events) for events in got)
                    for k in range(len(rows))] == want

    def test_streams_are_disjoint(self):
        p = params()
        rc = RateConfig(rd=1.0, rs=0.5)
        a = mc_outage(p, rc, Scheme.MF, 10 ** 4, 15, stream=0)
        b = mc_outage(p, rc, Scheme.MF, 10 ** 4, 15, stream=1)
        assert a[0].p_hat != b[0].p_hat

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            mc_outage(params(), RateConfig(rd=1.0, rs=0.5), Scheme.MF, 0, 1)

    @pytest.mark.parametrize("n", [2.5, "5", True, float("nan"), float("inf")])
    def test_sample_count_must_be_an_integer(self, n):
        rc = RateConfig(rd=1.0, rs=0.5)
        with pytest.raises(ValueError, match="integer n >= 1"):
            mc_outage(params(), rc, Scheme.MF, n, 1)
        with pytest.raises(ValueError, match="integer n >= 1"):
            mc_outage(params(ps=np.array([4.0, 5.0])), rc, (Scheme.MF, Scheme.AF), n, 1)

    def test_integral_float_count(self):
        rc = RateConfig(rd=1.0, rs=0.5)
        want = mc_outage(params(), rc, Scheme.MF, 10 ** 4, 1)
        assert mc_outage(params(), rc, Scheme.MF, 1e4, 1) == want  # a whole float counts, as in the CLI

    @pytest.mark.parametrize("seed, stream", [(1.5, 0), (1, 2.7)])
    def test_seed_and_stream_must_be_whole(self, seed, stream):
        # int() used to make seed 1.5 run seed 1 and stream 2.7 run stream 2
        with pytest.raises(ValueError, match="must be a whole number"):
            mc_outage(params(), RateConfig(rd=1.0, rs=0.5), Scheme.MF, 1000, seed, stream)

    def test_one_point_gives_python_numbers(self):
        for est in mc_outage(params(), RateConfig(rd=1.0, rs=0.5), Scheme.MF, 1000, 1):
            assert type(est.n) is int
            assert all(type(v) is float for v in (est.p_hat, est.std_err, *vars(est.ci95).values()))

    def test_zero_points_give_empty_counts_without_a_pool(self):
        # a ThreadPoolExecutor of 0 workers used to refuse to start
        schemes = (Scheme.MF, Scheme.AF)
        with mock.patch("concurrent.futures.ThreadPoolExecutor", side_effect=AssertionError):
            flat = mc_outage(params(), RateConfig(1.0, 0.5), schemes, 10, 1, np.arange(0))
            grid = mc_outage(params(ps=np.array([[4.0], [5.0]])), RateConfig(1.0, 0.5), schemes,
                             10, 1, np.arange(0))
        for out, shape in ((flat, (0,)), (grid, (2, 0))):
            assert len(out) == len(schemes) and all(len(events) == 3 for events in out)
            for est in (est for events in out for est in events):
                fields = (est.p_hat, est.std_err, est.ci95.lo, est.ci95.hi)
                assert all(np.shape(v) == shape for v in fields)

    @pytest.mark.parametrize("hits, n", [(5, 3), (-1, 3), (0, 0), (1, -1), (1, 2.5), (1, True)])
    def test_hits_outside_0_n_are_refused_by_name(self, hits, n):
        # hits = 5 of 3 used to warn in sqrt, then fail on the interval's endpoints;
        # n = 2.5 used to be kept as the estimate's n
        with pytest.raises(ValueError, match="hits must lie in"):
            MCEstimate.from_counts(hits, n)

    @pytest.mark.parametrize("n", [10.0, np.int64(10)])
    def test_n_is_stored_as_an_int(self, n):
        est = MCEstimate.from_counts(3, n)
        assert type(est.n) is int and est.n == 10
        assert est == MCEstimate.from_counts(3, 10)

    def test_estimate_fields(self):
        est = MCEstimate.from_counts(250, 1000)
        assert est.p_hat == 0.25
        assert est.std_err == pytest.approx(np.sqrt(0.25 * 0.75 / 1000))
        # the textbook Wilson score interval at z = 1.96: about [0.22415, 0.27776]
        z, n, p = 1.96, 1000, 0.25
        center = (p + z * z / (2 * n)) / (1 + z * z / n)
        half = z / (1 + z * z / n) * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
        assert est.ci95.lo == pytest.approx(center - half, rel=1e-12)
        assert est.ci95.hi == pytest.approx(center + half, rel=1e-12)
        assert est.ci95.lo == pytest.approx(0.22415, abs=1e-5)
        assert est.ci95.hi == pytest.approx(0.27776, abs=1e-5)
        assert est.ci95.contains(0.25)

    @pytest.mark.parametrize("hits, n", [(0, 1000), (1000, 1000), (0, 1), (1, 1), (0, 10 ** 10)])
    def test_interval_is_not_zero_width_at_0_or_n_hits(self, hits, n):
        # the Wald interval p +- 1.96 SE is [p, p] there
        est = MCEstimate.from_counts(hits, n)
        assert est.std_err == 0.0
        assert est.ci95.width > 0 and est.ci95.contains(est.p_hat)
        assert 0.0 <= est.ci95.lo <= est.ci95.hi <= 1.0

    def test_counts_array_estimates_each_count(self):
        hits = np.array([[0, 3], [250, 1000]])
        est = MCEstimate.from_counts(hits, 1000)
        assert np.shape(est.p_hat) == np.shape(est.ci95.lo) == hits.shape
        assert all(_at(est, k) == MCEstimate.from_counts(int(h), 1000)
                   for k, h in np.ndenumerate(hits))
        with pytest.raises(ValueError, match="hits must lie in"):
            MCEstimate.from_counts(np.array([0, 1001]), 1000)


def _at(est: MCEstimate, index) -> MCEstimate:
    """The estimate at one index of an array-valued estimate, as Python numbers."""
    return MCEstimate(p_hat=float(est.p_hat[index]), n=est.n, std_err=float(est.std_err[index]),
                      ci95=Interval(float(est.ci95.lo[index]), float(est.ci95.hi[index])))


_LOG_UNIFORM = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None)
@given(ps=_LOG_UNIFORM, pd=_LOG_UNIFORM, sigma2=_LOG_UNIFORM, g1=_LOG_UNIFORM, g2=_LOG_UNIFORM,
       rd=st.floats(0.0, 12.0), rs_frac=st.floats(0.0, 1.0))
def test_events_are_rates_below_rd(ps, pd, sigma2, g1, g2, rd, rs_frac):
    # each Monte Carlo event is its scheme's rate compared with rd, away from ties
    p = SystemParams(ps=ps, pd=pd, sigma2=sigma2)
    rc = RateConfig(rd=rd, rs=rd * rs_frac)
    th = thresholds(rc)
    real = ChannelRealization.from_gains(g1, g2)
    rep = rate_report(p, real)
    rates = {Scheme.MF: rep.rd_mf_lower, Scheme.AF: 0.5 * np.log2(1.0 + rep.snr_af),
             Scheme.UPPER: rep.cd_upper}
    for scheme in rates:
        # rd = 0: no rate is below it, so every event is empty (the ties
        # assumed away below drop MF's points with snr < 1/2 there)
        assert not _e2e_snr(scheme, p, g1, g2) < _threshold(scheme, 0.0)
    for scheme, rate in rates.items():
        assume(abs(rate - rd) > 1e-9)
        assert bool(_e2e_snr(scheme, p, g1, g2) < _threshold(scheme, rc.rd)) == (rate < rd)
    rr = rep.rr
    assume(abs(rr - (rc.rd - rc.rs)) > 1e-9)
    assert bool(_relay_sinr(p, g1, g2) > th.gamma_s) == (rr > rc.rd - rc.rs)


def _p_conn_mf_offset_form(p, rd):
    """MF connection outage with gamma_1 written as 2^(2 rd) - 1/2 instead of
    gamma_o + 1/2; the two round alike while 2^(2 rd) < 2^52 (rd < 26).
    Its a and x feed the one K1 outage form that p_conn_mf uses."""
    gamma_1 = np.float_power(2.0, 2.0 * rd) - 0.5
    a = (1.0 / p.eps1 + 1.0 / p.eps2) * gamma_1 * p.sigma2 / p.ps
    x = 2.0 * gamma_1 * p.sigma2 / (p.ps * np.sqrt(p.eps1 * p.eps2))
    return _k1_outage(rd > 0, a, x)


def _p_conn_af_direct_form(p, rd):
    """AF connection outage from its direct a and x, written out here as the
    products and quotients they are inside [2^-150, 2^150], where no log
    form replaces them.  They feed the one K1 outage form that p_conn_af uses."""
    gamma_o = np.float_power(2.0, 2.0 * rd) - 1.0
    safe = np.where(gamma_o > 0, gamma_o, 1.0)
    ratio = (p.ps + p.pd) / p.ps
    a = (safe * p.sigma2 / p.ps) * (ratio / p.eps1 + 1.0 / p.eps2)
    x = (2.0 * safe * p.sigma2 / p.ps) * np.sqrt((ratio + 1.0 / safe) / (p.eps1 * p.eps2))
    return _k1_outage(gamma_o > 0, a, x)


def _random_points(n, rd_max, seed):
    rng = np.random.default_rng(seed)
    p = SystemParams(ps=10.0 ** rng.uniform(-3, 12, n), pd=10.0 ** rng.uniform(-3, 12, n),
                     sigma2=10.0 ** rng.uniform(-3, 3, n), eps1=10.0 ** rng.uniform(-2, 2, n),
                     eps2=10.0 ** rng.uniform(-2, 2, n))
    rd = np.concatenate([rng.uniform(0.0, rd_max, n - 6),
                         [0.0, 5e-324, 1e-17, 0.5, 1.0, np.nextafter(rd_max, 0.0)]])
    return p, rd, rng.uniform(0.0, 1.0, n) * rd


class TestOneThresholdFormula:
    def test_p_conn_mf_equals_the_offset_form_below_rd_26(self):
        p, rd, _ = _random_points(200_000, 26.0, 3)
        assert p_conn_mf(p, rd).tobytes() == _p_conn_mf_offset_form(p, rd).tobytes()

    def test_p_conn_af_equals_the_direct_form_in_the_box(self):
        p, rd, _ = _random_points(200_000, 26.0, 5)
        assert p_conn_af(p, rd).tobytes() == _p_conn_af_direct_form(p, rd).tobytes()

    def test_p_secrecy_is_the_threshold_law_at_gamma_s(self):
        p, rd, rs = _random_points(20_000, 511.0, 4)
        rc = RateConfig(rd=rd, rs=rs)
        with np.errstate(over="ignore"):
            want = p_secrecy_threshold(p, thresholds(rc).gamma_s)
            assert p_secrecy(p, rc).tobytes() == want.tobytes()


class TestConnectionOutageWhereExpUnderflows:
    # exp(-a) = 0 makes the outage 1, as x*K1(x) <= 1, even where x overflowed
    @pytest.mark.parametrize("ps, rd", [(1e-300, 1.0), (1e-150, 1.0), (0.1, 500.0),
                                        (0.1, 511.0), (1e300, 511.5), (1e300, 511.99)])
    def test_outage_is_1(self, ps, rd):
        p = params(ps=ps)
        with np.errstate(over="ignore"):
            for conn in (p_conn_mf, p_conn_af, p_conn_cutset_lower):
                assert conn(p, rd) == 1.0
                assert np.array_equal(conn(p, np.array([rd, rd])), [1.0, 1.0])

    def test_zero_rate_stays_0_where_1_over_eps_is_inf(self):
        # 1/eps1 overflows to inf, and inf * gamma_o would be nan at gamma_o = 0
        p = params(ps=1.0, pd=0.0, eps1=2.225073858507203e-309)
        with np.errstate(over="ignore", invalid="ignore"):
            for conn in (p_conn_mf, p_conn_af, p_conn_cutset_lower):
                assert conn(p, 0.0) == 0.0

    def test_af_products_out_of_range_come_from_logs(self):
        # the direct a was 0 * inf = nan at the first point (K1 refused it), and
        # safe*sigma2 overflowed to inf at the second, which read 1.0
        for p, rd in ((params(ps=100.0, sigma2=5e-324, eps1=5e-324), 1.0),
                      (params(ps=1e300, pd=1.0, sigma2=1e9, eps1=1e10, eps2=1e10), 500.0)):
            want = _conn_reference(p, thresholds(RateConfig(rd, 0.0)).gamma_o, af=True)
            assert abs(p_conn_af(p, rd) - want) <= 1e-10 * want
        assert abs(want - 0.970814828586) < 1e-12

    def test_overflowed_x_with_live_exp_is_not_1(self):
        # eps1*eps2 underflows to 0, but sqrt(eps1)*sqrt(eps2) does not: the
        # true x and the outage (about 7e-137) are tiny
        p = params(ps=1e300, eps1=1e-163, eps2=1e-163)
        assert 0.0 <= p_conn_mf(p, 1.0) < 1e-100

    @pytest.mark.parametrize("conn", [p_conn_mf, p_conn_af])
    def test_subnormal_x_takes_the_limit_of_x_k1(self, conn):
        # x is subnormal, where K1(x) overflows to inf; x*K1(x) is 1 there, so
        # the outage, about a ~ 1e-310, stays in [0, 1] alone and in arrays
        p = params(sigma2=1e-310)
        assert 0.0 <= conn(p, 1.0) < 1e-300
        assert np.array_equal(conn(p, np.array([1.0, 1.0])), [conn(p, 1.0)] * 2)
        arr = params(ps=np.array([10.0, 10.0]), pd=np.array([10.0, 10.0]), sigma2=1e-310)
        assert np.array_equal(conn(arr, 1.0), [conn(p, 1.0)] * 2)

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_eps_product_out_of_range_keeps_its_root(self, scale):
        # eps1*eps2 under- or overflows, yet a and x equal those at unit means
        p = params(ps=1.0 / scale, pd=10.0 / scale, eps1=scale, eps2=scale)
        for conn in (p_conn_mf, p_conn_af, p_conn_cutset_lower):
            assert conn(p, 1.0) == pytest.approx(conn(params(ps=1.0), 1.0), rel=1e-12)
