import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfrelay import rates
from mfrelay.channel import ChannelRealization, SystemParams, rng_stream, sample_realization
from mfrelay.rates import (Scheme, _e2e_snr, _relay_sinr, af_rates, cutset_capacity,
                           df_comparison, mf_gap, mf_rates, rate_report, relay_capacity,
                           secrecy_upper_bound, sigma_e_sq)


def params(ps=10.0, pd=10.0, sigma2=1.0):
    return SystemParams(ps=ps, pd=pd, sigma2=sigma2)


def gains(g1, g2):
    return ChannelRealization.from_gains(g1, g2)


def random_draws(seed, n=4000, snr_db_max=80.0):
    """Random (params, realization) batch spanning a wide SNR/rho range."""
    rng = rng_stream(seed)
    sigma2 = 10.0 ** rng.uniform(-2, 2, n)
    snr = 10.0 ** (rng.uniform(0.0, snr_db_max, n) / 10.0)
    rho = rng.uniform(0.0, 3.0, n)
    p = SystemParams(ps=snr * sigma2, pd=snr ** rho * sigma2, sigma2=sigma2)
    real = sample_realization(p, rng, size=n)
    return p, real


class TestSigmaESq:
    def test_symmetric_point(self):
        assert sigma_e_sq(params(ps=1.0), gains(3.0, 3.0)) == pytest.approx(0.5)

    def test_zero_gain_clamp(self):
        assert sigma_e_sq(params(ps=1.0), gains(0.0, 0.0)) == 1.0

    def test_noise_free_limit(self):
        assert sigma_e_sq(params(ps=1.0), gains(1e12, 1e12)) == pytest.approx(0.0, abs=1e-11)


class TestRelayCapacity:
    def test_dead_first_hop(self):
        assert relay_capacity(params(), gains(0.0, 1.0)) == 0.0

    def test_infinite_jamming(self):
        assert relay_capacity(params(pd=1e18), gains(1.0, 1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_oracle_value(self):
        # 0.5*log2(1 + 10/11), mpmath at 40 digits
        assert relay_capacity(params(), gains(1.0, 1.0)) == pytest.approx(
            0.466442902070731516, rel=1e-12)


class TestUpperBound:
    def test_no_jamming_weak_first_hop(self):
        # pd = 0 and g1 <= g2 make the cut-set and relay terms cancel
        assert secrecy_upper_bound(params(pd=0.0), gains(0.7, 2.0)) == 0.0

    def test_infinite_jamming_limit(self):
        val = secrecy_upper_bound(params(ps=1.0, pd=1e15), gains(1.0, 1.0))
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_oracle_value(self):
        # 0.5*log2(11) - 0.5*log2(1 + 10/41), mpmath at 40 digits
        assert secrecy_upper_bound(params(), gains(1.0, 4.0)) == pytest.approx(
            1.57227914064194268, rel=1e-12)


class TestMfRates:
    def test_high_jamming_limit(self):
        # ps/sigma2 = 3, g1 = g2 = 1: rs -> 0.5*log2(0.5 + 1.5) = 0.5 as pd grows
        mf = mf_rates(params(ps=3.0, pd=1e15), gains(1.0, 1.0))
        assert mf.rs == pytest.approx(0.5, abs=1e-12)

    def test_dead_first_hop(self):
        mf = mf_rates(params(), gains(0.0, 1.0))
        assert mf.rd_lower == 0.0 and mf.rs == 0.0

    @pytest.mark.parametrize("g", [0.0, np.zeros(3)])
    def test_both_hops_dead(self, g):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mf = mf_rates(params(), gains(g, g))
        assert np.all(mf.rd_lower == 0.0) and np.all(mf.rs == 0.0)
        assert np.shape(mf.rd_lower) == np.shape(g)

    def test_exact_at_least_lower(self):
        p, real = random_draws(31)
        mf = mf_rates(p, real)
        active = sigma_e_sq(p, real) < p.ps
        assert np.all(mf.rd_exact[active] >= mf.rd_lower[active] - 1e-12)

    def test_rs_nondecreasing_in_pd(self):
        real = gains(2.0, 0.5)
        pds = np.logspace(-2, 8, 40)
        rs = np.array([mf_rates(params(pd=pd), real).rs for pd in pds])
        assert np.all(np.diff(rs) >= -1e-12)


class TestAfRates:
    def test_oracle_value(self):
        af = af_rates(params(), gains(1.0, 1.0))
        assert af.snr_af == pytest.approx(100.0 / 31.0, rel=1e-12)
        assert af.rs_af == pytest.approx(0.573170443504556019, rel=1e-12)

    def test_dead_first_hop(self):
        af = af_rates(params(), gains(0.0, 1.0))
        assert af.snr_af == 0.0 and af.rs_af == 0.0

    def test_af_bounded_while_mf_grows(self):
        # sigma2 -> 0, pd -> inf with pd*sigma2 fixed: AF pins at a constant,
        # MF increases without bound
        real = gains(1.0, 1.0)
        prod = 10.0
        rs_af_vals, rs_mf_vals = [], []
        for pd in (1e4, 1e6, 1e8, 1e10):
            p = SystemParams(ps=10.0, pd=pd, sigma2=prod / pd)
            rs_af_vals.append(af_rates(p, real).rs_af)
            rs_mf_vals.append(mf_rates(p, real).rs)
        assert np.all(np.diff(rs_mf_vals) > 0.1)  # keeps growing
        assert max(rs_af_vals) - min(rs_af_vals) < 0.2  # pinned near a constant
        assert rs_mf_vals[-1] > rs_af_vals[-1] + 3.0

    def test_af_interior_maximum_in_pd(self):
        real = gains(1.0, 1.0)
        pds = np.logspace(-2, 6, 60)
        rs = np.array([af_rates(params(pd=pd), real).rs_af for pd in pds])
        k = int(np.argmax(rs))
        assert 0 < k < len(pds) - 1 and rs[k] > rs[0] and rs[k] > rs[-1]


class TestDfComparison:
    def test_branch_values(self):
        assert df_comparison(1.0).gap_mf_df == 0.0
        assert df_comparison(0.3).gap_mf_df == 0.0
        # left limit at t=3/2: 0.5*log2(2.5) - 0.5; right side: 0.5*log2(2.5)
        assert df_comparison(1.5).gap_mf_df == pytest.approx(0.160964047443681174, rel=1e-12)
        assert df_comparison(1.5 + 1e-9).gap_mf_df == pytest.approx(0.660964047443681174, rel=1e-6)

    def test_large_t_limit(self):
        assert df_comparison(1e9).gap_mf_df == pytest.approx(0.5, abs=1e-9)

    def test_r_df(self):
        assert df_comparison(0.0).r_df == 0.0
        assert df_comparison(3.5).r_df == pytest.approx(0.0, abs=1e-12)
        assert df_comparison(7.5).r_df == pytest.approx(0.5, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            df_comparison(-0.1)


class TestMfGap:
    def test_equal_gains_gap_is_exactly_half(self):
        # (1 + s)/(1/2 + s/2) = 2 for g1 = g2, independent of pd
        for ps in (100.0, 1e4):
            g = mf_gap(SystemParams(ps=ps, pd=1e4, sigma2=1.0), gains(1.0, 1.0))
            assert g == pytest.approx(0.5, abs=1e-12)

    def test_vanishes_for_skewed_gains_high_snr(self):
        g = mf_gap(SystemParams(ps=1e8, pd=1e10, sigma2=1.0), gains(1e-5, 1.0))
        assert 0.0 <= g < 1e-3

    def test_gap_bounds_on_random_draws(self):
        p, real = random_draws(57)
        gap = mf_gap(p, real)
        assert np.all(gap >= -1e-12)
        assert np.all(gap <= 0.5 + 1e-12)
        # footnote regime: U < 1/2 whenever the achievable rate clips
        u = secrecy_upper_bound(p, real)
        clipped = mf_rates(p, real).rs == 0.0
        assert np.all(u[clipped] < 0.5 + 1e-12)


class TestCrossSchemeInvariants:
    def test_achievability_never_exceeds_bound(self):
        p, real = random_draws(91)
        assert np.all(mf_rates(p, real).rs <= secrecy_upper_bound(p, real) + 1e-12)

    def test_af_within_half_bit_of_mf(self):
        # the AF rate can beat the MF lower bound only through the modulo
        # shaping constant, never by more than 1/2 bit
        p, real = random_draws(92)
        assert np.all(af_rates(p, real).rs_af <= mf_rates(p, real).rs + 0.5 + 1e-12)

    def test_mf_dominates_af_under_strong_jamming(self):
        # sufficient regime: pd*g2 >= ps*(g1+g2) and snr*g1*g2/(g1+g2) >= 1
        p, real = random_draws(93, n=20000)
        x = p.snr * real.g1 * real.g2 / (real.g1 + real.g2)
        mask = (p.pd * real.g2 >= p.ps * (real.g1 + real.g2)) & (x >= 1.0)
        assert mask.sum() > 1000
        rs_mf = mf_rates(p, real).rs
        rs_af = af_rates(p, real).rs_af
        assert np.all(rs_mf[mask] >= rs_af[mask] - 1e-12)

    def test_report_fields_consistent(self):
        rep = rate_report(params(), gains(1.0, 1.0))
        assert rep.cr == rep.rr
        assert rep.cd_upper == cutset_capacity(params(), gains(1.0, 1.0))
        assert 0.0 < rep.sigma_e2 <= params().ps
        assert rep.gap == pytest.approx(rep.upper_bound_u - rep.rs_mf)


class TestOneRateBuilder:
    def test_report_forms_each_term_once(self, monkeypatch):
        counts = {}
        e2e_snr, relay_sinr = rates._e2e_snr, rates._relay_sinr

        def counted_e2e_snr(scheme, *args):
            counts[scheme] = counts.get(scheme, 0) + 1
            return e2e_snr(scheme, *args)

        def counted_relay_sinr(*args):
            counts["relay"] = counts.get("relay", 0) + 1
            return relay_sinr(*args)

        monkeypatch.setattr(rates, "_e2e_snr", counted_e2e_snr)
        monkeypatch.setattr(rates, "_relay_sinr", counted_relay_sinr)
        # the report and the views that read it: one report, each term once
        for call in (rate_report, sigma_e_sq, relay_capacity, cutset_capacity):
            counts.clear()
            call(*random_draws(11, n=50))
            assert counts == {Scheme.UPPER: 1, Scheme.MF: 1, Scheme.AF: 1, "relay": 1}, call

    @pytest.mark.parametrize("point", [random_draws(12), (params(pd=3.0), gains(1.0, 4.0))],
                             ids=["random_draws", "scalar"])
    def test_views_read_the_report_bit_for_bit(self, point):
        rep, mf, af = rate_report(*point), mf_rates(*point), af_rates(*point)
        views = [(mf.rd_exact, rep.rd_mf_exact), (mf.rd_lower, rep.rd_mf_lower),
                 (mf.rr, rep.rr), (mf.rs, rep.rs_mf), (af.snr_af, rep.snr_af),
                 (af.rs_af, rep.rs_af), (secrecy_upper_bound(*point), rep.upper_bound_u),
                 (mf_gap(*point), rep.gap), (rep.cr, rep.rr), (sigma_e_sq(*point), rep.sigma_e2),
                 (relay_capacity(*point), rep.rr), (cutset_capacity(*point), rep.cd_upper)]
        for view, field in views:
            assert type(view) is type(field)
            assert np.asarray(view).tobytes() == np.asarray(field).tobytes()


_WIDE = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
_GAIN = st.one_of(st.just(0.0), _WIDE)  # 0 is a dead hop


@settings(max_examples=200, deadline=None)
@given(ps=_WIDE, pd=st.one_of(st.just(0.0), _WIDE), sigma2=_WIDE,
       gains=st.lists(st.tuples(_GAIN, _GAIN), min_size=1, max_size=12))
@example(ps=1e300, pd=1e300, sigma2=1e-300, gains=[(1e300, 1e300), (0.0, 1e300), (0.0, 0.0)])
def test_in_place_snr_forms_equal_the_allocating_forms(ps, pd, sigma2, gains):
    # the written-out expressions, grouped as the event SNRs group them
    p = SystemParams(ps=ps, pd=pd, sigma2=sigma2)
    g1, g2 = np.array(gains).T.copy()
    with np.errstate(all="ignore"):  # products overflow to inf, and 0/0 or inf/inf is nan
        forms = [
            (lambda *a: _relay_sinr(p, *a), ps * g1 / (pd * g2 + sigma2)),
            (lambda *a: _e2e_snr(Scheme.MF, p, *a), p.snr * (g1 * g2 / (g1 + g2 + 5e-324))),
            (lambda *a: _e2e_snr(Scheme.AF, p, *a),
             ps * ps * g1 * g2 / (sigma2 * (ps * g1 + ps * g2 + pd * g2 + sigma2))),
        ]
        for form, want in forms:
            out, tmp = np.full((2, g1.size), -1.0)
            assert form(g1, g2, out, tmp) is out
            assert out.tobytes() == want.tobytes()
            assert form(g1, g2).tobytes() == want.tobytes()
            for a, b, w in zip(g1.tolist(), g2.tolist(), want):
                point = form(a, b)
                assert type(point) is float and np.float64(point).tobytes() == w.tobytes()
