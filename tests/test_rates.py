import collections
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfrelay import channel, rates
from mfrelay.channel import (_BLOCK, _SLICE, ChannelRealization, SystemParams, rng_stream,
                             sample_realization)
from mfrelay.rates import _FIELDS, Scheme, _e2e_snr, _relay_sinr, df_comparison, rate_report


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
        assert rate_report(params(ps=1.0), gains(3.0, 3.0)).sigma_e2 == pytest.approx(0.5)

    def test_zero_gain_clamp(self):
        assert rate_report(params(ps=1.0), gains(0.0, 0.0)).sigma_e2 == 1.0

    def test_noise_free_limit(self):
        rep = rate_report(params(ps=1.0), gains(1e12, 1e12))
        assert rep.sigma_e2 == pytest.approx(0.0, abs=1e-11)


class TestRelayCapacity:
    def test_dead_first_hop(self):
        assert rate_report(params(), gains(0.0, 1.0)).rr == 0.0

    def test_infinite_jamming(self):
        assert rate_report(params(pd=1e18), gains(1.0, 1.0)).rr == pytest.approx(0.0, abs=1e-12)

    def test_oracle_value(self):
        # 0.5*log2(1 + 10/11), mpmath at 40 digits
        assert rate_report(params(), gains(1.0, 1.0)).rr == pytest.approx(
            0.466442902070731516, rel=1e-12)


class TestUpperBound:
    def test_no_jamming_weak_first_hop(self):
        # pd = 0 and g1 <= g2 make the cut-set and relay terms cancel
        assert rate_report(params(pd=0.0), gains(0.7, 2.0)).upper_bound_u == 0.0

    def test_infinite_jamming_limit(self):
        val = rate_report(params(ps=1.0, pd=1e15), gains(1.0, 1.0)).upper_bound_u
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_oracle_value(self):
        # 0.5*log2(11) - 0.5*log2(1 + 10/41), mpmath at 40 digits
        assert rate_report(params(), gains(1.0, 4.0)).upper_bound_u == pytest.approx(
            1.57227914064194268, rel=1e-12)


class TestMfRates:
    def test_high_jamming_limit(self):
        # ps/sigma2 = 3, g1 = g2 = 1: rs -> 0.5*log2(0.5 + 1.5) = 0.5 as pd grows
        rep = rate_report(params(ps=3.0, pd=1e15), gains(1.0, 1.0))
        assert rep.rs_mf == pytest.approx(0.5, abs=1e-12)

    def test_dead_first_hop(self):
        rep = rate_report(params(), gains(0.0, 1.0))
        assert rep.rd_mf_lower == 0.0 and rep.rs_mf == 0.0

    @pytest.mark.parametrize("g", [0.0, np.zeros(3)])
    def test_both_hops_dead(self, g):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = rate_report(params(), gains(g, g))
        assert np.all(rep.rd_mf_lower == 0.0) and np.all(rep.rs_mf == 0.0)
        assert np.shape(rep.rd_mf_lower) == np.shape(g)

    def test_exact_at_least_lower(self):
        p, real = random_draws(31)
        rep = rate_report(p, real)
        active = rep.sigma_e2 < p.ps
        assert np.all(rep.rd_mf_exact[active] >= rep.rd_mf_lower[active] - 1e-12)

    def test_rs_nondecreasing_in_pd(self):
        real = gains(2.0, 0.5)
        pds = np.logspace(-2, 8, 40)
        rs = np.array([rate_report(params(pd=pd), real).rs_mf for pd in pds])
        assert np.all(np.diff(rs) >= -1e-12)


class TestAfRates:
    def test_oracle_value(self):
        rep = rate_report(params(), gains(1.0, 1.0))
        assert rep.snr_af == pytest.approx(100.0 / 31.0, rel=1e-12)
        assert rep.rs_af == pytest.approx(0.573170443504556019, rel=1e-12)

    def test_dead_first_hop(self):
        rep = rate_report(params(), gains(0.0, 1.0))
        assert rep.snr_af == 0.0 and rep.rs_af == 0.0

    def test_af_bounded_while_mf_grows(self):
        # sigma2 -> 0, pd -> inf with pd*sigma2 fixed: AF pins at a constant,
        # MF increases without bound
        real = gains(1.0, 1.0)
        prod = 10.0
        rs_af_vals, rs_mf_vals = [], []
        for pd in (1e4, 1e6, 1e8, 1e10):
            p = SystemParams(ps=10.0, pd=pd, sigma2=prod / pd)
            rep = rate_report(p, real)
            rs_af_vals.append(rep.rs_af)
            rs_mf_vals.append(rep.rs_mf)
        assert np.all(np.diff(rs_mf_vals) > 0.1)  # keeps growing
        assert max(rs_af_vals) - min(rs_af_vals) < 0.2  # pinned near a constant
        assert rs_mf_vals[-1] > rs_af_vals[-1] + 3.0

    def test_af_interior_maximum_in_pd(self):
        real = gains(1.0, 1.0)
        pds = np.logspace(-2, 6, 60)
        rs = np.array([rate_report(params(pd=pd), real).rs_af for pd in pds])
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
            g = rate_report(SystemParams(ps=ps, pd=1e4, sigma2=1.0), gains(1.0, 1.0)).gap
            assert g == pytest.approx(0.5, abs=1e-12)

    def test_vanishes_for_skewed_gains_high_snr(self):
        g = rate_report(SystemParams(ps=1e8, pd=1e10, sigma2=1.0), gains(1e-5, 1.0)).gap
        assert 0.0 <= g < 1e-3

    def test_gap_bounds_on_random_draws(self):
        p, real = random_draws(57)
        rep = rate_report(p, real)
        assert np.all(rep.gap >= -1e-12)
        assert np.all(rep.gap <= 0.5 + 1e-12)
        # footnote regime: U < 1/2 whenever the achievable rate clips
        clipped = rep.rs_mf == 0.0
        assert np.all(rep.upper_bound_u[clipped] < 0.5 + 1e-12)


class TestCrossSchemeInvariants:
    def test_achievability_never_exceeds_bound(self):
        p, real = random_draws(91)
        rep = rate_report(p, real)
        assert np.all(rep.rs_mf <= rep.upper_bound_u + 1e-12)

    def test_af_within_half_bit_of_mf(self):
        # the AF rate can beat the MF lower bound only through the modulo
        # shaping constant, never by more than 1/2 bit
        p, real = random_draws(92)
        rep = rate_report(p, real)
        assert np.all(rep.rs_af <= rep.rs_mf + 0.5 + 1e-12)

    def test_mf_dominates_af_under_strong_jamming(self):
        # sufficient regime: pd*g2 >= ps*(g1+g2) and snr*g1*g2/(g1+g2) >= 1
        p, real = random_draws(93, n=20000)
        x = p.snr * real.g1 * real.g2 / (real.g1 + real.g2)
        mask = (p.pd * real.g2 >= p.ps * (real.g1 + real.g2)) & (x >= 1.0)
        assert mask.sum() > 1000
        rep = rate_report(p, real)
        assert np.all(rep.rs_mf[mask] >= rep.rs_af[mask] - 1e-12)

    def test_report_fields_consistent(self):
        rep = rate_report(params(), gains(1.0, 1.0))
        assert 0.0 < rep.sigma_e2 <= params().ps
        assert rep.gap == pytest.approx(rep.upper_bound_u - rep.rs_mf)


# the terms each field's kernel combines
_TERMS = {"cd_upper": {"cd"}, "upper_bound_u": {"cd", "rr"}, "sigma_e2": {"se2"},
          "rd_mf_exact": {"se2"}, "rd_mf_lower": {"rd_lower"}, "rr": {"rr"},
          "rs_mf": {"rd_lower", "rr"}, "snr_af": {"snr_af"}, "rs_af": {"snr_af", "rr"},
          "gap": {"cd", "rd_lower", "rr"}}


def _written_out(ps, pd, sigma2, g1, g2):
    """Every report field as its whole-array formula, in the kernels' order
    of operations."""
    def pos(x):
        return np.maximum(x, 0.0)  # in the kernels' order, which sets the sign of a zero

    rr = 0.5 * np.log2(1.0 + ps * g1 / (pd * g2 + sigma2))
    cd = 0.5 * np.log2(1.0 + np.minimum(g1, g2) * (ps / sigma2))
    rd_lower = pos(0.5 * np.log2(0.5 + ps / sigma2 * (g1 * g2 / (g1 + g2 + 5e-324))))
    se2 = np.minimum(ps, ps * sigma2 / (g1 * ps + sigma2) + ps * sigma2 / (g2 * ps + sigma2))
    snr_af = ps * ps * g1 * g2 / (sigma2 * (ps * g1 + ps * g2 + pd * g2 + sigma2))
    return {"cd_upper": cd, "upper_bound_u": pos(cd - rr), "sigma_e2": se2,
            "rd_mf_exact": pos(0.5 * np.log2(ps / se2)), "rd_mf_lower": rd_lower, "rr": rr,
            "rs_mf": pos(rd_lower - rr), "snr_af": snr_af,
            "rs_af": pos(0.5 * np.log2(1.0 + snr_af) - rr),
            "gap": pos(cd - rr) - pos(rd_lower - rr)}


class TestOneRateBuilder:
    def test_report_forms_each_term_once(self, monkeypatch):
        counts = collections.Counter()
        for term in ("rr", "cd", "rd_lower", "se2", "snr_af"):
            def counted(*args, term=term, kernel=getattr(rates, f"_{term}")):
                counts[term] += 1
                return kernel(*args)
            monkeypatch.setattr(rates, f"_{term}", counted)
        draws = random_draws(11, n=50)
        assert set(_TERMS) == set(_FIELDS)
        for field in _FIELDS:
            # a read forms each term its field needs once, and no other term
            rep = rate_report(*draws)
            counts.clear()
            getattr(rep, field)
            assert counts == dict.fromkeys(_TERMS[field], 1), field
            # a second read forms nothing
            getattr(rep, field)
            assert counts == dict.fromkeys(_TERMS[field], 1), field

    def test_a_field_never_read_is_never_formed(self, monkeypatch):
        calls = []
        map_slices = rates._map_slices
        monkeypatch.setattr(rates, "_map_slices", lambda *a: calls.append(a) or map_slices(*a))
        rep = rate_report(*random_draws(12, n=_SLICE + 1))
        assert calls == [] and vars(rep) == {}
        gap = rep.gap
        assert len(calls) == 1 and vars(rep) == {"gap": gap}
        assert rep.gap is gap and len(calls) == 1

    def test_shapes_that_do_not_broadcast_are_refused_at_the_call(self, monkeypatch):
        monkeypatch.setattr(rates, "_map_slices", mock.Mock(side_effect=AssertionError))
        p = SystemParams(ps=np.full(3, 10.0), pd=1.0, sigma2=1.0)
        with pytest.raises(ValueError, match="broadcast"):
            rate_report(p, gains(np.ones(4), np.ones(4)))
        with pytest.raises(ValueError, match="broadcast"):
            rate_report(params(), gains(np.ones(3), np.ones(4)))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_field_equals_its_written_out_formula(self, workers):
        # 2^17 + 3 points: two blocks of slices, dead hops and overflowing
        # products (ps*ps, g1*g2) at the ends
        p, real = random_draws(13, n=_BLOCK + 3)
        ps, pd, sigma2 = (np.array(v) for v in (p.ps, p.pd, p.sigma2))
        g1, g2 = real.g1.copy(), real.g2.copy()
        g1[:2], g2[1:3] = 0.0, 0.0
        ps[-2:], pd[-1], sigma2[-2:], g1[-3:], g2[-3:] = 1e300, 1e300, 1e-300, 1e300, 1e-300
        with np.errstate(all="ignore"), mock.patch.object(channel, "_WORKERS", workers):
            rep = rate_report(SystemParams(ps=ps, pd=pd, sigma2=sigma2), gains(g1, g2))
            want = _written_out(ps, pd, sigma2, g1, g2)
            for field in _FIELDS:
                assert getattr(rep, field).tobytes() == want[field].tobytes(), field
        assert not np.all(np.isfinite(want["snr_af"]))  # an overflow point is in the set

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_field_read_holds_about_its_output(self, workers):
        # the output row and slice-sized temporaries; all ten fields formed
        # at once held 11.25 rows
        n = 1 << 18
        draws = random_draws(14, n=n)
        with mock.patch.object(channel, "_WORKERS", workers):
            rate_report(*draws).gap  # a first read leaves one-time setup out
            for field in _FIELDS:
                rep = rate_report(*draws)
                tracemalloc.start()
                try:
                    getattr(rep, field)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak <= 2 * n * 8, (field, peak / (n * 8))


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
