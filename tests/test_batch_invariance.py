"""A closed form gives the same bits for a point alone or inside an array:
one array call equals the per-point scalar calls, bit for bit, and a bulk
call equals its slices' calls."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfrelay import (ChannelRealization, RateConfig, Scheme, SystemParams, bessel_k1, channel,
                     estimate_gsdg, estimate_gsdof, gsdg_closed_form, gsdof_closed_form,
                     mod_lattice, outage, outage_probs, p_conn_af, p_conn_cutset_lower, p_conn_mf,
                     p_secrecy, p_secrecy_threshold, rate_report, thresholds, tradeoff_residual)
from mfrelay.channel import _SLICE, _slices
from mfrelay.rates import _FIELDS, RateReport


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


# rd up to 8 keeps most outage probabilities strictly inside (0, 1), where a
# last-bit change in a threshold shows; rd up to 512 reaches the overflow edge
_POINT = st.tuples(
    _log_uniform(-3.0, 12.0), st.one_of(st.just(0.0), _log_uniform(-3.0, 12.0)),  # ps, pd
    _log_uniform(-3.0, 3.0), _log_uniform(-2.0, 2.0), _log_uniform(-2.0, 2.0),     # sigma2, eps
    st.one_of(st.floats(0.0, 8.0), st.floats(0.0, 511.99)), st.floats(0.0, 1.0),   # rd, rs/rd
    st.floats(0.0, 50.0), st.floats(0.0, 50.0))                                    # g1, g2
_RHO = st.one_of(st.floats(0.0, 4.0), st.floats(0.0, 1e300),
                 st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 1e300]).flatmap(
                     lambda r: st.sampled_from([r, np.nextafter(r, 0.0), np.nextafter(r, 9.0)])))


def _records(ps, pd, sigma2, eps1, eps2, rd, frac, g1, g2):
    return (SystemParams(ps=ps, pd=pd, sigma2=sigma2, eps1=eps1, eps2=eps2),
            RateConfig(rd=rd, rs=rd * frac), ChannelRealization.from_gains(g1, g2))


def _fields(result):
    """The float fields of a result record, each report field read by name,
    or the result itself."""
    if isinstance(result, RateReport):
        return {name: getattr(result, name) for name in _FIELDS}
    return vars(result) if hasattr(result, "__dataclass_fields__") else {"value": result}


def assert_same_bits(fn, batch, points):
    """fn(*batch) equals [fn(*p) for p in points] bit for bit, field by field;
    when some point is outside fn's domain the batch must be refused too."""
    with np.errstate(all="ignore"):
        try:
            alone = [_fields(fn(*p)) for p in points]
        except ValueError:
            with pytest.raises(ValueError):
                fn(*batch)
            return
        together = _fields(fn(*batch))
    for name, column in together.items():
        a = np.asarray(column, dtype=float)
        b = np.array([f[name] for f in alone], dtype=float)
        assert a.shape == b.shape, name
        same = (a.view(np.uint64) == b.view(np.uint64)) | (np.isnan(a) & np.isnan(b))
        assert same.all(), f"{name}: {a[~same][:3].tolist()} != {b[~same][:3].tolist()}"


@settings(max_examples=100, deadline=None)
@given(st.lists(_POINT, min_size=1, max_size=100))
def test_closed_forms_are_batch_invariant(points):
    alone = [_records(*p) for p in points]
    params, rc, real = _records(*map(np.array, zip(*points)))
    checks = [
        (thresholds, (rc,), [(c,) for _, c, _ in alone]),
        (p_conn_mf, (params, rc.rd), [(p, c.rd) for p, c, _ in alone]),
        (p_conn_af, (params, rc.rd), [(p, c.rd) for p, c, _ in alone]),
        (p_conn_cutset_lower, (params, rc.rd), [(p, c.rd) for p, c, _ in alone]),
        (p_secrecy, (params, rc), [(p, c) for p, c, _ in alone]),
        (outage_probs, (params, rc), [(p, c) for p, c, _ in alone]),
        (rate_report, (params, real), [(p, g) for p, _, g in alone]),
    ]
    for fn, batch, each in checks:
        assert_same_bits(fn, batch, each)
    p, c, g = alone[0]
    with np.errstate(all="ignore"):
        for fn in (p_conn_mf, p_conn_af):
            assert type(fn(p, c.rd)) is float
        assert type(p_secrecy(p, c)) is float
        assert type(p_secrecy_threshold(p, thresholds(c).gamma_s)) is float
        assert type(p_conn_cutset_lower(p, c.rd)) is float
        probs = outage_probs(p, c)
        assert type(probs.p_total_lower) is float and type(probs.p_total_upper) is float
        assert all(type(v) is float for v in _fields(rate_report(p, g)).values())


@settings(max_examples=100, deadline=None)
@given(st.lists(_POINT, min_size=1, max_size=100))
def test_tradeoff_residual_is_batch_invariant(points):
    alone = [_records(*p)[:2] for p in points]
    params, rc, _ = _records(*map(np.array, zip(*points)))
    assert_same_bits(tradeoff_residual, (params, rc), alone)
    with np.errstate(all="ignore"):
        assert type(tradeoff_residual(*alone[0])) is float


@settings(max_examples=100, deadline=None)
@given(st.lists(_RHO, min_size=1, max_size=40))
def test_rho_laws_are_batch_invariant(rhos):
    for law in (gsdof_closed_form, gsdg_closed_form):
        for scheme in (Scheme.UPPER, Scheme.MF, Scheme.AF):
            assert_same_bits(lambda r: law(scheme, r), (np.array(rhos),), [(r,) for r in rhos])
            assert all(type(law(scheme, r)) is float for r in rhos)


_ESTIMATORS = (
    lambda s, r: estimate_gsdof(s, r, real=ChannelRealization.from_gains(0.3, 2.5)),
    lambda s, r: estimate_gsdg(s, r, config=RateConfig(rd=2.0, rs=1.0)),
)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=30))
def test_rho_estimators_are_batch_invariant(rhos):
    # one (rho, snr) grid gives each rho the bits of its own scalar call
    for estimate in _ESTIMATORS:
        for scheme in (Scheme.UPPER, Scheme.MF, Scheme.AF):
            assert_same_bits(lambda r: estimate(scheme, r), (np.array(rhos),), [(r,) for r in rhos])


def test_rho_estimators_keep_rho_shape():
    rho = np.array([[0.5, 1.0, 1.5], [2.0, 2.5, 3.0]])
    for estimate in (estimate_gsdof, estimate_gsdg):
        for scheme in (Scheme.UPPER, Scheme.MF, Scheme.AF):
            out = estimate(scheme, rho)
            assert out.shape == rho.shape
            alone = np.array([[estimate(scheme, float(r)) for r in row] for row in rho])
            assert np.array_equal(out.view(np.uint64), alone.view(np.uint64))
            assert type(estimate(scheme, 1.5)) is float
            assert type(estimate(scheme, np.array(1.5))) is float
            assert estimate(scheme, [1.5]).shape == (1,)
            assert estimate(scheme, np.empty((0, 2))).shape == (0, 2)


def test_rho_array_of_grid_length_is_not_paired_with_the_grid():
    # a rho array as long as the SNR grid gives one slope per rho, not one
    # slope of rho and snr paired point by point
    rho = np.linspace(0.0, 3.0, 10)
    for estimate in (estimate_gsdof, estimate_gsdg):
        out = np.asarray(estimate(Scheme.MF, rho))
        assert out.shape == (10,)
        assert out.tolist() == [estimate(Scheme.MF, r) for r in rho.tolist()]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 1e300, exclude_min=True), min_size=1, max_size=40))
def test_k1_and_lattice_are_batch_invariant(xs):
    fns = (bessel_k1, lambda x: mod_lattice(x, 2.5), lambda x: mod_lattice(-x, 2.5))
    for fn in fns:
        assert_same_bits(fn, (np.array(xs),), [(x,) for x in xs])
        assert all(type(v) is float for x in xs for v in _fields(fn(x)).values())


_BULK_FORMS = {
    "p_conn_mf": lambda p, c, g: p_conn_mf(p, c.rd),
    "p_conn_af": lambda p, c, g: p_conn_af(p, c.rd),
    "p_conn_cutset_lower": lambda p, c, g: p_conn_cutset_lower(p, c.rd),
    "p_secrecy": lambda p, c, g: p_secrecy(p, c),
    "p_secrecy_threshold": lambda p, c, g: p_secrecy_threshold(p, thresholds(c).gamma_s),
    "tradeoff_residual": lambda p, c, g: tradeoff_residual(p, c),
    "rate_report": lambda p, c, g: rate_report(p, g),
    "bessel_k1": lambda p, c, g: bessel_k1(p.ps),
}


def _bulk(points, slices):
    """Every bulk form's fields at these points, each form called once per
    slice of them and the slices' bytes joined."""
    out = {}
    for s in slices:
        records = _records(*points[s].T)
        for name, form in _BULK_FORMS.items():
            for field, value in _fields(form(*records)).items():
                out.setdefault(f"{name}.{field}", []).append(np.asarray(value).tobytes())
    return {k: b"".join(v) for k, v in out.items()}


@settings(max_examples=8, deadline=None)
@given(st.lists(_POINT, min_size=1, max_size=20), st.sampled_from([1, 4, 9]),
       st.sampled_from([-1, 1]), st.integers(0, 2 ** 32 - 1))
def test_bulk_forms_equal_their_slices_at_any_worker_count(points, k, offset, seed):
    # k slices of points drawn from the examples, plus or minus one point (up
    # to three blocks, so up to three workers); the first has rd = 0 and the
    # last the largest rd below 512
    n = k * _SLICE + offset
    points = np.array(points)[np.random.default_rng(seed).integers(0, len(points), n)]
    points[0, 5], points[-1, 5] = 0.0, np.nextafter(512.0, 0.0)
    with np.errstate(all="ignore"):
        sliced = _bulk(points, list(_slices(n)))
        for workers in (1, 2, 3):
            with mock.patch.object(channel, "_WORKERS", workers):
                assert _bulk(points, [slice(None)]) == sliced


def test_a_rate_past_512_in_the_last_slice_is_refused_before_any_slice():
    n = 2 * _SLICE + 1
    rd = np.full(n, 1.0)
    rd[-1] = 512.0
    params = SystemParams(ps=np.full(n, 10.0), pd=1.0, sigma2=1.0)
    message = re.escape("rd must be below 512 bits: 2^(2 rd) overflows a double")
    with mock.patch.object(outage, "_map_slices", side_effect=AssertionError):
        for form in (p_conn_mf, p_conn_af, p_conn_cutset_lower):
            with pytest.raises(ValueError, match=message):
                form(params, rd)
        for form in (p_secrecy, tradeoff_residual, outage_probs):
            with pytest.raises(ValueError, match=message):
                form(params, RateConfig(rd=rd, rs=0.0))
