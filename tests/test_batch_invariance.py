"""A closed form gives the same bits for a point alone or inside an array:
one array call equals the per-point scalar calls, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfrelay import (ChannelRealization, RateConfig, Scheme, SystemParams, gsdg_closed_form,
                     gsdof_closed_form, outage_probs, p_conn_af, p_conn_cutset_lower, p_conn_mf,
                     p_secrecy, rate_report, thresholds, tradeoff_residual)

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
    """The float fields of a result record, or the result itself."""
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


@settings(max_examples=100, deadline=None)
@given(st.lists(_POINT, min_size=1, max_size=100), st.booleans())
def test_tradeoff_residual_is_batch_invariant(points, exact):
    alone = [_records(*p)[:2] for p in points]
    params, rc, _ = _records(*map(np.array, zip(*points)))
    assert_same_bits(lambda p, c: tradeoff_residual(p, c, exact), (params, rc), alone)
    with np.errstate(all="ignore"):
        assert type(tradeoff_residual(*alone[0], exact)) is float


@settings(max_examples=100, deadline=None)
@given(st.lists(_RHO, min_size=1, max_size=40))
def test_rho_laws_are_batch_invariant(rhos):
    for law in (gsdof_closed_form, gsdg_closed_form):
        for scheme in (Scheme.UPPER, Scheme.MF, Scheme.AF):
            assert_same_bits(lambda r: law(scheme, r), (np.array(rhos),), [(r,) for r in rhos])
            assert all(type(law(scheme, r)) is float for r in rhos)
