import runpy
from pathlib import Path

import numpy as np
import pytest

from mfrelay.channel import _SLICE
from mfrelay.numerics import (_K1_CHEB, Interval, _k1_chebyshev, _k1_map, _k1_series, bessel_k1,
                              slope_fit)

# oracle: mpmath.besselk(1, x) at 40 digits
K1_ORACLE = {
    1.0: 0.601907230197234575,
    0.7: 1.05028353531291795,
    50.0: 3.44410222671755561e-23,
    30.0: 2.16773200189154942e-14,
}


def test_k1_oracle_points():
    for x, ref in K1_ORACLE.items():
        assert bessel_k1(x) == pytest.approx(ref, rel=1e-12)


def test_k1_small_argument_limit():
    # x*K1(x) -> 1 as x -> 0+
    assert abs(1e-6 * bessel_k1(1e-6) - 1.0) < 1e-5


def test_k1_exponential_decay():
    assert bessel_k1(50.0) < 1e-20


def test_k1_underflow_is_clean_zero():
    assert bessel_k1(800.0) == 0.0


def test_k1_against_mpmath_grid():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    xs = np.logspace(-6, np.log10(30.0), 100)
    vals = bessel_k1(xs)
    for x, v in zip(xs, vals):
        ref = float(mp.besselk(1, mp.mpf(float(x))))
        assert abs(v - ref) <= 1e-10 * ref


def test_k1_against_scipy():
    from scipy.special import k1 as scipy_k1

    xs = np.logspace(-5, 1.3, 50)
    assert np.allclose(bessel_k1(xs), scipy_k1(xs), rtol=1e-12)


def test_k1_positive_and_xk1_monotone():
    xs = np.logspace(-6, 1.4, 200)
    vals = bessel_k1(xs)
    assert np.all(vals > 0)
    xk1 = xs * vals
    assert np.all(np.diff(xk1) < 0)
    assert xk1[0] == pytest.approx(1.0, abs=1e-6)


def test_k1_domain_errors():
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            bessel_k1(bad)
    with pytest.raises(ValueError):
        bessel_k1(np.array([1.0, -2.0]))


def test_k1_array_shape_roundtrip():
    x = np.array([[0.5, 1.0], [2.0, 5.0]])
    out = bessel_k1(x)
    assert out.shape == x.shape
    assert isinstance(bessel_k1(1.0), float)


def test_slope_fit_exact_lines():
    xs = np.linspace(0.0, 5.0, 7)
    assert slope_fit(xs, xs + 3.0) == pytest.approx(1.0, abs=1e-12)
    assert slope_fit(xs, -0.5 * xs + 2.0) == pytest.approx(-0.5, abs=1e-12)


def test_slope_fit_three_noisy_points():
    # hand least squares on (0, 0.1), (1, 0.9), (2, 2.2): slope = 1.05
    assert slope_fit([0.0, 1.0, 2.0], [0.1, 0.9, 2.2]) == pytest.approx(1.05, abs=1e-12)


def test_slope_fit_shift_invariance():
    rng = np.random.default_rng(5)
    xs = np.sort(rng.uniform(0, 10, 12))
    xs += np.arange(12) * 1e-6  # ensure strictly increasing
    ys = rng.normal(size=12)
    base = slope_fit(xs, ys)
    for c in (-7.0, 3.5, 1e6):
        assert slope_fit(xs, ys + c) == pytest.approx(base, rel=1e-9, abs=1e-9)


def test_slope_fit_argument_errors():
    with pytest.raises(ValueError):
        slope_fit([0.0], [1.0])
    with pytest.raises(ValueError):
        slope_fit([0.0, 0.0], [1.0, 2.0])  # not strictly increasing


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_slope_fit_refuses_a_log_x_that_is_not_finite(bad, at):
    # a nan passed the increasing check (nan <= 0 is False) and an inf at an
    # end was increasing; each fitted to nan
    xs = [1.0, 2.0, 3.0]
    xs[at] = bad
    with pytest.raises(ValueError, match="log_x"):
        slope_fit(xs, [1.0, 2.0, 3.0])


def test_slope_fit_rows_equal_1d_fits():
    # each row of a 2-d log_y is its own fit, with the bits of a 1-d call
    rng = np.random.default_rng(11)
    xs = np.log(np.logspace(6, 12, 10))
    ys = rng.normal(size=(40, 10)) * rng.uniform(1e-3, 1e3, size=(40, 1))
    rows = slope_fit(xs, ys)
    alone = np.array([slope_fit(xs, y) for y in ys])
    assert rows.shape == (40,) and all(type(slope_fit(xs, y)) is float for y in ys[:3])
    assert np.array_equal(rows.view(np.uint64), alone.view(np.uint64))
    cube = slope_fit(xs, ys.reshape(5, 8, 10))
    assert cube.shape == (5, 8)
    assert np.array_equal(cube.reshape(-1).view(np.uint64), alone.view(np.uint64))
    many = rng.normal(size=(10 ** 5, 10)) * rng.uniform(1e-3, 1e3, size=(10 ** 5, 1))
    alone = np.array([slope_fit(xs, y) for y in many])
    assert np.array_equal(slope_fit(xs, many).view(np.uint64), alone.view(np.uint64))


def test_slope_fit_refuses_a_mismatched_last_axis():
    xs = np.arange(4.0)
    for ys in (np.zeros(3), np.zeros((4, 3)), np.zeros((4, 5)), 1.0):
        with pytest.raises(ValueError):
            slope_fit(xs, ys)
    with pytest.raises(ValueError):
        slope_fit(np.zeros((2, 4)), np.zeros(4))  # log_x must be 1-d


def test_interval():
    iv = Interval(0.0, 1.0)
    assert iv.contains(0.5) and not iv.contains(1.5)
    assert iv.width == 1.0
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


def test_interval_of_arrays():
    # an array of intervals, as an array-valued MCEstimate's ci95
    iv = Interval(np.array([0.0, 0.5]), np.array([1.0, 0.5]))
    assert iv.contains(np.array([0.25, 0.5])) and not iv.contains(np.array([0.25, 0.75]))
    assert iv.width.tolist() == [1.0, 0.0]
    with pytest.raises(ValueError, match="lo <= hi"):
        Interval(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        Interval(np.array([0.0, np.nan]), 1.0)


def test_k1_within_1e14_of_mpmath_over_the_double_range():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(11)
    xs = np.concatenate([10.0 ** rng.uniform(-300.0, np.log10(700.0), 400),
                         [1e-300, 2.0, np.nextafter(2.0, 3.0), 700.0]])
    vals = bessel_k1(xs)
    with mp.workdps(40):
        for x, v in zip(xs, vals):
            ref = mp.besselk(1, mp.mpf(float(x)))
            assert abs(v - ref) <= 1e-14 * ref, f"x={x}"


def test_k1_within_1e15_of_mpmath_where_it_is_normal():
    # the bound the module states, with each branch sampled on its own
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(13)
    xs = np.concatenate([10.0 ** rng.uniform(-300.0, np.log10(2.0), 200),
                         10.0 ** rng.uniform(np.log10(2.0), np.log10(700.0), 200),
                         [1e-300, 2.0, np.nextafter(2.0, 3.0), 700.0]])
    vals = bessel_k1(xs)
    with mp.workdps(40):
        for x, v in zip(xs, vals):
            ref = mp.besselk(1, mp.mpf(float(x)))
            assert abs(v - ref) <= 1e-15 * ref, f"x={x}"


def _one_minus_x_k1(X, mp):
    """1 - X*K1(X) in mpmath: below 1e-20 from its two leading terms,
    (X^2/4)*(2*ln(2/X) + 1 - 2*euler), whose relative error is below
    X^2*ln(1/X); above, from K1 itself, with the 40 digits the subtraction
    loses at X = 1e-20 to spare."""
    if X < 1e-20:
        return X ** 2 / 4 * (2 * mp.log(2 / X) + 1 - 2 * mp.euler)
    with mp.workdps(mp.mp.dps + 40):
        return +(1 - X * mp.besselk(1, X))


def test_k1_branches_against_mpmath():
    # 1 - x*K1(x) without cancellation up to x = 2, and e^x*K1(x) without
    # underflow above it; K1 itself is covered by the bessel_k1 tests
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(12)
    small = np.concatenate([10.0 ** rng.uniform(-150.0, np.log10(2.0), 120), [1e-150, 2.0]])
    # the fit's live range, where e^-x*K1 has not yet underflowed, and its tail
    large = np.concatenate([10.0 ** rng.uniform(np.log10(2.0), 3.0, 60),
                            10.0 ** rng.uniform(3.0, 300.0, 60),
                            [np.nextafter(2.0, 3.0), 1e300]])
    with mp.workdps(40):
        for x, k in zip(small, _k1_series(small)):
            ref = _one_minus_x_k1(mp.mpf(float(x)), mp)
            assert abs(k - ref) <= 1e-15 * ref, f"x={x}"
        for x, k in zip(large, _k1_chebyshev(large)):
            X = mp.mpf(float(x))
            ref = mp.exp(X) * mp.besselk(1, X)
            assert abs(k - ref) <= 1e-15 * ref, f"x={x}"


def _shape(x, k):
    """A branch formula that returns the branch's K1 shape itself."""
    return k


def test_k1_map_is_elementwise():
    # a point takes its branch by its own value: the same bits alone, in a
    # mixed array and in an array longer than a slice
    xs = np.concatenate([np.geomspace(1e-6, 60.0, 50), [2.0, np.nextafter(2.0, 3.0)]])
    long = np.tile(xs, 400)
    together = _k1_map(_shape, _shape, xs)
    for i, x in enumerate(xs):
        assert _k1_map(_shape, _shape, np.array([x])).tobytes() == together[i:i + 1].tobytes()
    assert _k1_map(_shape, _shape, long).tobytes() == np.tile(together, 400).tobytes()


def test_k1_map_gives_each_formula_only_its_own_points():
    # the split is made once per call, by index: neither formula sees a point
    # of the other branch, and between them they see every point once, with
    # the argument that belongs to it
    rng = np.random.default_rng(4)
    xs = np.concatenate([10.0 ** rng.uniform(-3.0, 3.0, _SLICE + 999),
                         [2.0, np.nextafter(2.0, 3.0)]])
    rng.shuffle(xs)
    seen = {"small": [], "large": []}

    def branch(name):
        def fn(x, k, tag):
            seen[name].append(x.copy())
            assert np.array_equal(tag, -x)
            return tag
        return fn

    out = _k1_map(branch("small"), branch("large"), xs, -xs)
    assert np.array_equal(out, -xs)
    small, large = np.concatenate(seen["small"]), np.concatenate(seen["large"])
    assert len(seen["small"]) == len(seen["large"]) == 1  # one call for each branch
    assert np.all(small <= 2.0) and np.all(large > 2.0)
    assert small.size + large.size == xs.size
    assert 2.0 in small and np.nextafter(2.0, 3.0) in large


def test_chebyshev_table_is_its_script_output():
    pytest.importorskip("mpmath")
    script = Path(__file__).resolve().parents[1] / "tools" / "k1_chebyshev.py"
    assert tuple(runpy.run_path(str(script))["coefficients"]()) == _K1_CHEB
