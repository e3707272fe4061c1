"""K1 over the arguments the outage closed forms reach beyond the
[1e-6, 30] gate of tests/test_numerics.py: the exponential tail, the
subnormal range and the underflow to 0.0, plus the memory bessel_k1 takes.
"""

import tracemalloc

import numpy as np
import pytest

from mfrelay.numerics import bessel_k1

SMALLEST_SUBNORMAL = 2.0 ** -1074


def test_k1_tail_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    xs = np.concatenate([np.linspace(30.0, 740.0, 400), np.linspace(700.0, 744.9, 100)])
    vals = bessel_k1(xs)
    subnormal = 0
    for x, v in zip(xs, vals):
        ref = mp.besselk(1, mp.mpf(float(x)))
        if ref >= np.finfo(float).tiny:
            assert abs(v - ref) <= 1e-10 * ref, f"x={x}"
        else:
            # below the normal range only absolute spacing 2**-1074 is left
            subnormal += 1
            assert abs(v - ref) <= 2 * SMALLEST_SUBNORMAL, f"x={x}"
    assert subnormal > 50


def test_k1_exact_zero_past_underflow():
    xs = np.array([745.0, 745.5, 1e3, 1e6, 1e300])
    assert np.all(bessel_k1(xs) == 0.0)
    assert bessel_k1(745.0) == 0.0


def test_k1_allocates_about_its_output():
    x = np.linspace(1e-3, 60.0, 100_000)
    # a first call leaves any one-time setup out of the measurement
    bessel_k1(1.0)
    tracemalloc.start()
    try:
        bessel_k1(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # an (n, nodes) quadrature matrix would be hundreds of times x.nbytes
    assert peak <= 3 * x.nbytes
