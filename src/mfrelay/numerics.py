"""Special functions and small numeric utilities.

The outage closed forms need K1, the first-order modified Bessel function
of the second kind, in one shape per branch of x, computed in numpy in the
Cephes manner.  ``_k1_map`` splits its points at x = 2 once per call and
hands each branch's points, with that branch's shape, to that branch's
formula:

* for x <= 2, 1 - x*K1(x) (which tends to 0 as x -> 0, so it must not be
  formed by that subtraction), from the ascending series of DLMF 10.31.1
  in y = x^2/4,
  1 - x*K1(x) = -x*ln(x/2)*I1(x) + y*sum (psi(k+1) + psi(k+2)) y^k / (k!(k+1)!),
  13 terms of each series, with coefficients built from ``math`` at import;
* for x > 2, the exp-scaled e^x*K1(x) (which does not underflow), from a
  25-term Chebyshev series of sqrt(x)*e^x*K1(x) in t = 4/x - 1, summed by
  Clenshaw's recurrence; ``tools/k1_chebyshev.py`` generates the
  coefficients with mpmath.

Against 40-digit mpmath, K1 is within 1e-15 relative on [1e-300, 700] and
1 - x*K1(x) within 4e-16 on [1e-150, 2].  ``bessel_k1`` is K1 itself,
domain-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import _TINY, _map_slices, _scalar

_K1_SPLIT = 2.0  # the series serves x <= _K1_SPLIT, the Chebyshev fit x above it

# sqrt(x)*e^x*K1(x) = c_0/2 + sum c_k T_k(4/x - 1) on x > 2 (tools/k1_chebyshev.py)
_K1_CHEB = (
    2.7206261904844427,
    0.10392373657681724,
    -0.002857816859622779,
    0.00019521551847135162,
    -1.936197974166083e-05,
    2.406484947837217e-06,
    -3.5019606030878126e-07,
    5.7410841254500495e-08,
    -1.0345762465678097e-08,
    2.0150497551970347e-09,
    -4.1903547593419254e-10,
    9.218315187605315e-11,
    -2.129967838427791e-11,
    5.139639673482343e-12,
    -1.2891739609498229e-12,
    3.348419666052243e-13,
    -8.976705182010146e-14,
    2.4771544242195988e-14,
    -7.0198370892147685e-15,
    2.038703166239861e-15,
    -6.057047270643018e-16,
    1.8380935752430455e-16,
    -5.689462849193648e-17,
    1.7940510478863572e-17,
    -5.7567444820733025e-18,
)


def _series_coefficients(terms=13):
    """Coefficients, highest power first, of the two series in y of DLMF
    10.31.1 at n = 1: sum y^k/(k!(k+1)!), which is I1(x)/(x/2), and
    sum (psi(k+1) + psi(k+2)) y^k/(k!(k+1)!), with psi(k+1) = H_k - gamma.
    At y <= 1 the first term left out is below 1e-19."""
    i1, psi, harmonic = [], [], 0.0
    for k in range(terms):
        weight = 1.0 / (math.factorial(k) * math.factorial(k + 1))
        i1.append(weight)
        psi.append((2.0 * harmonic + 1.0 / (k + 1) - 2.0 * np.euler_gamma) * weight)
        harmonic += 1.0 / (k + 1)
    return tuple(i1[::-1]), tuple(psi[::-1])


_I1_SERIES, _PSI_SERIES = _series_coefficients()


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi], or an array of them where the endpoints
    are arrays."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi))):
            raise ValueError("interval endpoints must be finite")
        if np.any(np.greater(self.lo, self.hi)):
            raise ValueError(f"interval requires lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        return bool(np.all((self.lo <= x) & (x <= self.hi)))


def _horner(coefs, y):
    """The polynomial with ``coefs`` (highest power first) at y, in place."""
    acc = np.full_like(y, coefs[0])
    for c in coefs[1:]:
        acc *= y
        acc += c
    return acc


def _clenshaw(coefs, t):
    """coefs[0]/2 + sum coefs[k]*T_k(t), by Clenshaw's recurrence, in place."""
    t2 = t + t
    b1, b2, b0 = np.full_like(t, coefs[-1]), np.zeros_like(t), np.empty_like(t)
    for c in coefs[-2:0:-1]:
        np.multiply(t2, b1, out=b0)
        b0 -= b2
        b0 += c
        b0, b1, b2 = b2, b0, b1
    np.multiply(t, b1, out=b0)
    b0 -= b2
    b0 += 0.5 * coefs[0]
    return b0


def _k1_series(x):
    """1 - x*K1(x) where x <= 2, from DLMF 10.31.1, in place where it can be."""
    # below 2*_TINY, 1 - x*K1(x) underflows to 0 with or without the floor,
    # which keeps the log of the smallest subnormal's half finite
    h = np.maximum(0.5 * x, _TINY)
    y = h * h
    omx = _horner(_PSI_SERIES, y)
    log_term = np.log(h)
    log_term *= -2.0
    log_term *= _horner(_I1_SERIES, y)
    omx += log_term
    omx *= h  # then by h again: y * bracket would underflow with y first
    omx *= h
    return omx


def _k1_chebyshev(x):
    """e^x*K1(x) where x > 2, from the Chebyshev fit of sqrt(x)*e^x*K1(x)."""
    return _clenshaw(_K1_CHEB, 4.0 / x - 1.0) / np.sqrt(x)


def _k1_map(small, large, x, *args):
    """small(x, 1 - x*K1(x), *args) where x <= _K1_SPLIT and
    large(x, e^x*K1(x), *args) where x is above it, elementwise, for x > 0.

    x and ``args`` broadcast to one shape.  The points are split by index
    once per call, and each formula runs on its own branch's points only,
    so a point gets the same bits alone or inside any array.  Bulk callers
    run it on the slices of ``channel._map_slices``, so its temporaries are
    slice-sized.
    """
    x, *args = np.broadcast_arrays(np.asarray(x, dtype=float), *args)
    flat = [np.ravel(v) for v in (x, *args)]
    out = np.empty(x.size)
    below = flat[0] <= _K1_SPLIT
    with np.errstate(over="ignore"):  # K1(x) passes the largest double below x ~ 5.6e-309
        for fn, kernel, idx in ((small, _k1_series, np.flatnonzero(below)),
                                (large, _k1_chebyshev, np.flatnonzero(~below))):
            if idx.size:
                v, *rest = (f[idx] for f in flat)
                out[idx] = fn(v, kernel(v), *rest)
    return out.reshape(x.shape)


def _k1(x):
    """K1(x) for x > 0, elementwise (``bessel_k1``'s kernel)."""
    return _k1_map(lambda v, k: (1.0 - k) / v, lambda v, k: k * np.exp(-v), x)


def bessel_k1(x):
    """K1(x) for x > 0; accepts scalars or arrays elementwise, checked on the
    whole array and evaluated slice by slice (``channel._map_slices``).

    Underflows smoothly to 0.0 for x beyond ~745 where e^-x leaves the
    double range, and overflows to inf below x ~ 5.6e-309.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("bessel_k1 requires finite x > 0")
    return _map_slices(_k1, arr)


def slope_fit(log_x, log_y):
    """Least-squares slope of log_y against log_x, along log_y's last axis.

    ``log_x`` is a strictly increasing 1-d grid of at least 2 points and
    the last axis of ``log_y`` runs along it; each leading index of log_y
    is a fit of its own, and a 1-d log_y gives a float.  Used to read off
    high-SNR exponents.  Each fit is one numpy sum along the last axis, with
    no BLAS, so a row gets the same bits alone or inside an array, on any
    CPU core type.
    """
    xs, ys = np.asarray(log_x, dtype=float), np.asarray(log_y, dtype=float)
    if xs.ndim != 1 or xs.size < 2 or ys.ndim == 0 or ys.shape[-1] != xs.size:
        raise ValueError("slope_fit needs a 1-d log_x of >= 2 points matching log_y's last axis")
    if not (np.all(np.isfinite(xs)) and np.all(np.diff(xs) > 0)):
        raise ValueError("slope_fit requires a finite, strictly increasing log_x")
    xc = xs - xs.mean()
    yc = ys - ys.mean(axis=-1, keepdims=True)
    return _scalar(np.sum(yc * xc, axis=-1) / np.sum(xc * xc))
