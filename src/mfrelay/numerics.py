"""Special functions and small numeric utilities.

The only special function the outage closed forms need is K1, the
first-order modified Bessel function of the second kind.  ``bessel_k1``
validates its domain and evaluates ``scipy.special.k1`` (Cephes Chebyshev
expansions), whose relative error stays near 1e-15 against an
arbitrary-precision oracle, well beyond the 1e-10 the outage formulas
require, until the result enters the subnormal range near x = 705.
``scipy.special`` is imported on the first ``bessel_k1`` call, not with
this module, so runs that never reach K1 (the full-CSIT rates and
exponents) do not pay for loading it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise ValueError(f"interval requires lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        return bool(np.all((self.lo <= x) & (x <= self.hi)))


def bessel_k1(x):
    """K1(x) for x > 0; accepts scalars or arrays elementwise.

    Underflows smoothly to 0.0 for x beyond ~745 where e^-x leaves the
    double range.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("bessel_k1 requires finite x > 0")
    from scipy.special import k1

    return _scalar(k1(arr))


def _scalar(out):
    """The one scalar-result rule: a 0-d result is a Python float, and an
    array stays an array."""
    return float(out) if np.ndim(out) == 0 else out


def slope_fit(points) -> float:
    """Least-squares slope of log_y against log_x.

    ``points`` is a sequence of (log_x, log_y) pairs with strictly
    increasing log_x; used to read off high-SNR exponents.
    """
    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("slope_fit needs at least 2 (log_x, log_y) points")
    xs, ys = pts[:, 0], pts[:, 1]
    if np.any(np.diff(xs) <= 0):
        raise ValueError("slope_fit requires strictly increasing log_x")
    xc = xs - xs.mean()
    return float(np.dot(xc, ys - ys.mean()) / np.dot(xc, xc))
