"""Chebyshev coefficients of sqrt(x)*e^x*K1(x) on x > 2, for mfrelay.numerics.

    python tools/k1_chebyshev.py

prints the ``_K1_CHEB`` table of ``src/mfrelay/numerics.py``.  The series is
in t = 4/x - 1, which maps x in (2, inf) onto (-1, 1); the coefficients
come from 40-digit mpmath values at the 64 Chebyshev-Gauss nodes, so the
aliasing error of each is below 1e-30.  Needs mpmath (the ``test`` extra).
"""

import mpmath as mp

TERMS = 25
NODES = 64
DPS = 40


def coefficients(terms=TERMS, nodes=NODES, dps=DPS):
    """[c_0, ..., c_(terms-1)] with sqrt(x)*e^x*K1(x) = c_0/2 + sum c_k T_k(4/x - 1)."""
    with mp.workdps(dps):
        angles = [mp.pi * (j + mp.mpf(1) / 2) / nodes for j in range(nodes)]
        values = []
        for angle in angles:
            x = 4 / (mp.cos(angle) + 1)
            values.append(mp.sqrt(x) * mp.exp(x) * mp.besselk(1, x))
        return [float(2 * mp.fsum(v * mp.cos(k * angle) for v, angle in zip(values, angles)) / nodes)
                for k in range(terms)]


def main():
    print("_K1_CHEB = (")
    for c in coefficients():
        print(f"    {c!r},")
    print(")")


if __name__ == "__main__":
    main()
