"""Exact rational oracles for kernels built from their spec.

A kernel is chi(t) = sum_i c_i B_n(t + a_i) with n = ``kernel.order`` and
the exact (c_i, a_i) in ``kernel.terms``; everything here is computed in
``Fraction``s from those, so it shares no float code with the library.
"""

import math
from fractions import Fraction

from expsamp.kernels import MAX_ORDER

# Every B-spline order, and combos with exact and with float-born logs.
ORACLE_SPECS = [f"bspline:{n}" for n in range(1, MAX_ORDER + 1)] + [
    "combo:4:e^1:e^2", "combo:2:e^1/2:e^-1/2", "combo:7:e^-3/7:e^5/3",
    "combo:3:1.3:0.6", "combo:10:0.1:7.25", "combo:1:e^1:e^2",
]


def bspline(n: int, t: Fraction) -> Fraction:
    """B_n(t) in exact rationals, by the truncated-power sum
    sum_j (-1)^j C(n, j) (t + n/2 - j)_+^(n-1) / (n-1)!; for n = 1 the
    convention (x)_+^0 = [x >= 0] gives the left-closed indicator."""
    total = Fraction(0)
    for j in range(n + 1):
        x = t + Fraction(n, 2) - j
        if x >= 0:
            total += (-1) ** j * math.comb(n, j) * x ** (n - 1)
    return total / math.factorial(n - 1)


def chi(kernel, t: Fraction) -> Fraction:
    """chi(t) = sum_i c_i B_n(t + a_i) in exact rationals."""
    return sum((c * bspline(kernel.order, t + a) for c, a in kernel.terms), Fraction(0))


def moments(kernel, s: Fraction, nu_max: int) -> list[Fraction]:
    """m_0..m_nu_max at log u = s in exact rationals, each translate summed
    only over the k where its support [-n/2, n/2) holds s - k + a."""
    n = kernel.order
    m = [Fraction(0)] * (nu_max + 1)
    for c, a in kernel.terms:
        lo = s + a - Fraction(n, 2)
        for k in range(math.floor(lo) + 1, math.floor(lo) + n + 1):
            weight, d = c * bspline(n, s - k + a), k - s
            for nu in range(nu_max + 1):
                m[nu] += weight
                weight *= d
    return m
