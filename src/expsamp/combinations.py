"""Order-raising linear combinations of sampling operators.

The combined operator sum_i c_i * I_{i*w} converges at order p once the
coefficients solve

    sum_i c_i = 1,    sum_i c_i / i^k = 0   for k = 1..p-1,

a Vandermonde system in the nodes 1/i.  Its solution is the Richardson
extrapolation weights, c_i = L_i(0) for the Lagrange basis on the nodes
1/i, which in closed form is

    c_i = (-1)^(p-i) * i^p / (i! * (p-i)!).

The plain operator I_w is the p = 1 member, c = (1).  Coefficients are
stored as exact rationals (their float sums cancel badly); the operator
is applied with their floats, converted once per scheme.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .functions import TestFunction
from .kernels import Kernel
from .operators import OperatorConfig, _dot, apply_grid

__all__ = ["CombinationScheme", "solve_coefficients", "apply_combo"]

MAX_P = 8


@dataclass(frozen=True)
class CombinationScheme:
    """p operators at rates w, 2w, ..., pw with exact rational coefficients."""

    p: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.p:
            raise ValueError(f"expected {self.p} coefficients, got {len(self.coeffs)}")
        # the float coefficients of ``combine``, converted once; an attribute,
        # not a field, so repr and == still see the exact ones only
        object.__setattr__(self, "_floats", tuple(map(float, self.coeffs)))

    def rates(self, w: float) -> tuple[float, ...]:
        """The rates w, 2w, ..., pw, in the order of the coefficients."""
        return tuple(i * w for i in range(1, self.p + 1))

    def power_sum(self, k: int) -> Fraction:
        """sum_i c_i / i^k, exactly."""
        return sum((c / Fraction(i + 1) ** k for i, c in enumerate(self.coeffs)), Fraction(0))

    def combine(self, values: Sequence[float]) -> float:
        """sum_i c_i * values[i-1] over exactly p values; ValueError past the float range."""
        if len(values) != self.p:
            raise ValueError(f"the p={self.p} combination takes {self.p} values, got {len(values)}")
        total = _dot(self._floats, values)
        if not math.isfinite(total):
            raise ValueError(f"the p={self.p} combination overflows at values {list(values)}")
        return total


def solve_coefficients(p: int) -> CombinationScheme:
    """The order-p scheme: exact rational coefficients in closed form."""
    if not 1 <= p <= MAX_P:
        raise ValueError(f"combination size p must be in 1..{MAX_P}, got {p}")
    coeffs = tuple(
        Fraction((-1) ** (p - i) * i ** p, math.factorial(i) * math.factorial(p - i))
        for i in range(1, p + 1)
    )
    return CombinationScheme(p=p, coeffs=coeffs)


def _rate_values(
    f: TestFunction,
    kernel: Kernel,
    rates: Iterable[float],
    xs: Sequence[float],
    quad_nodes: int,
) -> dict[float, list[float]]:
    """{rate: [(I_rate f)(x) for x in xs]}: each distinct rate (equal as floats)
    validated, then evaluated once in ascending order by ``apply_grid``."""
    cfgs = [OperatorConfig(w=rate, quad_nodes=quad_nodes) for rate in sorted(set(rates))]
    return {cfg.w: apply_grid(f, kernel, cfg, xs) for cfg in cfgs}


def _combined_values(
    f: TestFunction, kernel: Kernel, scheme: CombinationScheme, ws: Sequence[float],
    xs: Sequence[float], quad_nodes: int,
) -> list[list[float]]:
    """[[sum_i c_i * (I_{i*w} f)(x) for x in xs] for w in ws], from one rate
    table over the rates of every w."""
    rates = [scheme.rates(w) for w in ws]
    table = _rate_values(f, kernel, [r for rs in rates for r in rs], xs, quad_nodes)
    return [[scheme.combine(v) for v in zip(*(table[r] for r in rs))] for rs in rates]


def apply_combo(
    f: TestFunction,
    kernel: Kernel,
    scheme: CombinationScheme,
    w: float,
    x: float,
    quad_nodes: int = 7,
) -> float:
    """sum_i c_i * (I_{i*w} f)(x)."""
    return _combined_values(f, kernel, scheme, [w], [x], quad_nodes)[0][0]
