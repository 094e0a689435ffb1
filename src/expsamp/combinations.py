"""Order-raising linear combinations of sampling operators.

The combined operator sum_i c_i * I_{i*w} converges at order p once the
coefficients solve

    sum_i c_i = 1,    sum_i c_i / i^k = 0   for k = 1..p-1,

a Vandermonde system in the nodes 1/i.  Its solution is the Richardson
extrapolation weights, c_i = L_i(0) for the Lagrange basis on the nodes
1/i, which in closed form is

    c_i = (-1)^(p-i) * i^p / (i! * (p-i)!).

The plain operator I_w is the p = 1 member, c = (1).  Coefficients are
stored as exact rationals (their float sums cancel badly) and converted to
floats only when the operator is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .functions import TestFunction
from .kernels import Kernel
from .operators import OperatorConfig, _apply_with_cache, _CellMeans

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

    def power_sum(self, k: int) -> Fraction:
        """sum_i c_i / i^k, exactly."""
        return sum((c / Fraction(i + 1) ** k for i, c in enumerate(self.coeffs)), Fraction(0))

    def combine(self, values: Sequence[float]) -> float:
        """sum_i c_i * values[i-1], the combined operator from its rates;
        ValueError where a term c_i * values[i-1] overflows."""
        total = math.fsum(float(c) * v for c, v in zip(self.coeffs, values))
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
    w: float,
    p: int,
    xs: Sequence[float],
    quad_nodes: int,
) -> list[list[float]]:
    """[(I_{iw} f)(x) for i = 1..p] for each x in xs, with one cell-mean
    cache per rate shared across the points."""
    cfgs = [OperatorConfig(w=i * w, quad_nodes=quad_nodes) for i in range(1, p + 1)]
    means = [_CellMeans(f, cfg).__getitem__ for cfg in cfgs]
    return [[_apply_with_cache(kernel, cfg.w, x, m) for cfg, m in zip(cfgs, means)] for x in xs]


def apply_combo(
    f: TestFunction,
    kernel: Kernel,
    scheme: CombinationScheme,
    w: float,
    x: float,
    quad_nodes: int = 7,
) -> float:
    """sum_i c_i * (I_{i*w} f)(x)."""
    return scheme.combine(_rate_values(f, kernel, w, scheme.p, [x], quad_nodes)[0])

