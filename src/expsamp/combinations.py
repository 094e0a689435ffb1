"""Order-raising linear combinations of sampling operators.

The combined operator sum_i c_i * I_{i*w} converges at order p once the
coefficients solve

    sum_i c_i = 1,    sum_i c_i / i^k = 0   for k = 1..p-1,

a Vandermonde-type system in the nodes 1/i.  Coefficients are solved and
stored in exact rational arithmetic (the system is badly conditioned in
floating point) and converted to floats only when the operator is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .functions import TestFunction
from .kernels import Kernel
from .moments import _log_location, kantorovich_bracket_at_log
from .operators import OperatorConfig, _apply_with_cache, _CellMeans

__all__ = ["CombinationScheme", "solve_coefficients", "apply_combo", "combo_moment_bracket"]

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
        """sum_i c_i * values[i-1], the combined operator from its rates."""
        return math.fsum(float(c) * v for c, v in zip(self.coeffs, values))


def solve_coefficients(p: int) -> CombinationScheme:
    """Exact rational solution of the order-raising coefficient system."""
    if not 1 <= p <= MAX_P:
        raise ValueError(f"combination size p must be in 1..{MAX_P}, got {p}")
    # rows k = 0..p-1: sum_i c_i / i^k = (1, 0, ..., 0)
    matrix = [[Fraction(1, i ** k) for i in range(1, p + 1)] for k in range(p)]
    rhs = [Fraction(1)] + [Fraction(0)] * (p - 1)
    for col in range(p):
        pivot = next(r for r in range(col, p) if matrix[r][col] != 0)
        if pivot != col:
            matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
            rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        for r in range(col + 1, p):
            factor = matrix[r][col] / matrix[col][col]
            if factor == 0:
                continue
            for c in range(col, p):
                matrix[r][c] -= factor * matrix[col][c]
            rhs[r] -= factor * rhs[col]
    coeffs = [Fraction(0)] * p
    for r in range(p - 1, -1, -1):
        acc = rhs[r] - sum((matrix[r][c] * coeffs[c] for c in range(r + 1, p)), Fraction(0))
        coeffs[r] = acc / matrix[r][r]
    return CombinationScheme(p=p, coeffs=tuple(coeffs))


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


def combo_moment_bracket(kernel: Kernel, scheme: CombinationScheme, k: int, u: float) -> float:
    """(sum_i c_i / i^k) times the order-k averaged-moment bracket at u.

    Divided by (k+1)!, this is the coefficient on (theta^k f)(x) w^-k in the
    combined operator's expansion; the k = p value fixes the asymptotic
    constant of the order-p scheme.
    """
    return float(scheme.power_sum(k)) * kantorovich_bracket_at_log(kernel, k, _log_location(u))
