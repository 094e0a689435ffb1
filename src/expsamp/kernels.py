"""Kernel families for exponential sampling.

A kernel is a function chi on the positive half-line whose values depend on
log(u) only, with compact support in log scale and a known transform
phi(t) = integral of u^(it-1) * chi(u) du.  Two families are provided:

* Mellin B-splines of order n: the centered cardinal B-spline of order n
  evaluated at log(u), with transform (sin(t/2) / (t/2))^n.
* Linear combinations of two log-translates of a Mellin B-spline, with
  coefficients chosen so that the combined kernel keeps the zeroth moment
  equal to 1 and kills the first moment.

Both families satisfy the partition-of-unity identity
sum_k chi(e^-k * x^w) = 1 for every x > 0, w > 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

__all__ = [
    "Kernel",
    "KernelSpecError",
    "MellinBSplineSpec",
    "TranslatedComboSpec",
    "bspline_eval",
    "bspline_mellin_transform",
    "build_bspline_kernel",
    "build_translated_combo",
    "parse_kernel_spec",
]

MAX_ORDER = 10


class KernelSpecError(ValueError):
    """Raised when a kernel specifier string cannot be parsed."""


@dataclass(frozen=True, eq=False)
class Kernel:
    """Evaluatable kernel with compact log-support and transform metadata.

    ``eval_log`` is the primary evaluator: it takes t = log(u) and returns
    chi(u).  All operator and moment code works in log scale, so exp/log
    round trips are avoided.  ``log_support`` is a closed interval [a, b];
    eval_log returns exactly 0.0 outside it.

    ``mellin_transform`` maps t to the transform value at the purely
    imaginary point it.  ``mellin_transform_derivs`` maps (j, t) to the
    j-th derivative with respect to t of that same map; it is what the
    frequency-side moment evaluation consumes.

    ``log_knots`` and ``piece_degree`` describe the kernel as a piecewise
    polynomial of t: between consecutive knots (ascending, possibly
    repeated) eval_log is a polynomial of degree at most ``piece_degree``.
    The exact moment sup consumes them.

    Instances are immutable and compare by identity, so they are safe to
    share across threads and to use as cache keys.
    """

    eval_log: Callable[[float], float]
    log_support: tuple[float, float]
    label: str
    mellin_transform: Optional[Callable[[float], complex]] = None
    mellin_transform_derivs: Optional[Callable[[int, float], complex]] = None
    log_knots: Optional[tuple[float, ...]] = None
    piece_degree: Optional[int] = None

    def eval(self, u: float) -> float:
        """Value chi(u) for u > 0."""
        if u <= 0.0:
            raise ValueError(f"kernel argument must be positive, got {u}")
        return self.eval_log(math.log(u))

    @property
    def support_radius(self) -> float:
        a, b = self.log_support
        return max(abs(a), abs(b))


@dataclass(frozen=True)
class MellinBSplineSpec:
    """Order of a Mellin B-spline kernel; log-support is [-n/2, n/2]."""

    order: int

    def __post_init__(self) -> None:
        if not 1 <= self.order <= MAX_ORDER:
            raise ValueError(f"B-spline order must be in 1..{MAX_ORDER}, got {self.order}")


def _bspline_log(n: int, t: float) -> float:
    """Centered cardinal B-spline of order n at t.

    Triangular convolution recursion
    B_m(s) = ((m/2 + s) B_{m-1}(s + 1/2) + (m/2 - s) B_{m-1}(s - 1/2)) / (m - 1):
    every coefficient inside the support is non-negative, so there is no
    cancellation and values stay accurate to a few ulp at every order (the
    equivalent truncated-power sum loses ~1e-12 already at order 10).
    Order 1 uses the left-closed convention on [-1/2, 1/2).
    """
    half = 0.5 * n
    if n == 1:
        return 1.0 if -0.5 <= t < 0.5 else 0.0
    if not -half < t < half:  # NaN included
        return 0.0
    # Exactly one order-1 cell holds t: testing each cell's bounds instead
    # can mark two cells when t + n/2 rounds onto an integer.
    values = [0.0] * n
    values[min(math.floor(t + half), n - 1)] = 1.0
    for m in range(2, n + 1):
        shift = 0.5 * (n - m)
        for j in range(n - m + 1):
            a = t + shift - j
            values[j] = ((0.5 * m + a) * values[j] + (0.5 * m - a) * values[j + 1]) / (m - 1)
    return values[0]


def bspline_eval(spec: MellinBSplineSpec, u: float) -> float:
    """B-spline kernel value at u > 0; a function of log(u) only."""
    if u <= 0.0:
        raise ValueError(f"kernel argument must be positive, got {u}")
    return _bspline_log(spec.order, math.log(u))


def _sinc(x: float) -> float:
    return 1.0 if x == 0.0 else math.sin(x) / x


def _sinc_derivs(x: float, jmax: int) -> list[float]:
    """Derivatives of sin(x)/x at x, orders 0..jmax.

    Near the origin the power series sum_m (-1)^m x^(2m) / (2m+1)! is
    differentiated term by term; elsewhere the Leibniz expansion of
    sin(x) * x^(-1) is used.  Both branches are accurate to round-off,
    and the series branch returns exact zeros for odd orders at x = 0.
    """
    out = []
    if abs(x) < 0.5:
        for j in range(jmax + 1):
            terms = []
            m0 = (j + 1) // 2
            for m in range(m0, m0 + 24):
                num = math.factorial(2 * m)
                den = math.factorial(2 * m - j) * math.factorial(2 * m + 1)
                term = x ** (2 * m - j) * num / den
                terms.append(term if m % 2 == 0 else -term)
            out.append(math.fsum(terms))
        return out
    for j in range(jmax + 1):
        terms = []
        for l in range(j + 1):
            sine = math.sin(x + 0.5 * math.pi * l)
            coef = math.comb(j, l) * math.factorial(j - l) / x ** (j - l + 1)
            terms.append(sine * coef if (j - l) % 2 == 0 else -sine * coef)
        out.append(math.fsum(terms))
    return out


def _poly_mul_trunc(a: list[float], b: list[float], jmax: int) -> list[float]:
    return [
        math.fsum(a[l] * b[i - l] for l in range(i + 1))
        for i in range(jmax + 1)
    ]


def _sincpow_derivs(n: int, t: float, jmax: int) -> list[float]:
    """Derivatives of (sin(t/2)/(t/2))^n at t, orders 0..jmax.

    Taylor coefficients of sinc(t/2) at the point are raised to the n-th
    power by truncated polynomial multiplication; this stays exact at the
    transform's zeros (no cancellation of large terms).
    """
    d = _sinc_derivs(0.5 * t, jmax)
    base = [d[i] / (2 ** i * math.factorial(i)) for i in range(jmax + 1)]
    coeffs = [1.0] + [0.0] * jmax
    for _ in range(n):
        coeffs = _poly_mul_trunc(coeffs, base, jmax)
    return [math.factorial(i) * coeffs[i] for i in range(jmax + 1)]


def bspline_mellin_transform(spec: MellinBSplineSpec, t: float) -> float:
    """Transform of the order-n B-spline kernel at the imaginary point it:
    (sin(t/2)/(t/2))^n, with the t = 0 limit equal to 1."""
    return _sinc(0.5 * t) ** spec.order


def _bspline_knots(n: int) -> tuple[float, ...]:
    return tuple(j - 0.5 * n for j in range(n + 1))


def build_bspline_kernel(spec: MellinBSplineSpec) -> Kernel:
    """Kernel object for a Mellin B-spline of the given order."""
    n = spec.order
    return Kernel(
        eval_log=lambda t: _bspline_log(n, t),
        log_support=(-0.5 * n, 0.5 * n),
        label=f"bspline:{n}",
        mellin_transform=lambda t: _sinc(0.5 * t) ** n,
        mellin_transform_derivs=lambda j, t: _sincpow_derivs(n, t, j)[j],
        log_knots=_bspline_knots(n),
        piece_degree=n - 1,
    )


@dataclass(frozen=True)
class TranslatedComboSpec:
    """Two log-translates of a B-spline combined as c1*Bn(alpha*u) + c2*Bn(beta*u).

    Logs of the translate factors are kept as exact rationals (every float
    is one), so the defining identities c1 + c2 = 1 and
    c1*log(alpha) + c2*log(beta) = 0 hold exactly as constructed.
    """

    base: MellinBSplineSpec
    log_alpha: Fraction
    log_beta: Fraction

    def __post_init__(self) -> None:
        if self.log_alpha == self.log_beta:
            raise ValueError("translate factors must differ (alpha != beta)")

    @classmethod
    def from_scales(cls, base: MellinBSplineSpec, alpha: float, beta: float) -> "TranslatedComboSpec":
        if alpha <= 0.0 or beta <= 0.0:
            raise ValueError("translate factors must be positive")
        return cls(base, Fraction(math.log(alpha)), Fraction(math.log(beta)))

    @property
    def alpha(self) -> float:
        return math.exp(float(self.log_alpha))

    @property
    def beta(self) -> float:
        return math.exp(float(self.log_beta))

    @property
    def c1(self) -> Fraction:
        return self.log_beta / (self.log_beta - self.log_alpha)

    @property
    def c2(self) -> Fraction:
        return -self.log_alpha / (self.log_beta - self.log_alpha)


def build_translated_combo(
    base: MellinBSplineSpec,
    alpha: float | Fraction | None = None,
    beta: float | Fraction | None = None,
    *,
    log_alpha: Fraction | None = None,
    log_beta: Fraction | None = None,
) -> Kernel:
    """Kernel c1*Bn(alpha*u) + c2*Bn(beta*u) with the moment-preserving coefficients
    c1 = log(beta)/(log(beta) - log(alpha)), c2 = -log(alpha)/(log(beta) - log(alpha)).

    Pass alpha/beta as scale factors, or give log_alpha/log_beta directly
    (exact rationals, e.g. from an ``e^q`` specifier).
    """
    if log_alpha is None or log_beta is None:
        if alpha is None or beta is None:
            raise ValueError("give either alpha/beta or log_alpha/log_beta")
        spec = TranslatedComboSpec.from_scales(base, float(alpha), float(beta))
    else:
        spec = TranslatedComboSpec(base, log_alpha, log_beta)
    return _build_combo_kernel(spec)


def _build_combo_kernel(spec: TranslatedComboSpec) -> Kernel:
    n = spec.base.order
    la = float(spec.log_alpha)
    lb = float(spec.log_beta)
    c1 = float(spec.c1)
    c2 = float(spec.c2)

    def eval_log(t: float) -> float:
        return c1 * _bspline_log(n, t + la) + c2 * _bspline_log(n, t + lb)

    def transform(t: float) -> complex:
        # translate by h scales the transform at it by h^(-it) = e^(-it*log h)
        return (c1 * cmath.exp(-1j * t * la) + c2 * cmath.exp(-1j * t * lb)) * _sinc(0.5 * t) ** n

    def transform_deriv(j: int, t: float) -> complex:
        base_d = _sincpow_derivs(n, t, j)
        total = 0j
        for c, a in ((c1, la), (c2, lb)):
            inner = 0j
            for l in range(j + 1):
                inner += math.comb(j, l) * (-1j * a) ** l * base_d[j - l]
            total += c * cmath.exp(-1j * t * a) * inner
        return total

    support = (-0.5 * n - max(la, lb), 0.5 * n - min(la, lb))

    def scale_repr(logv: Fraction) -> str:
        # exact e^q specs keep the rational; float-born logs print as scales
        if logv.denominator <= 1000:
            return f"e^{logv}"
        return f"{math.exp(float(logv)):.12g}"

    return Kernel(
        eval_log=eval_log,
        log_support=support,
        label=f"combo:{n}:{scale_repr(spec.log_alpha)}:{scale_repr(spec.log_beta)}",
        mellin_transform=transform,
        mellin_transform_derivs=transform_deriv,
        log_knots=tuple(sorted(k - a for a in (la, lb) for k in _bspline_knots(n))),
        piece_degree=n - 1,
    )


def _parse_scale_token(token: str) -> tuple[Fraction | None, float | None]:
    """A translate factor: either ``e^<rational>`` (exact) or a decimal literal."""
    if token.startswith("e^"):
        try:
            return Fraction(token[2:]), None
        except (ValueError, ZeroDivisionError) as exc:
            raise KernelSpecError(f"bad exponent in scale factor {token!r}: {exc}") from None
    try:
        value = float(token)
    except ValueError:
        raise KernelSpecError(f"bad scale factor {token!r}: not a decimal or e^<rational>") from None
    if value <= 0.0:
        raise KernelSpecError(f"scale factor must be positive, got {token!r}")
    return None, value


def parse_kernel_spec(text: str) -> Kernel:
    """Build a kernel from a specifier string.

    Accepted forms:

    * ``bspline:<n>`` with 1 <= n <= 10
    * ``combo:<n>:<alpha>:<beta>`` where alpha/beta are decimal literals or
      ``e^<rational>`` (the exponent is stored exactly, not as a float)
    """
    parts = text.split(":")
    family = parts[0]
    if family == "bspline":
        if len(parts) != 2:
            raise KernelSpecError(f"bspline spec needs one order field, got {text!r}")
        try:
            order = int(parts[1])
        except ValueError:
            raise KernelSpecError(f"bad B-spline order {parts[1]!r} in {text!r}") from None
        try:
            return build_bspline_kernel(MellinBSplineSpec(order))
        except ValueError as exc:
            raise KernelSpecError(str(exc)) from None
    if family == "combo":
        if len(parts) != 4:
            raise KernelSpecError(f"combo spec needs order, alpha, beta fields, got {text!r}")
        try:
            order = int(parts[1])
        except ValueError:
            raise KernelSpecError(f"bad B-spline order {parts[1]!r} in {text!r}") from None
        exact_a, float_a = _parse_scale_token(parts[2])
        exact_b, float_b = _parse_scale_token(parts[3])
        log_a = exact_a if exact_a is not None else Fraction(math.log(float_a))
        log_b = exact_b if exact_b is not None else Fraction(math.log(float_b))
        try:
            return build_translated_combo(MellinBSplineSpec(order), log_alpha=log_a, log_beta=log_b)
        except ValueError as exc:
            raise KernelSpecError(str(exc)) from None
    raise KernelSpecError(f"unknown kernel family {family!r} in {text!r} (want bspline|combo)")
