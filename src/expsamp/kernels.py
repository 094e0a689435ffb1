"""Kernel families for exponential sampling.

A kernel is a function chi on the positive half-line whose values depend on
log(u) only, with compact support in log scale and a known transform
phi(t) = integral of u^(it-1) * chi(u) du.  Every kernel here is a weighted
sum of log-translates of one Mellin B-spline, sum_i c_i B_n(log(u) + a_i),
built by a single constructor from its spec string (``parse_kernel_spec``):

* ``bspline:<n>``, the Mellin B-spline of order n: the centered cardinal
  B-spline evaluated at log(u), with transform (sin(t/2) / (t/2))^n; the
  single term (1, 0).
* ``combo:<n>:<alpha>:<beta>``, two log-translates c1*B_n(alpha*u) +
  c2*B_n(beta*u), with coefficients chosen so that the combined kernel
  keeps the zeroth moment equal to 1 and kills the first moment.

Both families satisfy the partition-of-unity identity
sum_k chi(e^-k * x^w) = 1 for every x > 0, w > 0.

B_n is evaluated in de Boor's piecewise-polynomial form: a table of exact
per-piece coefficients, built once per order on first parse, read by
Horner's rule at n/2 - |t|.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "Kernel",
    "KernelSpecError",
    "parse_kernel_spec",
]

MAX_ORDER = 10

# Largest float spacing ulp(t) allowed at a window position t = w*log(x).
# The kernel weights are read at the offsets t - k, which carry only
# t's fractional part; from |t| >= 2^23 on it is known to no better than
# ulp(t) >= 2^-29 > 1e-9, and at |t| >= 2^52 it is gone altogether.
WINDOW_ULP_TOL = 1e-9

# Largest |c1| + |c2| a combo may have.  The coefficients grow as the two
# factors approach each other, and the kernel's zeroth moment loses their
# size times the rounding of the weights: |m_0 - 1| reached 4.4e-13 at a
# sum of 2.77e3, 5.8e-12 at 2.77e4 and 0.65 at 6.2e15.
MAX_COMBO_COEFFICIENT_SUM = 1000

# Largest |log alpha| and |log beta| a combo may have.  The support spans
# |log alpha - log beta|, and every moment and operator sum walks a window
# that wide.  One-shot CLI calls on a 2-CPU VM, CPython 3.11: at the cap,
# ``kernel-info`` and ``moments --nu-max 8`` take 0.2-0.3 s, and 0.5 s for
# combo:10:e^-1000:e^1000; ``kernel-info`` took 6.7 s at e^1e5 and never
# ended at e^1e300.  A decimal factor's log is always within the cap.
MAX_TRANSLATE_LOG = 1000


class KernelSpecError(ValueError):
    """Raised when a kernel specifier string cannot be parsed."""


@dataclass(frozen=True, eq=False)
class Kernel:
    """Evaluatable kernel sum_i c_i B_n(t + a_i) of t = log(u), held as its
    exact spec: the B-spline ``order`` n and the ``terms`` ((c_i, a_i), ...)
    as exact rationals, ((1, 0),) for the Mellin B-spline itself.

    ``eval_log`` takes t = log(u) and returns chi(u): all operator and
    moment code works in log scale, so exp/log round trips are avoided.  It
    is a field of its own so that an instrumented evaluator can be swapped
    in with ``dataclasses.replace``, which derives the rest again.

    Derived from ``order`` and ``terms``: ``log_knots``, ascending and
    possibly repeated, the knots j - n/2 - a_i of every term; between
    consecutive knots eval_log is a polynomial of degree at most n - 1, and
    outside the end knots it is exactly 0.0.  The log-support, the
    summation window and the exact moment sup all come from them.  And
    ``mellin_transform_derivs``, the transform's derivatives.

    Instances are immutable and compare by identity, so they are safe to
    use as cache keys.
    """

    eval_log: Callable[[float], float]
    label: str
    order: int
    terms: tuple[tuple[Fraction, Fraction], ...]
    log_knots: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        n = self.order
        knots = sorted(j - 0.5 * n - float(a) for _, a in self.terms for j in range(n + 1))
        object.__setattr__(self, "log_knots", tuple(knots))

    def mellin_transform_derivs(self, j: int, t: float) -> complex:
        """The j-th derivative in t of the transform phi(t) = integral of
        u^(it-1) chi(u) du; j = 0 is the transform itself.  Each translate
        B_n(t + a) has the transform e^(-ita) phi_n(t), whose j-th derivative
        the Leibniz rule expands; c_i and a_i are the floats eval_log uses.
        The frequency-side moment evaluation consumes it."""
        base = _sincpow_derivs(self.order, t, j)
        total = 0j
        for c, a in self.terms:
            a = float(a)
            inner = 0j
            for l in range(j + 1):
                inner += math.comb(j, l) * (-1j * a) ** l * base[j - l]
            total += float(c) * cmath.exp(-1j * t * a) * inner
        return total

    @property
    def log_support(self) -> tuple[float, float]:
        """The closed interval [a, b] spanned by the end knots."""
        return self.log_knots[0], self.log_knots[-1]

    def window(self, t: float) -> range:
        """Integers k with t - k in the log-support, widened by one on each
        side: ceil(t - b) - 1 .. floor(t - a) + 1.

        Every sum over k of eval_log(t - k), in the operator and in the
        moments, runs over this range.  The widening absorbs the rounding of
        t - k at the support ends; the extra terms evaluate to exactly 0.
        Raises ValueError for a non-finite t, and for one whose spacing
        ulp(t) exceeds WINDOW_ULP_TOL, where t - k has lost the fractional
        part the kernel weights depend on.
        """
        if not math.ulp(t) <= WINDOW_ULP_TOL:  # NaN and inf included
            if not math.isfinite(t):
                raise ValueError(f"kernel window position t must be finite, got {t}")
            raise ValueError(
                f"w*log(x) = {t!r} is too large: its float spacing {math.ulp(t):.3g} "
                f"exceeds {WINDOW_ULP_TOL:g}, so its fractional part is lost"
            )
        # the end knots read directly: going through the log_support property
        # adds a call to every window on the operator's hot path
        knots = self.log_knots
        return range(math.ceil(t - knots[-1]) - 1, math.floor(t - knots[0]) + 2)


@lru_cache(maxsize=MAX_ORDER)
def _piece_table(n: int) -> tuple[tuple[float, ...], ...]:
    """Coefficients of B_n on its pieces 0..n//2, highest power first.

    On piece i, where t + n/2 = i + s with 0 <= s < 1, the truncated-power
    form gives the integer polynomial
    (n-1)! B_n = sum_{j<=i} (-1)^j C(n, j) (s + i - j)^(n-1).
    It is expanded in s in Python ints and divided once by (n-1)!, so each
    float coefficient is the correctly rounded exact rational.  Pieces past
    the centre are not needed: the evaluator folds t to n/2 - |t|.
    """
    scale = math.factorial(n - 1)
    table = []
    for i in range(n // 2 + 1):
        coeffs = [0] * n  # coeffs[m] multiplies s^m
        for j in range(i + 1):
            term = (-1) ** j * math.comb(n, j)
            for m in range(n):
                coeffs[m] += term * math.comb(n - 1, m) * (i - j) ** (n - 1 - m)
        table.append(tuple(c / scale for c in reversed(coeffs)))
    return tuple(table)


def _bspline_evaluator(n: int) -> Callable[[float], float]:
    """The centered cardinal B-spline of order n as a function of t.

    Order 1 is the left-closed indicator of [-1/2, 1/2).  From order 2 on
    t is folded to u = n/2 - t, or n/2 + t for t < 0 (B_n is even, negation
    is exact, so the result is even bit for bit), and the piece i = floor(u)
    of ``_piece_table`` is read by Horner's rule from its leading
    coefficient, which is what a start from 0.0 gives exactly.

    Horner on these coefficients needs no guard against cancellation: each
    coefficient is its exact rational rounded once, s = u - i is exact, and
    with 0 <= s < 1 no power of s grows while the absolute coefficients of a
    piece sum to at most 2.5, so the rounding of u and Horner's own n - 1
    steps are the only errors.  Against exact rational values, 200,000
    random t per order gave at most 1.6e-16 absolute over orders 2..10; the
    triangular convolution recursion this replaced reached 2.6e-16 and cost
    O(n^2) per value instead of O(n).  The outer piece is the pure monomial
    s^(n-1)/(n-1)!, so values in the tails keep full relative precision, and
    a t strictly inside the support never evaluates to 0.
    """
    if n == 1:
        return lambda t: 1.0 if -0.5 <= t < 0.5 else 0.0
    half = 0.5 * n
    pieces = [(c[0], c[1:]) for c in _piece_table(n)]

    def bspline(t: float) -> float:
        if not -half < t < half:  # NaN included
            return 0.0
        u = half - t if t >= 0.0 else half + t
        i = int(u)
        s = u - i
        value, rest = pieces[i]
        for c in rest:
            value = value * s + c
        return value

    return bspline


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


def _spline_sum(n: int, terms: tuple[tuple[Fraction, Fraction], ...], label: str) -> Kernel:
    """Kernel sum_i c_i B_n(t + a_i) for the exact terms ((c_i, a_i), ...)."""
    if not 1 <= n <= MAX_ORDER:
        raise KernelSpecError(f"B-spline order must be in 1..{MAX_ORDER}, got {n}")
    # The evaluator runs on the operator's hot path, so it is written out for
    # the two shapes the spec strings build: the bare spline and two terms.
    bspline = _bspline_evaluator(n)
    if len(terms) == 1:
        eval_log = bspline
    else:
        (c1, la), (c2, lb) = ((float(c), float(a)) for c, a in terms)

        def eval_log(t: float) -> float:
            return c1 * bspline(t + la) + c2 * bspline(t + lb)

    return Kernel(eval_log=eval_log, label=label, order=n, terms=terms)


def _combo_coefficients(log_alpha: Fraction, log_beta: Fraction) -> tuple[Fraction, Fraction]:
    """Coefficients of c1*B_n(alpha*u) + c2*B_n(beta*u) that keep the zeroth
    moment 1 and kill the first: c1 = log(beta)/(log(beta) - log(alpha)),
    c2 = -log(alpha)/(log(beta) - log(alpha)).

    The logs are exact rationals (every float is one), so c1 + c2 = 1 and
    c1*log(alpha) + c2*log(beta) = 0 hold exactly.
    """
    if log_alpha == log_beta:
        raise KernelSpecError("translate factors must differ (alpha != beta)")
    gap = log_beta - log_alpha
    return log_beta / gap, -log_alpha / gap


def _scale_repr(log_scale: Fraction) -> str:
    # exact e^q specs keep the rational; float-born logs print as scales
    if log_scale.denominator <= 1000:
        return f"e^{log_scale}"
    return f"{math.exp(float(log_scale)):.12g}"


def _parse_log_scale(token: str) -> Fraction:
    """Log of a translate factor given as ``e^<rational>`` (kept exact) or
    as a decimal literal (the float log, itself an exact rational).  The
    log must be a finite float, at most MAX_TRANSLATE_LOG in size: the
    kernel shifts its argument by it."""
    if token.startswith("e^"):
        try:
            log_scale = Fraction(token[2:])
        except (ValueError, ZeroDivisionError) as exc:
            raise KernelSpecError(f"bad exponent in scale factor {token!r}: {exc}") from None
        if abs(log_scale) > sys.float_info.max:  # exact: Fraction against float
            raise KernelSpecError(f"scale factor {token!r} has a log beyond the float range")
        if abs(log_scale) > MAX_TRANSLATE_LOG:
            raise KernelSpecError(
                f"scale factor {token!r} has |log| = {float(abs(log_scale)):g}, more than "
                f"the {MAX_TRANSLATE_LOG} allowed: the support, and every sum over it, "
                f"grows with it"
            )
        return log_scale
    try:
        value = float(token)
    except ValueError:
        raise KernelSpecError(f"bad scale factor {token!r}: not a decimal or e^<rational>") from None
    if not 0.0 < value < math.inf:  # NaN included
        raise KernelSpecError(f"scale factor must be positive and finite, got {token!r}")
    return Fraction(math.log(value))


_SPEC_FIELDS = {"bspline": ("order",), "combo": ("order", "alpha", "beta")}


def parse_kernel_spec(text: str) -> Kernel:
    """Build a kernel from a specifier string.

    Accepted forms:

    * ``bspline:<n>`` with 1 <= n <= 10
    * ``combo:<n>:<alpha>:<beta>`` where alpha/beta are decimal literals or
      ``e^<rational>`` (the exponent is stored exactly, not as a float),
      positive, with |log alpha|, |log beta| <= MAX_TRANSLATE_LOG, and far
      enough apart that |c1| + |c2| <= MAX_COMBO_COEFFICIENT_SUM
    """
    family, *fields = text.split(":")
    if family not in _SPEC_FIELDS:
        raise KernelSpecError(f"unknown kernel family {family!r} in {text!r} (want bspline|combo)")
    names = _SPEC_FIELDS[family]
    if len(fields) != len(names):
        raise KernelSpecError(f"want {family}:<{'>:<'.join(names)}>, got {text!r}")
    try:
        order = int(fields[0])
    except ValueError:
        raise KernelSpecError(f"bad B-spline order {fields[0]!r} in {text!r}") from None
    if family == "bspline":
        return _spline_sum(order, ((Fraction(1), Fraction(0)),), f"bspline:{order}")
    la, lb = (_parse_log_scale(token) for token in fields[1:])
    c1, c2 = _combo_coefficients(la, lb)
    size = abs(c1) + abs(c2)
    if size > MAX_COMBO_COEFFICIENT_SUM:
        raise KernelSpecError(
            f"translate factors {fields[1]} and {fields[2]} are too close in {text!r}: "
            f"|c1| + |c2| = {float(size):.4g} exceeds {MAX_COMBO_COEFFICIENT_SUM}, "
            f"and the two terms cancel"
        )
    label = f"combo:{order}:{_scale_repr(la)}:{_scale_repr(lb)}"
    return _spline_sum(order, ((c1, la), (c2, lb)), label)
