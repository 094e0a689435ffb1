"""Discrete moments of sampling kernels.

The algebraic moment of order nu at u is

    m_nu(chi, u) = sum_k chi(e^-k * u) * (k - log u)^nu

and the absolute moment replaces both factors by absolute values.  Both
are 1-periodic functions of log(u).  The same quantity can be evaluated on
the frequency side, from the kernel's transform derivatives,

    m_nu(chi, u) = i^nu * sum_m phi^(nu)(2*pi*m) * u^(-2*pi*i*m),

where phi(t) is the transform at the imaginary point it; the two routes
check each other.  Whether m_nu varies with u is not measured but read from
the kernel's order (``MomentReport``).  The Kantorovich bracket
of order i, (i+1) sum_k chi(e^-k u) integral_k^{k+1} (s - log u)^i ds, is
sum_{j=1}^{i+1} C(i+1, j) m_{i-j+1}(chi, u).

The sums are asked at log u (the ``*_at_log`` functions), so u = x^w
cannot overflow; ``algebraic_moment`` and ``poisson_moment`` take u itself,
for locations given from outside.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .kernels import Kernel

__all__ = [
    "MomentReport",
    "algebraic_moment",
    "algebraic_moment_at_log",
    "absolute_moment_at_log",
    "absolute_moment_sup",
    "poisson_moment",
    "kantorovich_bracket_at_log",
    "build_moment_report",
]

MAX_MOMENT_ORDER = 8

_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)


def _check_order(nu: int) -> None:
    if not 0 <= nu <= MAX_MOMENT_ORDER:
        raise ValueError(f"moment order must be in 0..{MAX_MOMENT_ORDER}, got {nu}")


def _log_location(u: float) -> float:
    """log(u) for a moment location 0 < u < inf."""
    if not 0.0 < u < math.inf:
        raise ValueError(f"moment location u must be positive and finite, got {u}")
    return math.log(u)


def algebraic_moment_at_log(kernel: Kernel, nu: int, log_u: float) -> float:
    """m_nu(chi, u) with u given as log(u); avoids overflow for u = x^w."""
    _check_order(nu)
    return math.fsum(
        kernel.eval_log(log_u - k) * (k - log_u) ** nu for k in kernel.window(log_u)
    )


def algebraic_moment(kernel: Kernel, nu: int, u: float) -> float:
    """Algebraic moment m_nu(chi, u) = sum_k chi(e^-k u)(k - log u)^nu."""
    return algebraic_moment_at_log(kernel, nu, _log_location(u))


def absolute_moment_at_log(kernel: Kernel, nu: int, log_u: float) -> float:
    """Absolute moment M_nu(chi, u) with u given as log(u); dominates
    |m_nu(chi, u)| pointwise."""
    _check_order(nu)
    eval_log = kernel.eval_log
    return math.fsum([abs(eval_log(log_u - k)) * abs(k - log_u) ** nu for k in kernel.window(log_u)])


def absolute_moment_sup(kernel: Kernel, nu: int) -> float:
    """M_nu(chi) = sup_u M_nu(chi, u), computed from the kernel's pieces.

    On each piece of one period s in [0, 1) the map s -> M_nu(chi, e^s) is
    a polynomial of degree ``order`` - 1 + nu (see ``_pieces``).  It is
    interpolated at Chebyshev points, and the sup is the largest of the
    values at the piece ends and at the real roots of its derivative.  Where
    the kernel jumps at a knot, the map jumps too and its sup can be a limit
    from inside a piece that no u attains; so the interpolant's value at a
    piece end counts as well, where it differs from the value there by more
    than round-off (1e-12 relative).
    """
    _check_order(nu)
    pieces = _pieces(kernel)
    degree = kernel.order - 1 + nu
    at_breaks = [absolute_moment_at_log(kernel, nu, a) for a, _ in pieces]
    at_breaks.append(at_breaks[0])  # s = 1 is s = 0 one period on
    best = max(at_breaks)
    for (a, b), at_a, at_b in zip(pieces, at_breaks, at_breaks[1:]):
        coeffs = _cheb_fit(lambda s: absolute_moment_at_log(kernel, nu, s), a, b, degree)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        for x in _cheb_roots(_cheb_derivative(coeffs)):
            best = max(best, absolute_moment_at_log(kernel, nu, mid + half * x))
        left = math.fsum(c if k % 2 == 0 else -c for k, c in enumerate(coeffs))
        for limit, value in ((left, at_a), (math.fsum(coeffs), at_b)):
            if abs(limit - value) > 1e-12 * value:
                best = max(best, limit)
    return best


@lru_cache(maxsize=16)
def _absolute_moment_sup_cached(kernel: Kernel, nu: int) -> float:
    # Kernel hashes by identity; safe because kernels are immutable.  The
    # bound keeps a process that builds many kernels from holding them all.
    return absolute_moment_sup(kernel, nu)


# Breakpoints closer than this are merged into one.  Where t - k lies
# relative to a knot is known only to a few ulp, so a shorter piece could
# not be sampled on the right side of its ends.  Chebyshev points keep 0.19%
# of a piece's length from its ends, which clears a merged-away breakpoint
# on every piece longer than 5e-9.
_MERGE = 1e-11


def _breaks(points) -> list[float]:
    """0, the points strictly inside (0, 1) merged within _MERGE, and 1."""
    out = [0.0]
    for p in sorted(points):
        if _MERGE < p < 1.0 - _MERGE and p - out[-1] > _MERGE:
            out.append(p)
    out.append(1.0)
    return out


@lru_cache(maxsize=16)
def _pieces(kernel: Kernel) -> tuple[tuple[float, float], ...]:
    """Intervals of one period s in [0, 1) on which s -> M_nu(chi, e^s) is a
    polynomial.

    The breakpoints are the fractional parts of the knots and of the zeros
    where chi changes sign, searched for only where some c_i is negative:
    with every c_i > 0, chi = sum_i c_i B_n(t + a_i) is >= 0 in floats too,
    since each B_n value is.  Every term |chi(s - k)| |k - s|^nu is then a
    polynomial of degree n - 1 + nu on each piece, since k - s changes sign
    only at integers and |chi| has a kink only where chi changes sign.

    They depend on the kernel alone, not on nu, so they are cached per
    kernel object, as ``_absolute_moment_sup_cached`` is.
    """
    signed = any(c < 0 for c, _ in kernel.terms)
    points = [*kernel.log_knots, *(_sign_changes(kernel) if signed else ())]
    return tuple(itertools.pairwise(_breaks(p - math.floor(p) for p in points)))


def _sign_changes(kernel: Kernel) -> list[float]:
    """Points t inside the knot pieces where chi changes sign.

    The roots of each piece's interpolant are candidates only: next to a
    multiple zero at a piece end, such as a B-spline's (t - a)^(n-1), the
    interpolant's round-off scatters spurious roots.  A candidate is kept
    where chi itself, evaluated between the candidates, changes sign.
    """
    zeros = []
    for lo, hi in itertools.pairwise(kernel.log_knots):
        if hi - lo <= _MERGE:
            continue
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        coeffs = _cheb_fit(kernel.eval_log, lo, hi, kernel.order - 1)
        roots = [mid + half * x for x in _cheb_roots(coeffs)]
        ends = [lo, *roots, hi]
        sign = 0.0
        for j in range(len(roots) + 1):
            value = kernel.eval_log(0.5 * (ends[j] + ends[j + 1]))
            if value < 0.0 < sign or sign < 0.0 < value:
                zeros.append(ends[j])
            if value != 0.0:
                sign = value
    return zeros


@lru_cache(maxsize=None)  # keyed by degree, which the order limits bound
def _cheb_points(degree: int) -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...]]:
    """Chebyshev points of the first kind x_j = cos(pi (j + 1/2) / (d + 1)),
    all inside (-1, 1), and the rows mapping values there to coefficients."""
    m = degree + 1
    angles = [math.pi * (j + 0.5) / m for j in range(m)]
    rows = tuple(
        tuple((1.0 if k else 0.5) * 2.0 / m * math.cos(k * t) for t in angles)
        for k in range(m)
    )
    return tuple(math.cos(t) for t in angles), rows


def _cheb_fit(fn, a: float, b: float, degree: int) -> list[float]:
    """Chebyshev coefficients, in x = (2s - a - b) / (b - a), of the
    degree-``degree`` polynomial interpolating fn at Chebyshev points of
    [a, b]; exact (to round-off) when fn is such a polynomial there."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    points, rows = _cheb_points(degree)
    values = [fn(mid + half * x) for x in points]
    return [math.fsum(map(mul, row, values)) for row in rows]


def _cheb_eval(c: list[float], x: float) -> float:
    """Clenshaw evaluation of sum_k c_k T_k(x)."""
    b1 = b2 = 0.0
    x2 = 2.0 * x
    for ck in c[:0:-1]:
        b1, b2 = x2 * b1 - b2 + ck, b1
    return x * b1 - b2 + c[0]


def _cheb_derivative(c: list[float]) -> list[float]:
    """Chebyshev coefficients of d/dx sum_k c_k T_k(x)."""
    n = len(c) - 1
    d = [0.0] * (n + 2)
    for k in range(n, 0, -1):
        d[k - 1] = d[k + 1] + 2.0 * k * c[k]
    d[0] *= 0.5
    return d[:n]


def _cheb_roots(c: list[float]) -> list[float]:
    """Real roots in (-1, 1) of the Chebyshev series c, ascending.

    Pure Python, so no LAPACK is loaded: the roots of the derivative split
    [-1, 1] into brackets on which c is monotone, and each bracket with a
    sign change holds one root, found by safeguarded Newton.  A root of
    even multiplicity shows as a zero at a bracket end or not at all; for
    the callers here it is neither a kink nor an extremum.
    """
    n = len(c)
    while n > 1 and c[n - 1] == 0.0:
        n -= 1
    c = c[:n]
    if n <= 1 or abs(c[0]) > math.fsum(map(abs, c[1:])):
        return []  # constant, or bounded away from zero on [-1, 1]
    dc = _cheb_derivative(c)
    ends = [-1.0, *_cheb_roots(dc), 1.0]
    roots = []
    fa = _cheb_eval(c, -1.0)
    for a, b in zip(ends, ends[1:]):
        fb = _cheb_eval(c, b)
        if fa == 0.0 and a > -1.0:
            roots.append(a)
        elif fa < 0.0 < fb or fb < 0.0 < fa:
            roots.append(_bracketed_root(c, dc, a, b, fa))
        fa = fb
    return roots


def _bracketed_root(c: list[float], dc: list[float], a: float, b: float, fa: float) -> float:
    """Root of c inside (a, b), where c has value fa at a and the other sign
    at b: Newton steps, replaced by bisection when they leave the bracket."""
    x = 0.5 * (a + b)
    for _ in range(100):
        fx = _cheb_eval(c, x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (fa < 0.0):
            a = x
        else:
            b = x
        slope = _cheb_eval(dc, x)
        nx = x - fx / slope if slope else a
        if not a < nx < b:
            nx = 0.5 * (a + b)
        if abs(nx - x) <= 4e-16 or b - a <= 4e-16:
            return nx
        x = nx
    return x


def poisson_moment(kernel: Kernel, nu: int, u: float, K_max: int) -> float:
    """Frequency-side evaluation of m_nu(chi, u).

    Sums i^nu * phi^(nu)(2*pi*m) * u^(-2*pi*i*m) over |m| <= K_max using the
    kernel's analytic transform derivatives.  Exact (up to round-off) when
    every omitted frequency has a vanishing derivative, e.g. order-n
    B-splines with nu < n need only K_max = 0.
    """
    _check_order(nu)
    t = _log_location(u)
    if K_max < 0:
        raise ValueError(f"K_max must be >= 0, got {K_max}")
    derivs = kernel.mellin_transform_derivs
    total = complex(derivs(nu, 0.0))
    for m in range(1, K_max + 1):
        freq = 2.0 * math.pi * m
        phase = cmath.exp(-1j * freq * t)
        total += complex(derivs(nu, freq)) * phase
        total += complex(derivs(nu, -freq)) / phase
    return (_I_POWERS[nu % 4] * total).real


def kantorovich_bracket_at_log(kernel: Kernel, i: int, log_u: float) -> float:
    """sum_k chi(e^-k u) ((k + 1 - log u)^(i+1) - (k - log u)^(i+1)) = sum_{j=1}^{i+1} C(i+1, j)
    m_{i-j+1}(chi, u), u given as log(u): the coefficient the cell-averaging produces on
    (theta^i f)(x) / ((i+1)! w^i) in the operator's expansion."""
    if not 0 <= i <= 6:
        raise ValueError(f"bracket order must be in 0..6, got {i}")
    return math.fsum(
        kernel.eval_log(log_u - k) * ((k + 1 - log_u) ** (i + 1) - (k - log_u) ** (i + 1))
        for k in kernel.window(log_u)
    )


@dataclass(frozen=True)
class MomentReport:
    """One row of a kernel moment table.

    ``u_independent`` is read from the kernel, not measured: m_nu(chi, u) is
    constant in u exactly when nu < n, the kernel's ``order``.
    Every kernel here is sum_i c_i B_n(. + a_i); with tau = log u + a_i,
    m_nu(chi, u) = sum_i c_i sum_{l <= nu} C(nu, l) a_i^(nu-l) m_l(B_n, tau),
    and B_n reproduces the polynomials of degree < n (Schoenberg; the
    Strang-Fix conditions), so m_l(B_n) is constant for l < n.  m_n varies,
    and an exact test finds every higher order up to 8 varying too.
    """

    order: int
    algebraic: float
    absolute_sup: float
    u_independent: bool
    at_u: float | None = None


def build_moment_report(kernel: Kernel, nu: int, at_u: float = 1.0) -> MomentReport:
    """m_nu at ``at_u``, the sup of M_nu, and whether m_nu is constant in u."""
    return MomentReport(
        order=nu,
        algebraic=algebraic_moment(kernel, nu, at_u),
        absolute_sup=absolute_moment_sup(kernel, nu),
        u_independent=nu < kernel.order,
        at_u=at_u,
    )
