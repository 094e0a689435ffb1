"""Empirical verification of the operator's approximation behaviour.

Three kinds of studies:

* pointwise Voronovskaya checks: w^q-scaled errors against the limit
  constant predicted by the kernel's moment brackets;
* convergence-order regression: least-squares slope of log(sup error)
  against log(w) over a geometric rate list;
* quantitative bound checks: both sides of the K-functional error
  estimates.  The left side subtracts ``expansion_prediction``, the one
  place the truncated error expansion is written; the (uncomputable)
  K-functional infimum on the right is bounded at g = f.

Studies are pure given their inputs.  The plain operator I_w is the p = 1
combination, so a study without a scheme runs the combination path with
``solve_coefficients(1)``.  Every operator value comes from the one sum in
``operators._apply_with_cache``, through ``combinations._rate_values``,
which each study, bound or table asks once for every rate it needs (so 2w
of one entry of a doubling list and w of the next are one rate).  The
module returns numbers; ``cli`` names and prints them in every format.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from .combinations import (
    CombinationScheme,
    _combined_values,
    _rate_values,
    solve_coefficients,
)
from .functions import TestFunction
from .kernels import Kernel
from .moments import (
    _absolute_moment_sup_cached,
    algebraic_moment_at_log,
    kantorovich_bracket_at_log,
)
# ``apply`` is not called here; bench/test_bench.py reads ``analysis.apply``
# to see that its tracer restores the package
from .operators import _check_point, _check_rate, apply  # noqa: F401

__all__ = [
    "ConvergenceStudy",
    "BoundReport",
    "MomentPreconditionError",
    "sup_norm",
    "voronovskaya_check",
    "estimate_order",
    "expansion_prediction",
    "vanishing_moment_bound",
    "combo_bound",
    "make_table",
]

ERROR_FLOOR_SCALE = 1e-13
_SUP_POINTS = 2001  # the even grid ``sup_norm`` refines
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi, the golden-section step


class MomentPreconditionError(Exception):
    """A bound requires vanishing lower moments and the kernel has none."""


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """n >= 2 evenly spaced points from lo to hi, both included: i*step + lo,
    with the last point hi exactly."""
    step = (hi - lo) / (n - 1)
    return [i * step + lo for i in range(n - 1)] + [hi]


def sup_norm(g: Callable[[float], float], interval: tuple[float, float]) -> float:
    """sup |g| over [lo, hi], sampled: the largest |g| on an even grid of
    2,001 points, ends included, and at every point of a 60-step
    golden-section search for the largest |g| between the grid neighbours of
    the largest grid value.  ValueError for an end that is not finite, or
    lo > hi."""
    lo, hi = interval
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise ValueError(f"sup_norm needs a finite interval with lo <= hi, got [{lo}, {hi}]")
    grid = _linspace(lo, hi, _SUP_POINTS)
    vals = list(map(abs, map(g, grid)))
    i = max(range(_SUP_POINTS), key=vals.__getitem__)
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, _SUP_POINTS - 1)]
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    gc, gd = abs(g(c)), abs(g(d))
    best = max(vals[i], gc, gd)
    for _ in range(60):
        if gc >= gd:  # a largest value lies in [a, d]
            b, d, gd = d, c, gc
            c = b - _GOLDEN * (b - a)
            gc = abs(g(c))
        else:
            a, c, gc = c, d, gd
            d = a + _GOLDEN * (b - a)
            gd = abs(g(d))
        best = max(best, gc, gd)
    return float(best)


@dataclass(frozen=True)
class ConvergenceStudy:
    """Errors along a rate list, with an order fit or a predicted limit.

    ``errors`` are absolute errors per rate.  For Voronovskaya studies
    ``scaled_errors`` holds the signed w^q-scaled errors, ``predicted_limit``
    the moment-bracket constant, and ``deviations`` the per-rate distance
    from it.  An infinite ``fitted_order`` marks the path taken when the
    operator reproduces the function to round-off.
    """

    w_list: tuple[float, ...]
    errors: tuple[float, ...]
    fitted_order: float | None = None
    fitted_constant: float | None = None
    scaled_errors: tuple[float, ...] | None = None
    predicted_limit: float | None = None
    deviations: tuple[float, ...] | None = None


def _check_w_list(w_list: Sequence[float], minimum: int) -> tuple[float, ...]:
    ws = tuple(float(w) for w in w_list)
    if len(ws) < minimum:
        raise ValueError(f"need at least {minimum} rates, got {len(ws)}")
    for w in ws:
        _check_rate(w)
    for a, b in zip(ws, ws[1:]):
        if b <= a:
            raise ValueError(f"rate list must be strictly increasing, got {b} after {a}")
    return ws


def _rate_power(w: float, q: int) -> float:
    """w ** q; ValueError naming w and q where it is beyond the float range."""
    try:
        return w ** q
    except OverflowError:
        raise ValueError(f"w={w:g} to the power {q} is beyond the float range") from None


def _theta_at(f: TestFunction, j: int, x: float) -> float:
    """(theta^j f)(x); ValueError naming f, j and x where it is a domain error,
    such as sin of an overflowed argument, or not a finite float."""
    theta = f.theta(j)  # a missing derivative keeps its own message
    try:
        value = theta(x)
    except OverflowError:
        value = math.inf
    except ValueError as exc:
        raise ValueError(f"theta^{j} {f.label} cannot be evaluated at x={x:g} ({exc})") from None
    if not math.isfinite(value):
        raise ValueError(f"theta^{j} {f.label} at x={x:g} is {value}, beyond the float range")
    return value


def voronovskaya_check(
    f: TestFunction,
    kernel: Kernel,
    x: float,
    w_list: Sequence[float],
    scheme: CombinationScheme | None = None,
    quad_nodes: int = 7,
) -> ConvergenceStudy:
    """w^q-scaled pointwise errors against the predicted limit constant.

    For an order-p scheme (p = 1 without one), q = p and the limit is
    (theta^p f)(x) * Mbar_p / (p+1)! built from the combined moment
    bracket; at p = 1 that is (theta f)(x)/2 * (m_0 + 2 m_1)(chi, x).
    The values at every rate come from one rate table.
    """
    _check_point(x)
    ws = _check_w_list(w_list, minimum=4)
    scheme = scheme or solve_coefficients(1)
    q = scheme.p
    theta_q = _theta_at(f, q, x)  # first: named before the bracket's order limit and the cells
    bracket = float(scheme.power_sum(q)) * kantorovich_bracket_at_log(kernel, q, math.log(x))
    predicted = theta_q * bracket / math.factorial(q + 1)
    powers = [_rate_power(w, q) for w in ws]  # before the cells
    values = [row[0] for row in _combined_values(f, kernel, scheme, ws, [x], quad_nodes)]
    fx = f.f(x)
    scaled = tuple(wq * (v - fx) for wq, v in zip(powers, values))
    return ConvergenceStudy(
        w_list=ws,
        errors=tuple(abs(v - fx) for v in values),
        scaled_errors=scaled,
        predicted_limit=predicted,
        deviations=tuple(abs(s - predicted) for s in scaled),
    )


def estimate_order(
    f: TestFunction,
    kernel: Kernel,
    scheme: CombinationScheme | None,
    w_list: Sequence[float],
    probe_grid: Sequence[float],
    quad_nodes: int = 7,
) -> ConvergenceStudy:
    """Fitted convergence order from sup errors over a geometric rate list.

    Without a scheme the plain operator, the p = 1 combination, is fitted.
    The fit uses only the top half of the rates (the small-w entries are
    pre-asymptotic).  When the sup error sits at the round-off floor the
    function is reproduced exactly and an infinite order is reported
    instead of a meaningless fit.  Every entry's rates come from one rate
    table, and f is evaluated once per grid point.
    """
    ws = _check_w_list(w_list, minimum=5)
    scheme = scheme or solve_coefficients(1)
    combined = _combined_values(f, kernel, scheme, ws, probe_grid, quad_nodes)
    exact = [f.f(x) for x in probe_grid]
    errors = tuple(max(abs(v - fx) for v, fx in zip(row, exact)) for row in combined)
    floor = ERROR_FLOOR_SCALE * (1.0 + max(map(abs, exact)))
    if min(errors) < floor:
        order, constant = math.inf, 0.0
    else:
        half = (len(ws) + 1) // 2
        log_w = [math.log(w) for w in ws[-half:]]
        log_e = [math.log(e) for e in errors[-half:]]
        # least squares as Python 3.11's statistics.linear_regression sums
        # it, with math.fsum, so the fit is the same on every Python version
        xbar, ybar = math.fsum(log_w) / half, math.fsum(log_e) / half
        sxy = math.fsum((lw - xbar) * (le - ybar) for lw, le in zip(log_w, log_e))
        sxx = math.fsum((d := lw - xbar) * d for lw in log_w)
        if sxx == 0.0:
            raise ValueError(f"rates {ws[-half:]} share one float log; no order can be fitted")
        slope = sxy / sxx
        order, constant = -slope, math.exp(ybar - slope * xbar)
    return ConvergenceStudy(w_list=ws, errors=errors, fitted_order=order, fitted_constant=constant)


def expansion_prediction(
    f: TestFunction,
    kernel: Kernel,
    scheme: CombinationScheme,
    w: float,
    x: float,
    r: int,
) -> float:
    """Truncated expansion of the combined operator's error at x:

    sum_i c_i sum_{j=1}^{r} (theta^j f)(x) / ((j+1)! (iw)^j) * bracket_j(chi, x^{iw}),

    where bracket_j is the order-j averaged-moment bracket evaluated at
    u = x^{iw} (in log scale, so large w cannot overflow).  The true error
    minus this prediction decays like o(w^-r).  The plain operator is
    ``solve_coefficients(1)``; both bounds subtract this sum from the
    measured error.
    """
    if r < 1:
        raise ValueError(f"expansion order r={r} must be >= 1")
    _check_rate(w)
    _check_point(x)
    t = math.log(x)
    return math.fsum(
        float(c) * _theta_at(f, j, x)
        / (math.factorial(j + 1) * _rate_power(i * w, j))
        * kantorovich_bracket_at_log(kernel, j, i * w * t)
        for i, c in enumerate(scheme.coeffs, start=1)
        for j in range(1, r + 1)
    )


# ---------------------------------------------------------------------------
# Quantitative bound checks


@dataclass(frozen=True)
class BoundReport:
    """Measured left side and computed right side of an error estimate.

    ``satisfied`` is None when the estimate degenerates (order-raising
    schemes zero out the right side) and the check is not applicable.
    ``surrogate_desc`` records how the K-functional was upper-bounded.
    The report does not name its bound; ``cli`` does.
    """

    lhs: float
    rhs: float
    satisfied: bool | None
    surrogate_desc: str
    details: dict[str, float] = field(default_factory=dict)


def _remainder(
    f: TestFunction, kernel: Kernel, scheme: CombinationScheme, w: float, x: float, r: int,
    quad_nodes: int,
) -> float:
    """|(I_{w,p} f)(x) - f(x) - expansion_prediction(f, kernel, scheme, w, x, r)|,
    the left side of both bounds, with the operator from one rate table."""
    ((value,),) = _combined_values(f, kernel, scheme, [w], [x], quad_nodes)
    return abs(value - f.f(x) - expansion_prediction(f, kernel, scheme, w, x, r))


def _widened_interval(f: TestFunction, kernel: Kernel, w: float, x: float) -> tuple[float, float]:
    """[min(lo, x), max(hi, x)] for f's eval_interval [lo, hi], widened by the
    factor e^margin on each side, margin = (radius + 1)/w, where radius is
    the larger end of the kernel's log-support in absolute value: every cell
    the operator touches at x or in eval_interval lies inside.

    A margin above 1, i.e. w < radius + 1, is refused: the norms would be
    taken far outside f's interval (over about [6e-44, 1e44] for bspline:2
    at w = 0.02), which makes the right side vacuous.
    """
    smallest = max(map(abs, kernel.log_support)) + 1.0
    if w < smallest:
        raise ValueError(
            f"rate w={w} is too small for a bound with kernel {kernel.label!r}: its norms "
            f"would be taken with margin (radius + 1)/w = {smallest / w:.6g} > 1 on each side "
            f"of log x; the smallest admissible w is {smallest}"
        )
    margin = smallest / w
    lo, hi = f.eval_interval
    return min(lo, x) * math.exp(-margin), max(hi, x) * math.exp(margin)


def _k_upper(
    f: TestFunction, kernel: Kernel, r: int, eps: float, w: float, x: float
) -> tuple[float, str]:
    """K(f, eps) <= eps*||theta^(r+1) f|| on ``_widened_interval``: the
    infimum over smooth g of ||theta^r(f-g)|| + eps*||theta^(r+1) g||,
    bounded at g = f, keeps the estimates testable without solving the
    infimum.  For the log family and constants (``f.log_monomial``),
    theta^(r+1) f = a (log x)^q is monotone in absolute value on each side of
    x = 1, so its sup is exact, the larger end value; else ``sup_norm``."""
    lo, hi = _widened_interval(f, kernel, w, x)
    exact = f.log_monomial  # theta^j c (log x)^p = 0 for j > p, also where f stops at theta^3
    theta = (lambda _: 0.0) if exact is not None and r + 1 > exact[1] else f.theta(r + 1)
    try:
        if hi == math.inf:
            value = math.inf
        elif exact is not None:
            value = eps * max(abs(theta(lo)), abs(theta(hi)))
        else:
            value = eps * sup_norm(theta, (lo, hi))
    except (OverflowError, ValueError):  # theta overflows, or takes sin or cos of an overflow
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"the K-functional upper bound overflows on [{lo:.6g}, {hi:.6g}], "
                         f"f's interval widened to cover x={x:g}")
    desc = (
        f"K-functional upper bound min_g(||theta^{r}(f-g)|| + eps*||theta^{r + 1}g||), "
        f"bounded at g={f.label}, "
        f"norms on [{lo:.6g}, {hi:.6g}]"
    )
    return value, desc


def vanishing_moment_bound(
    f: TestFunction,
    kernel: Kernel,
    w: float,
    x: float,
    r: int,
    quad_nodes: int = 7,
) -> BoundReport:
    """Order-r remainder estimate for kernels with m_1 = ... = m_{r-1} = 0.

    lhs: |(I_w f)(x) - f(x) - expansion_prediction at p = 1 and order r|,
         which for m_0 = 1 and m_1 = ... = m_{r-1} = 0 is
         |(I_w f)(x) - f(x) - sum_{i<=r} (theta^i f)(x)/((i+1)! w^i)
          - (theta^r f)(x) m_r(chi, x^w) / (r! w^r)|
    rhs: 2A/(w^r (r+1)!) * K(f, B/(2A(r+1)w)),
         A = 1 + (r+1) M_r,  B = 1 + (r+2) M_{r+1}.

    Raises MomentPreconditionError when a lower moment m_j is nonzero (a
    failed hypothesis, not a failed bound).  For j < n, the kernel's order,
    m_j is the constant sum_i c_i (a_i^j + [j = 2] n/12), read exactly from
    ``kernel.terms``; for j >= n it varies and is summed at u = x^w.
    """
    if not 1 <= r <= 3:
        raise ValueError(f"bound order r={r} not in 1..3")
    _check_rate(w)
    _check_point(x)
    wt = w * math.log(x)
    for j in range(1, r):
        if j < kernel.order:  # constant in u
            mj = float(sum(c * (a**j + Fraction(kernel.order, 12) * (j == 2)) for c, a in kernel.terms))
        else:
            mj = algebraic_moment_at_log(kernel, j, wt)
        if abs(mj) > 1e-10:
            raise MomentPreconditionError(
                f"kernel {kernel.label!r}: m_{j}(chi, u) = {mj:.3e} != 0 at u = x^w "
                f"(log u = {wt:.6g}); the order-{r} bound does not apply"
            )
    m_r = algebraic_moment_at_log(kernel, r, wt)
    lhs = _remainder(f, kernel, solve_coefficients(1), w, x, r, quad_nodes)
    Mr = _absolute_moment_sup_cached(kernel, r)
    Mr1 = _absolute_moment_sup_cached(kernel, r + 1)
    A = 1.0 + (r + 1) * Mr
    B = 1.0 + (r + 2) * Mr1
    eps = B / (2.0 * A * (r + 1) * w)
    k_value, desc = _k_upper(f, kernel, r, eps, w, x)
    rhs = 2.0 * A / (_rate_power(w, r) * math.factorial(r + 1)) * k_value
    return BoundReport(
        lhs=lhs,
        rhs=rhs,
        satisfied=lhs <= rhs + 1e-12,
        surrogate_desc=desc,
        details={"A": A, "B": B, "eps": eps, "K_upper": k_value, "m_r_at_xw": m_r},
    )


def combo_bound(
    f: TestFunction,
    kernel: Kernel,
    scheme: CombinationScheme,
    w: float,
    x: float,
    quad_nodes: int = 7,
) -> BoundReport:
    """First-order estimate for the combined operator.

    lhs: |(I_{w,p} f)(x) - f(x) - expansion_prediction(f, kernel, scheme, w, x, 1)|
         = |(I_{w,p} f)(x) - f(x)
            - (theta f)(x)/(2w) * sum_i (c_i/i)(m_0 + 2 m_1)(chi, x^{iw})|
    rhs: (1 + 2 M_1)/w * (sum_i c_i/i) * K(theta f, A/(6wB)),
         A = sum_i c_i/i^2 * (1 + 3 M_1 + 3 M_2),
         B = sum_i c_i/i * (1 + 2 M_1).

    For order-raising schemes (p >= 2) sum_i c_i/i vanishes, the right side
    degenerates to 0, and the report is emitted with ``satisfied=None``
    (not applicable).  For p = 1 this is the plain first-order estimate,
    which ``expsamp bounds --check first`` reports as ``first_order``.
    """
    _check_rate(w)
    _check_point(x)
    lhs = _remainder(f, kernel, scheme, w, x, 1, quad_nodes)
    M1 = _absolute_moment_sup_cached(kernel, 1)
    M2 = _absolute_moment_sup_cached(kernel, 2)
    s1 = float(scheme.power_sum(1))
    s2 = float(scheme.power_sum(2))
    A = s2 * (1.0 + 3.0 * M1 + 3.0 * M2)
    B = s1 * (1.0 + 2.0 * M1)
    details = {"M1": M1, "M2": M2, "A": A, "B": B, "coeff_sum_1": s1, "coeff_sum_2": s2}
    if s1 <= 0.0:
        return BoundReport(
            lhs=lhs,
            rhs=0.0,
            satisfied=None,
            surrogate_desc=(
                "not applicable: sum_i c_i/i <= 0 makes the stated right side degenerate"
            ),
            details=details,
        )
    eps = A / (6.0 * w * B)
    k_value, desc = _k_upper(f, kernel, 1, eps, w, x)
    rhs = (1.0 + 2.0 * M1) / w * s1 * k_value
    details.update({"eps": eps, "K_upper": k_value})
    return BoundReport(
        lhs=lhs,
        rhs=rhs,
        satisfied=lhs <= rhs + 1e-12,
        surrogate_desc=desc,
        details=details,
    )


# ---------------------------------------------------------------------------
# Error tables


def make_table(
    f: TestFunction,
    kernel: Kernel,
    scheme: CombinationScheme,
    w: float,
    xs: Sequence[float],
    quad_nodes: int = 7,
) -> list[tuple[float, ...]]:
    """The numbers of an error table: one row per point of xs, holding
    |f - I_{iw} f| for i = 1..p, then |f - combined operator|."""
    rates = scheme.rates(w)
    values = _rate_values(f, kernel, rates, xs, quad_nodes)
    rows = []
    for x, singles in zip(xs, zip(*(values[r] for r in rates))):
        fx = f.f(x)
        combo = scheme.combine(singles)
        rows.append(tuple(abs(v - fx) for v in singles) + (abs(combo - fx),))
    return rows
