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
``operators._apply_with_cache``: through ``combinations._rate_values``,
which evaluates I_{iw} for i = 1..p with one cell-mean cache per rate, or
through ``apply`` for the vanishing-moment bound.
"""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, TextIO

from .combinations import (
    CombinationScheme,
    _rate_values,
    apply_combo,
    combo_moment_bracket,
    solve_coefficients,
)
from .functions import TestFunction
from .kernels import Kernel
from .moments import (
    _absolute_moment_sup_cached,
    algebraic_moment_at_log,
    kantorovich_bracket_at_log,
)
from .operators import OperatorConfig, _check_point, _check_rate, apply

__all__ = [
    "ConvergenceStudy",
    "BoundReport",
    "ErrorTable",
    "MomentPreconditionError",
    "sup_norm",
    "voronovskaya_check",
    "estimate_order",
    "expansion_prediction",
    "first_order_bound",
    "vanishing_moment_bound",
    "combo_bound",
    "make_table",
    "table_deviations",
]

ERROR_FLOOR_SCALE = 1e-13


class MomentPreconditionError(Exception):
    """A bound requires vanishing lower moments and the kernel has none."""


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """n evenly spaced points from lo to hi, both included: i*step + lo,
    with the last point hi exactly."""
    if n < 0:
        raise ValueError(f"number of grid points must be non-negative, got {n}")
    if n < 2:
        return [lo] * n
    step = (hi - lo) / (n - 1)
    return [i * step + lo for i in range(n - 1)] + [hi]


def sup_norm(
    g: Callable[[float], float],
    interval: tuple[float, float],
    points: int = 2001,
) -> float:
    """sup |g| over the interval: dense grid plus one local refinement pass."""
    lo, hi = interval
    grid = _linspace(lo, hi, points)
    vals = [abs(g(x)) for x in grid]
    i = max(range(points), key=vals.__getitem__)
    best = vals[i]
    sub = _linspace(grid[max(i - 1, 0)], grid[min(i + 1, points - 1)], 81)
    for x in sub:
        v = abs(g(x))
        if v > best:
            best = v
    return float(best)


@dataclass(frozen=True)
class ConvergenceStudy:
    """Errors along a rate list, with an order fit or a predicted limit.

    ``errors`` are absolute errors per rate.  For Voronovskaya studies
    ``scaled_errors`` holds the signed w^q-scaled errors, ``predicted_limit``
    the moment-bracket constant, and ``deviations`` the per-rate distance
    from it.  ``exact_reproduction`` marks the infinite-order path taken
    when the operator reproduces the function to round-off.
    """

    w_list: tuple[float, ...]
    errors: tuple[float, ...]
    fitted_order: Optional[float] = None
    fitted_constant: Optional[float] = None
    scaled_errors: Optional[tuple[float, ...]] = None
    predicted_limit: Optional[float] = None
    deviations: Optional[tuple[float, ...]] = None
    exact_reproduction: bool = False

    @property
    def deviation_at_largest_w(self) -> Optional[float]:
        return self.deviations[-1] if self.deviations else None


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


def voronovskaya_check(
    f: TestFunction,
    kernel: Kernel,
    x: float,
    w_list: Sequence[float],
    scheme: Optional[CombinationScheme] = None,
    quad_nodes: int = 7,
) -> ConvergenceStudy:
    """w^q-scaled pointwise errors against the predicted limit constant.

    For an order-p scheme (p = 1 without one), q = p and the limit is
    (theta^p f)(x) * Mbar_p / (p+1)! built from the combined moment
    bracket; at p = 1 that is (theta f)(x)/2 * (m_0 + 2 m_1)(chi, x).
    """
    _check_point(x)
    ws = _check_w_list(w_list, minimum=4)
    scheme = scheme or solve_coefficients(1)
    q = scheme.p
    if f.max_theta < q:
        raise ValueError(f"{f.label}: needs Mellin derivative of order {q}")
    bracket = combo_moment_bracket(kernel, scheme, q, x)
    predicted = f.theta(q)(x) * bracket / math.factorial(q + 1)
    values = [apply_combo(f, kernel, scheme, w, x, quad_nodes) for w in ws]
    fx = f.f(x)
    scaled = tuple(w ** q * (v - fx) for w, v in zip(ws, values))
    return ConvergenceStudy(
        w_list=ws,
        errors=tuple(abs(v - fx) for v in values),
        scaled_errors=scaled,
        predicted_limit=predicted,
        deviations=tuple(abs(s - predicted) for s in scaled),
    )


def _sup_error(
    f: TestFunction,
    kernel: Kernel,
    scheme: CombinationScheme,
    w: float,
    probe_grid: Sequence[float],
    quad_nodes: int,
) -> float:
    worst = 0.0
    rows = _rate_values(f, kernel, w, scheme.p, probe_grid, quad_nodes)
    for x, values in zip(probe_grid, rows):
        err = abs(scheme.combine(values) - f.f(x))
        if err > worst:
            worst = err
    return worst


def estimate_order(
    f: TestFunction,
    kernel: Kernel,
    scheme: Optional[CombinationScheme],
    w_list: Sequence[float],
    probe_grid: Sequence[float],
    quad_nodes: int = 7,
) -> ConvergenceStudy:
    """Fitted convergence order from sup errors over a geometric rate list.

    Without a scheme the plain operator, the p = 1 combination, is fitted.
    The fit uses only the top half of the rates (the small-w entries are
    pre-asymptotic).  When the sup error sits at the round-off floor the
    function is reproduced exactly and an infinite order is reported
    instead of a meaningless fit.
    """
    ws = _check_w_list(w_list, minimum=5)
    if len(probe_grid) == 0:
        raise ValueError("empty probe grid")
    scheme = scheme or solve_coefficients(1)
    errors = tuple(_sup_error(f, kernel, scheme, w, probe_grid, quad_nodes) for w in ws)
    floor = ERROR_FLOOR_SCALE * (1.0 + max(abs(f.f(x)) for x in probe_grid))
    if min(errors) < floor:
        return ConvergenceStudy(
            w_list=ws,
            errors=errors,
            fitted_order=math.inf,
            fitted_constant=0.0,
            exact_reproduction=True,
        )
    half = (len(ws) + 1) // 2
    log_w = [math.log(w) for w in ws[-half:]]
    log_e = [math.log(e) for e in errors[-half:]]
    slope, intercept = statistics.linear_regression(log_w, log_e)
    return ConvergenceStudy(
        w_list=ws,
        errors=errors,
        fitted_order=-slope,
        fitted_constant=math.exp(intercept),
    )


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
    if not 1 <= r <= f.max_theta:
        raise ValueError(f"expansion order r={r} not in 1..{f.max_theta}")
    _check_rate(w)
    _check_point(x)
    t = math.log(x)
    return math.fsum(
        float(c) * f.theta(j)(x)
        / (math.factorial(j + 1) * (i * w) ** j)
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
    """

    bound: str
    lhs: float
    rhs: float
    satisfied: Optional[bool]
    surrogate_desc: str
    details: dict[str, float] = field(default_factory=dict)


def _widened_interval(f: TestFunction, kernel: Kernel, w: float) -> tuple[float, float]:
    """f's eval_interval widened by the factor e^margin on each side,
    margin = (radius + 1)/w: every cell the operator touches for x in
    eval_interval lies inside.

    A margin above 1, i.e. w < radius + 1, is refused: the norms would be
    taken far outside f's interval (over about [6e-44, 1e44] for bspline:2
    at w = 0.02), which makes the right side vacuous.
    """
    smallest = kernel.support_radius + 1.0
    if w < smallest:
        raise ValueError(
            f"rate w={w} is too small for a bound with kernel {kernel.label!r}: its norms "
            f"would be taken with margin (radius + 1)/w = {smallest / w:.6g} > 1 on each side "
            f"of log x; the smallest admissible w is {smallest}"
        )
    margin = smallest / w
    lo, hi = f.eval_interval
    return lo * math.exp(-margin), hi * math.exp(margin)


def _k_upper(
    f: TestFunction, r: int, eps: float, interval: tuple[float, float]
) -> tuple[float, str]:
    """K(f, eps) <= eps*||theta^(r+1) f|| on the interval: the infimum over
    smooth g of ||theta^r(f-g)|| + eps*||theta^(r+1) g||, bounded at g = f,
    keeps the estimates testable without solving the infimum."""
    if f.max_theta < r + 1:
        raise ValueError(
            f"no candidate with a Mellin derivative of order {r + 1} to bound the K-functional"
        )
    value = eps * sup_norm(f.theta(r + 1), interval)
    if not math.isfinite(value):
        raise ValueError(
            f"the K-functional upper bound overflows on [{interval[0]:.6g}, {interval[1]:.6g}]; "
            f"the rate is too small for a finite right side"
        )
    desc = (
        f"K-functional upper bound min_g(||theta^{r}(f-g)|| + eps*||theta^{r + 1}g||), "
        f"candidates={[f.label]}, best=g={f.label}, "
        f"norms on [{interval[0]:.6g}, {interval[1]:.6g}]"
    )
    return value, desc


def first_order_bound(
    f: TestFunction,
    kernel: Kernel,
    w: float,
    x: float,
    quad_nodes: int = 7,
) -> BoundReport:
    """First-order remainder estimate: ``combo_bound`` of the p = 1 scheme.

    lhs: |(I_w f)(x) - f(x) - (theta f)(x)/(2w) * (m_0 + 2 m_1)(chi, x^w)|
    rhs: (1 + 2 M_1)/w * K(f, (1 + 3 M_1 + 3 M_2) / (6w (1 + 2 M_1)))
    """
    report = combo_bound(f, kernel, solve_coefficients(1), w, x, quad_nodes)
    return replace(report, bound="first_order")


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

    Raises MomentPreconditionError when a lower moment is nonzero at the
    evaluation point (that is a failed hypothesis, not a failed bound).
    """
    if not 1 <= r <= 3:
        raise ValueError(f"bound order r={r} not in 1..3")
    if f.max_theta < r:
        raise ValueError(f"{f.label}: needs Mellin derivatives through order {r}")
    _check_rate(w)
    _check_point(x)
    wt = w * math.log(x)
    for j in range(1, r):
        mj = algebraic_moment_at_log(kernel, j, wt)
        if abs(mj) > 1e-10:
            raise MomentPreconditionError(
                f"kernel {kernel.label!r}: m_{j}(chi, u) = {mj:.3e} != 0 at u = x^w "
                f"(log u = {wt:.6g}); the order-{r} bound does not apply"
            )
    m_r = algebraic_moment_at_log(kernel, r, wt)
    actual = apply(f, kernel, OperatorConfig(w=w, quad_nodes=quad_nodes), x)
    lhs = abs(actual - f.f(x) - expansion_prediction(f, kernel, solve_coefficients(1), w, x, r))
    Mr = _absolute_moment_sup_cached(kernel, r)
    Mr1 = _absolute_moment_sup_cached(kernel, r + 1)
    A = 1.0 + (r + 1) * Mr
    B = 1.0 + (r + 2) * Mr1
    eps = B / (2.0 * A * (r + 1) * w)
    k_value, desc = _k_upper(f, r, eps, _widened_interval(f, kernel, w))
    rhs = 2.0 * A / (w ** r * math.factorial(r + 1)) * k_value
    return BoundReport(
        bound=f"vanishing_moment:r={r}",
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
    ``first_order_bound``.
    """
    if f.max_theta < 1:
        raise ValueError(f"{f.label}: needs a first Mellin derivative")
    _check_rate(w)
    _check_point(x)
    actual = apply_combo(f, kernel, scheme, w, x, quad_nodes)
    lhs = abs(actual - f.f(x) - expansion_prediction(f, kernel, scheme, w, x, 1))
    M1 = _absolute_moment_sup_cached(kernel, 1)
    M2 = _absolute_moment_sup_cached(kernel, 2)
    s1 = float(scheme.power_sum(1))
    s2 = float(scheme.power_sum(2))
    A = s2 * (1.0 + 3.0 * M1 + 3.0 * M2)
    B = s1 * (1.0 + 2.0 * M1)
    details = {"M1": M1, "M2": M2, "A": A, "B": B, "coeff_sum_1": s1, "coeff_sum_2": s2}
    if s1 <= 0.0 or B == 0.0:
        return BoundReport(
            bound=f"combination:p={scheme.p}",
            lhs=lhs,
            rhs=0.0,
            satisfied=None,
            surrogate_desc=(
                "not applicable: sum_i c_i/i <= 0 makes the stated right side degenerate"
            ),
            details=details,
        )
    eps = A / (6.0 * w * B)
    k_value, desc = _k_upper(f, 1, eps, _widened_interval(f, kernel, w))
    rhs = (1.0 + 2.0 * M1) / w * s1 * k_value
    details.update({"eps": eps, "K_upper": k_value})
    return BoundReport(
        bound=f"combination:p={scheme.p}",
        lhs=lhs,
        rhs=rhs,
        satisfied=lhs <= rhs + 1e-12,
        surrogate_desc=desc,
        details=details,
    )


# ---------------------------------------------------------------------------
# Error tables


@dataclass(frozen=True)
class ErrorTable:
    """Rows of |f - I_{iw} f| for i = 1..p plus the combined operator."""

    w: float
    p: int
    x_values: tuple[float, ...]
    column_labels: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]

    def rounded_rows(self, decimals: int = 4) -> list[tuple[float, ...]]:
        return [tuple(round(v, decimals) for v in row) for row in self.rows]

    def to_csv(self, dest: TextIO, decimals: int = 4) -> None:
        writer = csv.writer(dest, lineterminator="\n")
        writer.writerow(("x",) + self.column_labels)
        for x, row in zip(self.x_values, self.rows):
            writer.writerow([f"{x:.12g}"] + [f"{v:.{decimals}f}" for v in row])

    def to_latex(self, dest: TextIO, decimals: int = 4) -> None:
        cols = "|" + "l|" * (1 + len(self.column_labels))
        dest.write("\\begin{tabular}{" + cols + "}\n\\hline\n")
        header = " & ".join(["$x$"] + [lab.replace("_", "\\_") for lab in self.column_labels])
        dest.write(header + " \\\\\n\\hline\n")
        for x, row in zip(self.x_values, self.rows):
            cells = " & ".join([f"{x:.12g}"] + [f"{v:.{decimals}f}" for v in row])
            dest.write(cells + " \\\\\n\\hline\n")
        dest.write("\\end{tabular}\n")


def make_table(
    f: TestFunction,
    kernel: Kernel,
    scheme: CombinationScheme,
    w: float,
    xs: Sequence[float],
    quad_nodes: int = 7,
) -> ErrorTable:
    """Error table at the given points: one column per single-rate operator
    I_{iw}, i = 1..p, then the combined operator."""
    if len(xs) == 0:
        raise ValueError("empty point list")
    p = scheme.p
    labels = tuple(f"abs_err_w{i * w:g}" for i in range(1, p + 1)) + (f"abs_err_combo_p{p}",)
    rows = []
    for x, singles in zip(xs, _rate_values(f, kernel, w, p, xs, quad_nodes)):
        fx = f.f(x)
        combo = scheme.combine(singles)
        rows.append(tuple(abs(v - fx) for v in singles) + (abs(combo - fx),))
    return ErrorTable(
        w=w,
        p=p,
        x_values=tuple(float(x) for x in xs),
        column_labels=labels,
        rows=tuple(rows),
    )


def table_deviations(
    table: ErrorTable,
    expected: dict[float, Sequence[float]],
    tol: float,
) -> list[dict]:
    """Cells differing from reference values by more than tol.

    Returns one record per offending cell; an empty list means the table
    reproduces the reference within tolerance.
    """
    out = []
    for x, row in zip(table.x_values, table.rows):
        ref = expected.get(x)
        if ref is None:
            continue
        for label, got, want in zip(table.column_labels, row, ref):
            if abs(got - want) > tol:
                out.append(
                    {"x": x, "column": label, "computed": got, "expected": want,
                     "delta": abs(got - want)}
                )
    return out
