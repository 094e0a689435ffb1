"""Test functions bundled with closed-form Mellin derivatives.

The Mellin derivative is theta f = x * f'(x); iterating,

    theta^2 f = x f' + x^2 f''
    theta^3 f = x f' + 3 x^2 f'' + x^3 f'''

so a function with hand-derived ordinary derivatives up to third order
yields theta f, theta^2 f, theta^3 f in closed form.  For the oscillatory
built-ins each theta^j is one closure: it computes each exp, sin and cos
it needs once per point and combines them as x f' + ... above, in that
order.  Powers of log x are written directly in theta, which maps
(log x)^p to p (log x)^(p-1), so the terms above need not cancel for them.
The registry below holds the functions used in the numerical experiments;
``const:<c>`` is parsed dynamically.

The operator averages f(e^u) over cells of the log axis, so each function
also carries ``f_at_log``, which maps a list of u to the list of f(e^u):
the operator asks for every quadrature node of a block of cells in one
call.  The built-ins write it in closed form, each expression once inside
a list comprehension, with no exp/log round trip per node.  A constant and
(log x)^p are c u^p there, and carry ``log_monomial`` = (c, p), so that
their cell means need no quadrature.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from math import cos, exp, sin

__all__ = ["TestFunction", "BUILTIN_FUNCTIONS", "get_function"]

Real = Callable[[float], float]
OnLogAxis = Callable[[list[float]], list[float]]


@dataclass(frozen=True)
class TestFunction:
    """A function on the positive half-line with its Mellin derivatives.

    ``mellin_derivs`` holds (theta f, theta^2 f, theta^3 f).  ``eval_interval``
    is where sup norms and errors are measured.  ``f_at_log`` maps a list
    of u to [f(e^u) for u in us], the integrand of the operator's cell
    means at all the nodes it asks for at once; built without it, a function
    composes f with math.exp node by node.  ``log_monomial`` = (c, p)
    states that f(e^u) = c u^p, whose cell means ``cell_mean`` then writes
    in closed form.  ``dataclasses.replace`` keeps both unless they are
    passed too.
    """

    __test__ = False  # not a pytest collection target

    f: Real
    mellin_derivs: tuple[Real, ...]
    label: str
    eval_interval: tuple[float, float]
    f_at_log: OnLogAxis | None = None
    log_monomial: tuple[float, int] | None = None

    def __post_init__(self) -> None:
        if self.f_at_log is None:
            f = self.f
            object.__setattr__(self, "f_at_log", lambda us: [f(exp(u)) for u in us])

    def theta(self, j: int) -> Real:
        """theta^j f for j = 0..len(mellin_derivs); raises if unavailable."""
        if j == 0:
            return self.f
        if 1 <= j <= len(self.mellin_derivs):
            return self.mellin_derivs[j - 1]
        raise ValueError(f"{self.label}: Mellin derivative of order {j} not available")


def _log_monomial(c: float, p: int, label: str) -> TestFunction:
    """c (log x)^p for p = 0..3, so f(e^u) = c u^p: theta lowers the power
    by one each time, theta^j c (log x)^p = c p!/(p-j)! (log x)^(p-j), and
    is exactly 0 for j > p."""

    def theta(j: int) -> Real:
        if j > p:
            return lambda x: 0.0
        a, q = c * math.perm(p, j), p - j
        if q == 0:
            return lambda x: a
        return lambda x: a * math.log(x) ** q

    return TestFunction(
        f=theta(0),
        mellin_derivs=(theta(1), theta(2), theta(3)),
        label=label,
        eval_interval=(0.5, 3.0),
        f_at_log=lambda us: [c * u ** p for u in us],
        log_monomial=(c, p),
    )


def _cos4exp() -> TestFunction:
    # f(x) = 1 - cos(4 e^x), oscillatory with x as the operator argument; with
    # d1 = f' = 4e^x sin(4e^x), f'' = d1 + 16 e^2x cos(4e^x) and
    # f''' = d1 + 48 e^2x cos(4e^x) - 64 e^3x sin(4e^x)
    f = lambda x: 1.0 - cos(4.0 * exp(x))

    def theta1(x: float) -> float:
        e4 = 4.0 * exp(x)
        return x * (e4 * sin(e4))

    def theta2(x: float) -> float:
        e4 = 4.0 * exp(x)
        d1 = e4 * sin(e4)
        return x * d1 + x * x * (d1 + 16.0 * exp(2.0 * x) * cos(e4))

    def theta3(x: float) -> float:
        e4 = 4.0 * exp(x)
        s, c, e2 = sin(e4), cos(e4), exp(2.0 * x)
        d1 = e4 * s
        d2 = d1 + 16.0 * e2 * c
        d3 = d1 + 48.0 * e2 * c - 64.0 * exp(3.0 * x) * s
        return x * d1 + 3.0 * x * x * d2 + x ** 3 * d3

    # f with exp(u) in place of x: the same operations, so f(exp(u)) bit for bit
    f_at_log = lambda us: [1.0 - cos(4.0 * exp(exp(u))) for u in us]
    return TestFunction(f, (theta1, theta2, theta3), "cos4exp", (0.5, 1.0), f_at_log)


def _sinmix() -> TestFunction:
    # g(x) = sin(2 pi x) + 2 sin(pi x / 2); with a = 2 pi x and b = pi x / 2,
    # g' = 2pi cos a + pi cos b, g'' = -4pi^2 sin a - pi^2/2 sin b and
    # g''' = -8pi^3 cos a - pi^3/4 cos b
    pi = math.pi
    two_pi, half_pi = 2.0 * pi, 0.5 * pi  # 2.0 * pi * x is (2.0 * pi) * x: the same floats
    k2a, k2b, k3a, k3b = -4.0 * pi ** 2, 0.5 * pi ** 2, -8.0 * pi ** 3, 0.25 * pi ** 3
    f = lambda x: sin(two_pi * x) + 2.0 * sin(half_pi * x)

    def theta1(x: float) -> float:
        return x * (two_pi * cos(two_pi * x) + pi * cos(half_pi * x))

    def theta2(x: float) -> float:
        a, b = two_pi * x, half_pi * x
        return x * (two_pi * cos(a) + pi * cos(b)) + x * x * (k2a * sin(a) - k2b * sin(b))

    def theta3(x: float) -> float:
        a, b = two_pi * x, half_pi * x
        ca, cb = cos(a), cos(b)
        d1 = two_pi * ca + pi * cb
        d2 = k2a * sin(a) - k2b * sin(b)
        return x * d1 + 3.0 * x * x * d2 + x ** 3 * (k3a * ca - k3b * cb)

    f_at_log = lambda us: [sin(two_pi * x) + 2.0 * sin(half_pi * x) for x in map(exp, us)]
    return TestFunction(f, (theta1, theta2, theta3), "sinmix", (0.5 * pi, 4.0), f_at_log)


BUILTIN_FUNCTIONS: dict[str, Callable[[], TestFunction]] = {
    "log": lambda: _log_monomial(1.0, 1, "log"),
    "log2": lambda: _log_monomial(1.0, 2, "log2"),
    "log3": lambda: _log_monomial(1.0, 3, "log3"),
    "cos4exp": _cos4exp,
    "sinmix": _sinmix,
}


def get_function(name: str) -> TestFunction:
    """Look up a built-in test function; ``const:<c>`` takes any constant."""
    if name.startswith("const:"):
        try:
            c = float(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad constant in function name {name!r}") from None
        if not math.isfinite(c):
            raise ValueError(f"constant in function name {name!r} must be finite, got {c}")
        return _log_monomial(c, 0, f"const:{c:g}")
    try:
        return BUILTIN_FUNCTIONS[name]()
    except KeyError:
        known = ", ".join(sorted(BUILTIN_FUNCTIONS) + ["const:<c>"])
        raise ValueError(f"unknown function {name!r} (known: {known})") from None
