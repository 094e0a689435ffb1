"""Independent numpy reference for checking expsamp outputs.

Nothing here calls expsamp: kernels, test functions, cell means, the
operator and the direct moment sums are written out again, vectorised, so
that a check compares the program against a second implementation rather
than against itself.  The B-spline uses the non-centred Cox-de Boor
recursion on the knots 0..n, which is accurate to a few ulp at every order.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# kernels


def bspline(n: int, t: np.ndarray) -> np.ndarray:
    """Centred cardinal B-spline of order n at t; order 1 is left-closed."""
    x = np.asarray(t, dtype=float) + 0.5 * n
    basis = [((j <= x) & (x < j + 1)).astype(float) for j in range(n)]
    for k in range(2, n + 1):
        basis = [
            ((x - j) * basis[j] + (j + k - x) * basis[j + 1]) / (k - 1)
            for j in range(n - k + 1)
        ]
    return basis[0]


class RefKernel:
    """chi(t) on the log scale for ``bspline:<n>`` or ``combo:<n>:e^<a>:e^<b>``."""

    def __init__(self, spec: str):
        parts = spec.split(":")
        self.spec = spec
        self.order = int(parts[1])
        if parts[0] == "bspline" and len(parts) == 2:
            self.terms = ((1.0, 0.0),)
        elif parts[0] == "combo" and len(parts) == 4 and all(p.startswith("e^") for p in parts[2:]):
            la, lb = (Fraction(p[2:]) for p in parts[2:])
            c1, c2 = lb / (lb - la), -la / (lb - la)
            self.terms = ((float(c1), float(la)), (float(c2), float(lb)))
        else:
            raise ValueError(f"reference has no kernel {spec!r}")
        half = 0.5 * self.order
        shifts = [s for _, s in self.terms]
        self.support = (-half - max(shifts), half - min(shifts))

    def __call__(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return sum(c * bspline(self.order, t + s) for c, s in self.terms)


# ---------------------------------------------------------------------------
# test functions: f and its first Mellin derivative theta f = x f'(x)


def _const(c: float):
    return lambda x: np.full_like(np.asarray(x, dtype=float), c)


FUNCTIONS = {
    "log": lambda x: np.log(x),
    "log2": lambda x: np.log(x) ** 2,
    "log3": lambda x: np.log(x) ** 3,
    "cos4exp": lambda x: 1.0 - np.cos(4.0 * np.exp(x)),
    "sinmix": lambda x: np.sin(2.0 * np.pi * x) + 2.0 * np.sin(0.5 * np.pi * x),
}

THETA1 = {
    "log": lambda x: np.ones_like(np.asarray(x, dtype=float)),
    "log2": lambda x: 2.0 * np.log(x),
    "log3": lambda x: 3.0 * np.log(x) ** 2,
    "cos4exp": lambda x: x * 4.0 * np.exp(x) * np.sin(4.0 * np.exp(x)),
    "sinmix": lambda x: x * (2.0 * np.pi * np.cos(2.0 * np.pi * x) + np.pi * np.cos(0.5 * np.pi * x)),
}

# degree of f as a polynomial in log x; other functions have every
# Mellin derivative nonzero
LOG_DEGREE = {"log": 1, "log2": 2, "log3": 3}

EVAL_INTERVAL = {
    "log": (0.5, 3.0),
    "log2": (0.5, 3.0),
    "log3": (0.5, 3.0),
    "cos4exp": (0.5, 1.0),
    "sinmix": (0.5 * math.pi, 4.0),
}


def function(name: str):
    if name.startswith("const:"):
        return _const(float(name.split(":", 1)[1]))
    return FUNCTIONS[name]


def log_degree(name: str) -> float:
    """Degree of f in log x: 0 for constants, inf when not a polynomial."""
    if name.startswith("const:"):
        return 0
    return LOG_DEGREE.get(name, math.inf)


# ---------------------------------------------------------------------------
# operator


def x_values(text: str) -> np.ndarray:
    """The CLI's documented point syntax: inclusive ``lo:hi:step`` or a comma list."""
    if ":" in text:
        lo, hi, step = (float(p) for p in text.split(":"))
        count = int(math.floor((hi - lo) / step + 1e-9)) + 1
        return np.array([lo + i * step for i in range(count)])
    return np.array([float(tok) for tok in text.split(",")])


def cell_means(f, w: float, ks: np.ndarray, quad_nodes: int) -> np.ndarray:
    """w * integral over [k/w, (k+1)/w] of f(e^u) du, Gauss-Legendre."""
    nodes, weights = np.polynomial.legendre.leggauss(quad_nodes)
    u = (np.asarray(ks, dtype=float)[..., None] + 0.5 * (nodes + 1.0)) / w
    return 0.5 * (f(np.exp(u)) @ weights)


def window(kernel: RefKernel, wt: np.ndarray) -> np.ndarray:
    """Cell indices k (one row per point) with wt - k in the kernel support."""
    a, b = kernel.support
    width = int(math.ceil(b - a)) + 3
    start = np.ceil(np.asarray(wt) - b).astype(np.int64) - 1
    return start[..., None] + np.arange(width)


def operator(kernel: RefKernel, fname: str, w: float, xs, quad_nodes: int) -> np.ndarray:
    """(I_w f)(x) at every x in xs."""
    f = function(fname)
    wt = w * np.log(np.asarray(xs, dtype=float))
    ks = window(kernel, wt)
    weights = kernel(wt[:, None] - ks)
    return np.sum(weights * cell_means(f, w, ks, quad_nodes), axis=1)


def combination(kernel: RefKernel, fname: str, coeffs, w: float, xs, quad_nodes: int) -> np.ndarray:
    """sum_i c_i (I_{iw} f)(x); coeffs are c_1..c_p."""
    parts = [float(c) * operator(kernel, fname, i * w, xs, quad_nodes)
             for i, c in enumerate(coeffs, start=1)]
    return np.sum(parts, axis=0)


def combination_coefficients(p: int) -> list[Fraction]:
    """Solve sum_i c_i = 1, sum_i c_i / i^k = 0 (k = 1..p-1) exactly.

    Closed form: c_i = (-1)^(p-i) i^(p-1) / ((i-1)! (p-i)!), the Lagrange
    weights at 0 of the nodes 1/i.
    """
    return [
        Fraction((-1) ** (p - i) * i ** (p - 1), math.factorial(i - 1) * math.factorial(p - i))
        for i in range(1, p + 1)
    ]


def series_from_samples(kernel: RefKernel, w: float, ks: np.ndarray, means: np.ndarray, xs) -> np.ndarray:
    """The operator from stored means (ks dense and sorted)."""
    wt = w * np.log(np.asarray(xs, dtype=float))
    win = window(kernel, wt)
    idx = np.clip(win - ks[0], 0, len(ks) - 1)
    weights = kernel(wt[:, None] - win)
    return np.sum(weights * means[idx], axis=1)


# ---------------------------------------------------------------------------
# moments


def moment_sums(kernel: RefKernel, nu: int, t: np.ndarray, absolute: bool = False) -> np.ndarray:
    """m_nu(chi, e^t) = sum_k chi(t - k) (k - t)^nu, or M_nu with absolute values."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    ks = window(kernel, t)
    d = ks - t[:, None]
    chi = kernel(-d)
    if absolute:
        return np.sum(np.abs(chi) * np.abs(d) ** nu, axis=1)
    return np.sum(chi * d ** nu, axis=1)


def absolute_moment_sup(kernel: RefKernel, nu: int) -> float:
    """sup over one period of M_nu(chi, e^s): 2^14-point grid, then zoom."""
    s = np.arange(2 ** 14) / 2 ** 14
    values = moment_sums(kernel, nu, s, absolute=True)
    best_s, best = float(s[np.argmax(values)]), float(values.max())
    radius = 1.0 / 2 ** 14
    while radius > 1e-12:
        s = best_s + np.linspace(-radius, radius, 65)
        values = moment_sums(kernel, nu, s, absolute=True)
        i = int(np.argmax(values))
        if values[i] > best:
            best, best_s = float(values[i]), float(s[i])
        radius /= 8.0
    return best
