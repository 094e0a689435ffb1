"""The Kantorovich exponential sampling operator.

For a kernel chi and rate w > 0 the operator evaluates

    (I_w f)(x) = sum_k chi(e^-k * x^w) * w * integral_{k/w}^{(k+1)/w} f(e^u) du,

i.e. a kernel-weighted sum of normalized cell averages of f(e^u) on the
uniform log-grid of mesh 1/w.  Compact kernel support makes the sum finite:
it runs over ``Kernel.window(w*log(x))``, the k with w*log(x) - k inside the
log-support, widened by one on each side.

The sum is written once, in ``_apply_with_cache``, which takes the cell
averages as a callable k -> mean and asks it only where the kernel weight is
nonzero.  Every value of the package comes from there: ``apply`` and
``apply_grid`` pass a cache over Gauss-Legendre quadrature of a known f
(``cell_mean``), ``apply_from_samples`` a lookup in an ingested series of
precomputed means.
"""

from __future__ import annotations

import csv
import decimal
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence, TextIO, Union

from .functions import TestFunction
from .kernels import Kernel

__all__ = [
    "OperatorConfig",
    "SampleSeries",
    "GridPoint",
    "MissingSampleError",
    "SampleFormatError",
    "cell_mean",
    "apply",
    "apply_from_samples",
    "apply_grid",
    "read_sample_csv",
    "write_sample_csv",
    "write_grid_csv",
]

# A cell's quadrature nodes e^u are normal floats only for log u strictly
# between these: the logs of the smallest normal and of the largest float.
_LOG_MIN = math.log(sys.float_info.min)
_LOG_MAX = math.log(sys.float_info.max)


class MissingSampleError(ValueError):
    """A sample series lacks a cell index the kernel window requires."""


class SampleFormatError(ValueError):
    """A sample CSV file violates the expected schema."""


@dataclass(frozen=True)
class OperatorConfig:
    """Sampling rate and per-cell quadrature order.

    The truncation range of the series is not configured here: it is the
    kernel window at evaluation time (see ``Kernel.window``).
    """

    w: float
    quad_nodes: int = 7

    def __post_init__(self) -> None:
        _check_rate(self.w)
        if not 1 <= self.quad_nodes <= 64:
            raise ValueError(f"quad_nodes must be in 1..64, got {self.quad_nodes}")


def _check_rate(w: float) -> None:
    if not 0.0 < w < math.inf:
        raise ValueError(f"sampling rate w must be positive and finite, got {w}")


def _check_point(x: float) -> None:
    if not 0.0 < x < math.inf:
        raise ValueError(f"evaluation point must be positive and finite, got {x}")


def _newton_step(n: int, x, one):
    """One Newton step towards a root of P_n, with P_n(x) and P_{n-1}(x) from
    the three-term recurrence in the arithmetic of x and ``one`` (float or
    Decimal).  Returns the new x and P_n'(x)."""
    prev, cur = one, x
    for k in range(2, n + 1):
        prev, cur = cur, ((2 * k - 1) * x * cur - (k - 1) * prev) / k
    dp = n * (x * cur - prev) / (x * x - one)
    return x - cur / dp, dp


@lru_cache(maxsize=None)
def _gauss_rule(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Legendre nodes moved to [0, 1], ascending, and weights halved
    to sum to 1, as Python-float tuples.

    Newton's method on the three-term Legendre recurrence finds the roots
    x >= 0 of P_n from the guesses cos(pi (i - 1/4) / (n + 1/2)): float
    steps first, then two polishing steps in ``decimal`` at 40 digits.  The
    nodes (1 -+ x)/2 and the halved weight 1 / ((1 - x^2) P_n'(x)^2) are
    each rounded to float once, and the lower half mirrors the upper, so
    the weights are exactly symmetric.  No eigen-solver is involved, so the
    rule is the same on every platform.
    """
    if n < 1:
        raise ValueError(f"quad_nodes must be a positive integer, got {n}")
    roots = [math.cos(math.pi * (i - 0.25) / (n + 0.5)) for i in range(1, n // 2 + 1)]
    if n % 2:
        roots.append(0.0)
    lower, upper, weights = [], [], []
    with decimal.localcontext(decimal.Context(prec=40)):
        one = decimal.Decimal(1)
        for x in roots:
            for _ in range(100):  # float steps until a step is below 1e-12
                new, _ = _newton_step(n, x, 1.0)
                x, step = new, new - x
                if abs(step) <= 1e-12:
                    break
            x = decimal.Decimal(x)
            for _ in range(2):
                x, dp = _newton_step(n, x, one)
            lower.append(float((one - x) / 2))
            upper.append(float((one + x) / 2))
            weights.append(float(one / ((one - x * x) * dp * dp)))
    if n % 2:  # the middle node x = 0 is its own mirror
        upper.pop()
    return (
        tuple(lower + upper[::-1]),
        tuple(weights + weights[: len(upper)][::-1]),
    )


def cell_mean(f: TestFunction, w: float, k: int, quad_nodes: int = 7) -> float:
    """Normalized cell average w * integral_{k/w}^{(k+1)/w} f(e^u) du.

    Gauss-Legendre with ``quad_nodes`` points; exact whenever u -> f(e^u) is
    a polynomial of degree <= 2*quad_nodes - 1 on the cell.  Raises
    ValueError for a cell whose points e^u overflow or underflow (a rate
    too small for the evaluation point) and for an f that overflows there.
    """
    lo, hi = k / w, (k + 1) / w
    if not (_LOG_MIN < lo and hi < _LOG_MAX):
        raise ValueError(
            f"cell k={k} at w={w:g} spans log x in [{lo:g}, {hi:g}], beyond the float "
            f"range ({_LOG_MIN:.1f}, {_LOG_MAX:.1f}); the rate is too small for this point, "
            f"or the point lies too close to 0 or to the largest float"
        )
    nodes, weights = _gauss_rule(quad_nodes)
    g = f.f
    try:
        return math.fsum(wt * g(math.exp((k + s) / w)) for s, wt in zip(nodes, weights))
    except OverflowError as exc:
        raise ValueError(
            f"cell k={k} at w={w:g}: f overflows on log x in [{lo:g}, {hi:g}] ({exc})"
        ) from None


class _CellMeans(dict):
    """k -> cell_mean(f, cfg.w, k), each cell computed on its first lookup.

    Shared across evaluation points, so neighbouring points reuse the cells
    they both touch; a hit is a plain dict lookup.
    """

    def __init__(self, f: TestFunction, cfg: OperatorConfig) -> None:
        super().__init__()
        self.f, self.w, self.quad_nodes = f, cfg.w, cfg.quad_nodes

    def __missing__(self, k: int) -> float:
        value = self[k] = cell_mean(self.f, self.w, k, self.quad_nodes)
        return value


def _apply_with_cache(
    kernel: Kernel, w: float, x: float, mean: Callable[[int], float]
) -> float:
    """(I_w f)(x) = sum_k chi(w*log(x) - k) * mean(k) over the kernel window.

    The package's one operator sum.  ``mean(k)`` is asked only where the
    kernel weight is nonzero; the nonzero terms are summed in ascending k
    with math.fsum.
    """
    _check_point(x)
    wt = w * math.log(x)
    terms = []
    for k in kernel.window(wt):
        weight = kernel.eval_log(wt - k)
        if weight != 0.0:
            terms.append(weight * mean(k))
    return math.fsum(terms)


def apply(f: TestFunction, kernel: Kernel, cfg: OperatorConfig, x: float) -> float:
    """(I_w f)(x) for a function given in closed form."""
    return _apply_with_cache(kernel, cfg.w, x, _CellMeans(f, cfg).__getitem__)


@dataclass(frozen=True)
class SampleSeries:
    """Cell means of an unknown signal on the log-grid of mesh 1/w.

    ``means[k]`` is w * integral_{k/w}^{(k+1)/w} f(e^u) du; the mapping must
    be dense on k_range.
    """

    w: float
    means: Mapping[int, float]
    k_range: tuple[int, int]

    def __post_init__(self) -> None:
        _check_rate(self.w)
        k_min, k_max = self.k_range
        # walk the stored indices, not the span: a file of two rows may
        # name cells 10^12 apart; each gap adds at most 8 of its indices
        missing: list[int] = []
        expected = k_min
        for k in sorted(k for k in self.means if k_min <= k <= k_max) + [k_max + 1]:
            missing += range(expected, min(k, expected + 8))
            expected = k + 1
        if missing:
            raise ValueError(f"sample series has gaps at k={missing[:8]}")

    @classmethod
    def from_function(
        cls, f: TestFunction, w: float, k_min: int, k_max: int, quad_nodes: int = 7
    ) -> "SampleSeries":
        means = {k: cell_mean(f, w, k, quad_nodes) for k in range(k_min, k_max + 1)}
        return cls(w=w, means=means, k_range=(k_min, k_max))

    @classmethod
    def covering(
        cls,
        f: TestFunction,
        kernel: Kernel,
        w: float,
        xs: Sequence[float],
        quad_nodes: int = 7,
    ) -> "SampleSeries":
        """Series whose k_range covers the kernel window of every x in xs."""
        return cls.from_function(f, w, *cls.covering_range(kernel, w, xs), quad_nodes)

    @staticmethod
    def covering_range(kernel: Kernel, w: float, xs: Sequence[float]) -> tuple[int, int]:
        """The k_range of ``covering``, found without computing a cell."""
        return kernel.window(w * math.log(min(xs)))[0], kernel.window(w * math.log(max(xs)))[-1]


def apply_from_samples(series: SampleSeries, kernel: Kernel, x: float) -> float:
    """(I_w f)(x) from stored cell means.

    Only the cells with a nonzero kernel weight at x are needed.  Raises
    MissingSampleError naming the first such cell the series does not cover.
    """
    k_min, k_max = series.k_range

    def mean(k: int) -> float:
        if not k_min <= k <= k_max:
            raise MissingSampleError(
                f"reconstruction at x={x:g} needs sample k={k}, "
                f"series covers [{k_min}, {k_max}]"
            )
        return series.means[k]

    return _apply_with_cache(kernel, series.w, x, mean)


@dataclass(frozen=True)
class GridPoint:
    x: float
    approx: float
    exact: float
    abs_error: float


def apply_grid(
    f: TestFunction, kernel: Kernel, cfg: OperatorConfig, xs: Sequence[float]
) -> list[GridPoint]:
    """Per-point operator values with errors against f itself."""
    if len(xs) == 0:
        raise ValueError("empty evaluation grid")
    mean = _CellMeans(f, cfg).__getitem__
    out = []
    for x in xs:
        value = _apply_with_cache(kernel, cfg.w, x, mean)
        exact = f.f(x)
        out.append(GridPoint(x=x, approx=value, exact=exact, abs_error=abs(value - exact)))
    return out


# ---------------------------------------------------------------------------
# Sample-series CSV: first line "# w=<value>", then header "k,mean".

def write_sample_csv(dest: Union[str, TextIO], series: SampleSeries) -> None:
    """Means are written with shortest round-trip precision so that a
    read-back series reproduces the operator to full accuracy."""
    if isinstance(dest, str):
        with open(dest, "w", newline="") as fh:
            write_sample_csv(fh, series)
        return
    dest.write(f"# w={series.w!r}\n")
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(["k", "mean"])
    k_min, k_max = series.k_range
    for k in range(k_min, k_max + 1):
        writer.writerow([k, repr(series.means[k])])


def read_sample_csv(src: Union[str, TextIO]) -> SampleSeries:
    if isinstance(src, str):
        with open(src, "r", newline="") as fh:
            return read_sample_csv(fh)
    first = src.readline().strip()
    if not first.startswith("# w="):
        raise SampleFormatError(f"line 1: expected '# w=<value>' sidecar, got {first!r}")
    try:
        w = float(first[4:])
    except ValueError:
        raise SampleFormatError(f"line 1: bad rate value {first[4:]!r}") from None
    reader = csv.reader(src)
    header = next(reader, None)
    if header != ["k", "mean"]:
        raise SampleFormatError(f"line 2: expected header 'k,mean', got {header!r}")
    means: dict[int, float] = {}
    for lineno, row in enumerate(reader, start=3):
        if not row:
            continue
        if len(row) != 2:
            raise SampleFormatError(f"line {lineno}: expected 2 fields, got {len(row)}")
        try:
            k = int(row[0])
        except ValueError:
            raise SampleFormatError(f"line {lineno}: bad cell index {row[0]!r}") from None
        try:
            mean = float(row[1])
        except ValueError:
            raise SampleFormatError(f"line {lineno}: bad mean value {row[1]!r}") from None
        if not math.isfinite(mean):
            raise SampleFormatError(f"line {lineno}: mean value must be finite, got {row[1]!r}")
        if k in means:
            raise SampleFormatError(f"line {lineno}: duplicate cell index k={k}")
        means[k] = mean
    if not means:
        raise SampleFormatError("sample file contains no rows")
    return SampleSeries(w=w, means=means, k_range=(min(means), max(means)))


def write_grid_csv(dest: TextIO, points: Iterable[GridPoint]) -> None:
    """Output CSV: x,approx,exact,abs_error at 12 significant digits, LF."""
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(["x", "approx", "exact", "abs_error"])
    for p in points:
        writer.writerow([f"{p.x:.12g}", f"{p.approx:.12g}", f"{p.exact:.12g}", f"{p.abs_error:.12g}"])
