"""The Kantorovich exponential sampling operator.

For a kernel chi and rate w > 0 the operator evaluates

    (I_w f)(x) = sum_k chi(e^-k * x^w) * w * integral_{k/w}^{(k+1)/w} f(e^u) du,

i.e. a kernel-weighted sum of normalized cell averages of f(e^u) on the
uniform log-grid of mesh 1/w.  The cell averages integrate
``TestFunction.f_at_log``, which maps a list of u to the list of f(e^u),
on the log axis itself, or, where that is c u^p
(``TestFunction.log_monomial``), are exact.  ``cell_mean`` computes one
cell, with one ``f_at_log`` call on its nodes; a sample series
(``SampleSeries.from_function``) computes its cells in blocks of 64, with
one call on the nodes of a whole block, and gives the same floats.  Compact
kernel support makes the sum finite: it runs over ``Kernel.window(w*log(x))``,
the k with w*log(x) - k in the log-support, or in each term's own support
where two terms lie far apart, widened by one on each side.

The sum is written once, in ``_apply_with_cache``, which takes the cell
averages as a callable k -> mean and asks it only where the kernel weight is
nonzero, and sums the products with one math.fsum; only where that leaves
the float range does ``_dot`` sum them again, scaled back into range.  Every
value of the package comes from there: ``apply`` and ``apply_grid`` pass a
cache over the cell means of a known f (``cell_mean``),
``apply_from_samples`` a lookup in an ingested series of precomputed means.
The module returns numbers; the one file format it owns is the sample
series', and ``cli`` formats every printed output.
"""

from __future__ import annotations

import csv
import decimal
import io
import math
import sys
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .functions import TestFunction
from .kernels import Kernel

__all__ = [
    "OperatorConfig",
    "SampleSeries",
    "MissingSampleError",
    "SampleFormatError",
    "cell_mean",
    "apply",
    "apply_from_samples",
    "apply_grid",
    "read_sample_csv",
    "write_sample_csv",
]

# A cell's quadrature nodes e^u are normal floats only for log u strictly
# between these: the logs of the smallest normal and of the largest float.
_LOG_MIN = math.log(sys.float_info.min)
_LOG_MAX = math.log(sys.float_info.max)

MAX_QUAD_NODES = 64

# The exact means of c u^p over cell k, p = 0..3, written in the integer k:
# the mean of u is (k + 1/2)/w, of u^2 (k^2 + k + 1/3)/w^2 and of u^3
# (k + 1/2)((k + 1/2)^2 + 1/4)/w^3 = K (K^2 + 1)/(8 w^3) with K = 2k + 1,
# where k^2 + k and K (K^2 + 1) are exact integers.
_EXACT_MEANS = (
    lambda c, w, k: c,
    lambda c, w, k: c * ((k + 0.5) / w),
    lambda c, w, k: c * ((k * k + k + 1 / 3) / (w * w)),
    lambda c, w, k: c * ((K := 2 * k + 1) * (K * K + 1) / (8 * w * w * w)),
)

# The exact means hold K^3 and w^3 as floats.  A cell inside the float
# range has |K| < 1420 w + 1, so both stay finite below this rate; a larger
# rate, which the CLI admits only at x within 5e-13 of 1, takes the Gauss
# rule.
_EXACT_MEAN_MAX_RATE = 2.0 ** 64

# A sample series computes its cells in blocks of this many: one f_at_log
# call per block, on at most _BLOCK * MAX_QUAD_NODES nodes, so that the
# transient node and value lists stay small.
_BLOCK = 64


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
        _check_quad_nodes(self.quad_nodes)


def _check_rate(w: float) -> None:
    if not 0.0 < w < math.inf:
        raise ValueError(f"sampling rate w must be positive and finite, got {w}")


def _check_quad_nodes(n: int) -> None:
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"quad_nodes must be a positive integer, got {n!r}")
    if n > MAX_QUAD_NODES:
        raise ValueError(f"quad_nodes must be at most {MAX_QUAD_NODES}, got {n}")


def _check_point(x: float) -> None:
    if not 0.0 < x < math.inf:
        raise ValueError(f"evaluation point must be positive and finite, got {x}")


def _newton_step(n: int, x: decimal.Decimal) -> tuple[decimal.Decimal, decimal.Decimal]:
    """One Newton step towards a root of P_n, in the Decimal context in force,
    with P_n(x) and P_{n-1}(x) from the three-term recurrence.  Returns the
    step P_n(x) / P_n'(x), to be subtracted from x, and P_n'(x)."""
    prev, cur = 1, x
    for k in range(2, n + 1):
        prev, cur = cur, ((2 * k - 1) * x * cur - (k - 1) * prev) / k
    dp = n * (x * cur - prev) / (x * x - 1)
    return cur / dp, dp


@lru_cache(maxsize=None, typed=True)  # typed: 7.0 is refused, not served as 7
def _gauss_rule(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Legendre nodes moved to [0, 1], ascending, and weights halved
    to sum to 1, as Python-float tuples.

    Newton's method on the three-term Legendre recurrence finds the roots
    x >= 0 of P_n from the guesses cos(pi (i - 1/4) / (n + 1/2)), all in
    ``decimal`` at 40 digits, until a step is at most 1e-36 (a guard stops
    it at 100 steps).  The nodes (1 -+ x)/2 and the halved weight
    1 / ((1 - x^2) P_n'(x)^2) are each rounded to float once, and the lower
    half mirrors the upper, so the weights are exactly symmetric.  No
    eigen-solver is involved, so the rule is the same on every platform.

    Every cell mean fetches its rule here, so this is where a node count
    outside 1..MAX_QUAD_NODES is refused, and the cache holds at most one
    rule per valid count.
    """
    _check_quad_nodes(n)
    roots = [math.cos(math.pi * (i - 0.25) / (n + 0.5)) for i in range(1, n // 2 + 1)]
    if n % 2:
        roots.append(0.0)
    lower, upper, weights = [], [], []
    with decimal.localcontext(decimal.Context(prec=40)):
        for x in map(decimal.Decimal, roots):
            for _ in range(100):
                step, dp = _newton_step(n, x)
                x -= step
                if abs(step) <= 1e-36:  # Decimal and float compare exactly
                    break
            lower.append(float((1 - x) / 2))
            upper.append(float((1 + x) / 2))
            weights.append(float(1 / ((1 - x * x) * dp * dp)))
    if n % 2:  # the middle node x = 0 is its own mirror
        upper.pop()
    return tuple(lower + upper[::-1]), tuple(weights + weights[: len(upper)][::-1])


def cell_mean(f: TestFunction, w: float, k: int, quad_nodes: int = 7) -> float:
    """Normalized cell average w * integral_{k/w}^{(k+1)/w} f(e^u) du.

    Where f(e^u) = c u^p (``f.log_monomial``, the log family and constants)
    and the ``quad_nodes``-point Gauss rule is exact for it, 2*quad_nodes - 1
    >= p, the exact mean is returned, written in the integer k
    (``_EXACT_MEANS``).  Otherwise Gauss-Legendre with ``quad_nodes`` points:
    one ``f.f_at_log`` call on the list of the cell's nodes u, its values
    f(e^u) weighted and summed with math.fsum; exact whenever f(e^u) is a
    polynomial of degree <= 2*quad_nodes - 1 on the cell.  This is the
    one-cell path; ``SampleSeries.from_function`` computes its cells in
    blocks of 64, one ``f.f_at_log`` call per block, and gives the same
    floats.  Raises ValueError for a rate w that is not positive and finite,
    for a node count outside 1..MAX_QUAD_NODES, for a cell whose points e^u
    overflow or underflow (a rate too small for the evaluation point, or a k
    beyond the float range) and for an f that overflows there or cannot be
    evaluated in floats, such as cos of an overflowed argument.
    """
    if not 0.0 < w < math.inf:  # inline: this runs once per cell
        _check_rate(w)
    nodes, weights = _gauss_rule(quad_nodes)
    try:
        lo, hi = k / w, (k + 1) / w
    except OverflowError:  # k itself is beyond the float range
        lo = hi = math.inf if k > 0 else -math.inf
    if not (_LOG_MIN < lo and hi < _LOG_MAX):
        raise ValueError(
            f"cell k={k} at w={w:g} spans log x in [{lo:g}, {hi:g}], beyond the float "
            f"range ({_LOG_MIN:.1f}, {_LOG_MAX:.1f}); the rate is too small for this point, "
            f"or the point lies too close to 0 or to the largest float"
        )
    exact = f.log_monomial
    if exact is not None and 2 * quad_nodes - 1 >= exact[1] and w < _EXACT_MEAN_MAX_RATE:
        c, p = exact
        return _EXACT_MEANS[p](c, w, k)
    try:
        return math.fsum(map(mul, weights, f.f_at_log([(k + s) / w for s in nodes])))
    except (OverflowError, ValueError) as exc:
        fails = "overflows" if isinstance(exc, OverflowError) else "cannot be evaluated"
        raise ValueError(
            f"cell k={k} at w={w:g}: f {fails} on log x in [{lo:g}, {hi:g}] ({exc})"
        ) from None


def _cell_means(
    f: TestFunction, w: float, k_first: int, k_last: int, quad_nodes: int
) -> dict[int, float]:
    """{k: cell_mean(f, w, k, quad_nodes)} for k from k_first to k_last, bit for bit.

    The cells go in blocks of _BLOCK: an exact mean is one comprehension
    over the block's k, a Gauss mean one ``f.f_at_log`` call on the nodes
    of the whole block, each cell then summed with the same math.fsum.  A
    block that reaches beyond the float range, or where f fails, is redone
    by ``cell_mean`` cell by cell, so that the first refused k in ascending
    order is named as ``cell_mean`` names it.
    """
    nodes, weights = _gauss_rule(quad_nodes)
    _check_rate(w)  # a positive rate keeps k/w ascending, so a block's end cells bound it
    exact = f.log_monomial  # cell_mean's rule, written out there to keep one cell at one call
    if exact is not None and 2 * quad_nodes - 1 >= exact[1] and w < _EXACT_MEAN_MAX_RATE:
        c, p = exact
        form = _EXACT_MEANS[p]
    else:
        form = None
    means: dict[int, float] = {}
    for start in range(k_first, k_last + 1, _BLOCK):
        ks = range(start, min(start + _BLOCK, k_last + 1))
        block = None
        try:
            if _LOG_MIN < start / w and (ks[-1] + 1) / w < _LOG_MAX:
                if form is not None:
                    block = [form(c, w, k) for k in ks]
                else:
                    ys = f.f_at_log([(k + s) / w for k in ks for s in nodes])
                    block = [math.fsum(map(mul, weights, ys[i:i + quad_nodes]))
                             for i in range(0, len(ys), quad_nodes)]
        except (OverflowError, ValueError):  # a cell beyond the float range, or f fails
            pass
        if block is None:
            block = [cell_mean(f, w, k, quad_nodes) for k in ks]
        means.update(zip(ks, block))
    return means


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


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    """math.fsum(map(mul, a, b)), or inf where the sum is beyond the float range.  Where fsum
    raises or gives inf, perhaps only a partial sum or a product passed the range, so the sum is
    taken again with b scaled by 2^-64 (exact unless a b_i turns subnormal) and scaled back."""
    try:
        total = math.fsum(map(mul, a, b))
    except (OverflowError, ValueError):  # terms +inf and -inf, or a partial sum past the range
        total = math.inf
    if math.isfinite(total):
        return total
    try:
        return math.ldexp(math.fsum(map(mul, a, [math.ldexp(y, -64) for y in b])), 64)
    except (OverflowError, ValueError):  # the sum itself, or an input, is past the range
        return math.inf


def _apply_with_cache(
    kernel: Kernel, w: float, x: float, mean: Callable[[int], float]
) -> float:
    """(I_w f)(x) = sum_k chi(w*log(x) - k) * mean(k) over the kernel window.

    The package's one operator sum.  ``eval_log`` is called once per window
    position, ``mean(k)`` only where the weight is nonzero, in ascending k,
    and the products go into one math.fsum.  Only where that raises or is
    not finite (a partial sum or a product past the float range) are the
    nonzero weights and their means rebuilt over the same window and summed
    by ``_dot``, which scales them.  ValueError where the sum overflows."""
    _check_point(x)
    wt = w * math.log(x)
    eval_log = kernel.eval_log
    products = [weight * mean(k) for k in kernel.window(wt) if (weight := eval_log(wt - k)) != 0.0]
    try:
        total = math.fsum(products)
    except (OverflowError, ValueError):  # terms +inf and -inf, or a partial sum past the range
        total = math.inf
    if not math.isfinite(total):
        weights = {k: weight for k in kernel.window(wt) if (weight := eval_log(wt - k)) != 0.0}
        total = _dot(list(weights.values()), list(map(mean, weights)))
        if not math.isfinite(total):
            raise ValueError(f"the operator sum at x={x:g} overflows the float range")
    return total


def apply(f: TestFunction, kernel: Kernel, cfg: OperatorConfig, x: float) -> float:
    """(I_w f)(x) for a function given in closed form."""
    return _apply_with_cache(kernel, cfg.w, x, _CellMeans(f, cfg).__getitem__)


@dataclass(frozen=True)
class SampleSeries:
    """Cell means of an unknown signal on the log-grid of mesh 1/w.

    ``means[k]`` is w * integral_{k/w}^{(k+1)/w} f(e^u) du, finite; the
    mapping must hold every integer k of the non-empty integer range k_range.
    """

    w: float
    means: Mapping[int, float]
    k_range: tuple[int, int]

    def __post_init__(self) -> None:
        _check_rate(self.w)
        k_min, k_max = self.k_range
        if not (isinstance(k_min, int) and isinstance(k_max, int)):
            raise ValueError(f"sample series k_range must be two integers, got {self.k_range!r}")
        if k_min > k_max:
            raise ValueError(f"sample series k_range {self.k_range!r} is empty")
        if not all(map(math.isfinite, self.means.values())):
            k = min(k for k, v in self.means.items() if not math.isfinite(v))
            raise ValueError(f"sample series mean at k={k} is not finite: {self.means[k]!r}")
        inside = [k for k in self.means if isinstance(k, int) and k_min <= k <= k_max]
        if len(inside) == k_max - k_min + 1:  # distinct integers, as many as the range
            return
        # name the gaps by walking the stored indices, not the span: a file
        # of two rows may name cells 10^12 apart; each gap adds at most 8
        missing: list[int] = []
        expected = k_min
        for k in sorted(inside) + [k_max + 1]:
            missing += range(expected, min(k, expected + 8))
            expected = k + 1
        raise ValueError(f"sample series has gaps at k={missing[:8]}")

    @classmethod
    def from_function(
        cls, f: TestFunction, w: float, k_min: int, k_max: int, quad_nodes: int = 7
    ) -> "SampleSeries":
        """The cell means of f for k from k_min to k_max, computed block by
        block and equal, bit for bit, to ``cell_mean``'s."""
        return cls(w=w, means=_cell_means(f, w, k_min, k_max, quad_nodes), k_range=(k_min, k_max))

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


def apply_grid(
    f: TestFunction, kernel: Kernel, cfg: OperatorConfig, xs: Sequence[float]
) -> list[float]:
    """[(I_w f)(x) for x in xs], with one cell-mean cache shared by the points."""
    if len(xs) == 0:
        raise ValueError("empty evaluation grid")
    mean = _CellMeans(f, cfg).__getitem__
    return [_apply_with_cache(kernel, cfg.w, x, mean) for x in xs]


# ---------------------------------------------------------------------------
# Sample-series CSV: first line "# w=<value>", then header "k,mean".

def write_sample_csv(dest: str | io.TextIOBase, series: SampleSeries) -> None:
    """Means are written with shortest round-trip precision so that a
    read-back series reproduces the operator to full accuracy."""
    if isinstance(dest, str):
        with open(dest, "w", newline="") as fh:
            write_sample_csv(fh, series)
        return
    means = series.means
    k_min, k_max = series.k_range
    dest.write(f"# w={series.w!r}\nk,mean\n")
    dest.write("".join([f"{k},{means[k]!r}\n" for k in range(k_min, k_max + 1)]))


def read_sample_csv(src: str | io.TextIOBase) -> SampleSeries:
    if isinstance(src, str):
        with open(src, "r", newline="") as fh:
            try:
                return read_sample_csv(fh)
            except UnicodeDecodeError as exc:
                raise SampleFormatError(f"cannot decode sample file {src!r}: {exc}") from None
    first = src.readline().strip()
    if not first.startswith("# w="):
        raise SampleFormatError(f"line 1: expected '# w=<value>' sidecar, got {first!r}")
    try:
        w = float(first[4:])
    except ValueError:
        raise SampleFormatError(f"line 1: bad rate value {first[4:]!r}") from None
    if not (w > 0.0 and math.isfinite(w)):
        raise SampleFormatError(f"line 1: rate must be positive and finite, got {first[4:]!r}")
    text = src.read()
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    try:  # in bulk; on any fault, the row reader below meets it first and names its line
        header, means, count = next(reader, None), {}, 0
        for count, (k, v) in enumerate(filter(None, reader), 1):
            means[int(k)] = float(v)
        if header == ["k", "mean"] and len(means) == count:  # with no rows, min() raises
            return SampleSeries(w=w, means=means, k_range=(min(means), max(means)))
    except (csv.Error, ValueError):
        pass
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    try:  # csv's own faults, such as a field over its size limit, too
        header = next(reader, None)
        if header != ["k", "mean"]:
            raise SampleFormatError(f"line 2: expected header 'k,mean', got {header!r}")
        means = {}
        for row in reader:
            if not row:
                continue
            lineno = reader.line_num + 1  # the sidecar line was read before the reader
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
    except csv.Error as exc:
        raise SampleFormatError(f"line {reader.line_num + 1}: {exc}") from None
    if not means:
        raise SampleFormatError("sample file contains no rows after the header on line 2")
    return SampleSeries(w=w, means=means, k_range=(min(means), max(means)))
