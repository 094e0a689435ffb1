"""Property tests over random inputs (needs hypothesis; skipped without it).

Runs are derandomized and keep no example database, so the suite gives the
same result on every run; each property tries at most 100 examples.
"""

import contextlib
import io
import math
import re
import signal
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from expsamp.cli import main  # noqa: E402
from expsamp.functions import get_function  # noqa: E402
from expsamp.kernels import parse_kernel_spec  # noqa: E402
from expsamp.moments import algebraic_moment_at_log  # noqa: E402
from expsamp.operators import (  # noqa: E402
    OperatorConfig,
    SampleSeries,
    apply,
    read_sample_csv,
    write_sample_csv,
)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

exponents = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def kernel_specs(draw, min_order=1):
    """bspline:<n>, or combo:<n>:e^<a>:e^<b> with exact exponents a != b
    at least 1/2 apart (closer ones make the coefficients large)."""
    n = draw(st.integers(min_value=min_order, max_value=10))
    if draw(st.booleans()):
        return f"bspline:{n}"
    a = draw(exponents)
    b = draw(exponents.filter(lambda b: abs(b - a) >= Fraction(1, 2)))
    return f"combo:{n}:e^{a}:e^{b}"


def log_uniform(lo, hi):
    return st.floats(min_value=math.log10(lo), max_value=math.log10(hi)).map(lambda e: 10.0 ** e)


def coefficient_scale(spec):
    """|c1| + |c2| for a combo spec, 1 for a B-spline: the round-off scale
    of sums over the kernel."""
    if not spec.startswith("combo"):
        return 1.0
    _, _, a, b = spec.split(":")
    a, b = Fraction(a[2:]), Fraction(b[2:])
    return float((abs(b) + abs(a)) / abs(b - a))


@SETTINGS
@given(spec=kernel_specs(), t=st.floats(min_value=-1e3, max_value=1e3))
def test_partition_of_unity(spec, t):
    """sum_k chi(t - k) = 1, i.e. m_0 = 1 at every log u."""
    m0 = algebraic_moment_at_log(parse_kernel_spec(spec), 0, t)
    assert abs(m0 - 1.0) <= 1e-12 * coefficient_scale(spec)


@SETTINGS
@given(
    spec=kernel_specs(),
    c=st.floats(min_value=-1e6, max_value=1e6),
    w=log_uniform(0.5, 1e4),
    x=log_uniform(1e-2, 1e2),
)
def test_constant_reproduction(spec, c, w, x):
    value = apply(get_function(f"const:{c!r}"), parse_kernel_spec(spec), OperatorConfig(w=w), x)
    assert abs(value - c) <= 1e-12 * coefficient_scale(spec) * max(abs(c), 1.0)


@SETTINGS
@given(spec=kernel_specs(min_order=2), w=log_uniform(0.5, 1e4), x=log_uniform(1e-2, 1e2))
def test_log_error_is_half_a_cell(spec, w, x):
    """(I_w log)(x) - log x = (m_0/2 + m_1)/w = 1/(2w): the cell mean of u
    is the cell midpoint, and m_1 = 0 for these kernels."""
    value = apply(get_function("log"), parse_kernel_spec(spec), OperatorConfig(w=w), x)
    scale = coefficient_scale(spec) * (1.0 + abs(math.log(x)))
    assert abs(value - math.log(x) - 0.5 / w) <= 1e-12 * scale


@SETTINGS
@given(
    w=st.floats(min_value=1e-300, max_value=1e300),
    k0=st.integers(min_value=-10**6, max_value=10**6),
    means=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20),
)
def test_sample_csv_round_trip(w, k0, means):
    series = SampleSeries(
        w=w, means={k0 + i: m for i, m in enumerate(means)}, k_range=(k0, k0 + len(means) - 1)
    )
    buf = io.StringIO()
    write_sample_csv(buf, series)
    buf.seek(0)
    assert read_sample_csv(buf) == series


@SETTINGS
@given(spec=kernel_specs(), ts=st.lists(st.floats(min_value=-8, max_value=8), max_size=5))
def test_kernel_spec_round_trip(spec, ts):
    """A kernel's label parses back to the same kernel."""
    kernel = parse_kernel_spec(spec)
    again = parse_kernel_spec(kernel.label)
    assert again.label == kernel.label
    assert again.log_knots == kernel.log_knots
    assert again.piece_degree == kernel.piece_degree
    assert [again.eval_log(t) for t in ts] == [kernel.eval_log(t) for t in ts]


SPECIAL = ["inf", "-inf", "nan", "0", "-1", "5e-324", "1e-308", "1e308"]
numbers = st.one_of(
    log_uniform(1e-12, 1e12).map(repr),
    st.sampled_from(SPECIAL),
)
NON_FINITE = re.compile(r"\b(-?inf|nan|-?Infinity|NaN)\b")


@st.composite
def fuzz_kernels(draw):
    """A spec of ``kernel_specs()``, or a combo with one translate factor
    e^q, |q| up to 1e300, far beyond what a sum over the support can walk."""
    if draw(st.booleans()):
        return draw(kernel_specs())
    n = draw(st.integers(min_value=1, max_value=10))
    q = draw(st.one_of(st.integers(min_value=-3000, max_value=3000),
                       st.floats(min_value=-1e300, max_value=1e300)))
    return f"combo:{n}:e^{q!r}:e^{draw(exponents)}"


COMMANDS = ["eval", "table", "bounds", "voronovskaya", "converge",
            "kernel-info", "moments", "reconstruct"]


@st.composite
def command_lines(draw):
    """(argv, text of the sample file that replaces SAMPLES in argv, or None)."""
    command = draw(st.sampled_from(COMMANDS))
    argv = [command, "--kernel", draw(fuzz_kernels())]
    if command in ("kernel-info", "moments"):
        argv += ["--nu-max", str(draw(st.integers(min_value=-1, max_value=9)))]
        if command == "moments":
            argv += ["--u", draw(numbers)]
        return argv, None
    if command == "reconstruct":
        w = draw(st.one_of(log_uniform(0.5, 100), numbers.map(float)))
        k0 = draw(st.integers(min_value=-100, max_value=100))
        means = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                              min_size=12, max_size=40))
        rows = "".join(f"{k0 + i},{m!r}\n" for i, m in enumerate(means))
        # a point at the middle of the series, where it may cover the window
        middle = repr(math.exp((k0 + len(means) / 2) / w)) if 0.5 <= w < math.inf else "1"
        x = draw(st.one_of(st.just(middle), numbers))
        return argv + ["--samples", "SAMPLES", "--x", x], f"# w={w!r}\nk,mean\n{rows}"
    fn = draw(st.sampled_from(["log", "log2", "log3", "cos4exp", "sinmix", "const:2", "const:1e308"]))
    argv += ["--fn", fn]
    if command in ("eval", "table", "bounds"):
        argv += ["--w", draw(numbers), "--x", draw(numbers)]
    if command == "table":
        argv += ["--p", str(draw(st.integers(min_value=1, max_value=3)))]
    if command == "bounds":
        argv += ["--check", draw(st.sampled_from(["first", "combo", "moment"]))]
    if command in ("voronovskaya", "converge"):
        w = draw(numbers)
        rates = [w] + [repr(float(w) * 2 ** i) for i in range(1, 5)]
        argv += ["--w-list", ",".join(rates if command == "converge" else rates[:4])]
        argv += ["--grid-points", "21"] if command == "converge" else ["--x", draw(numbers)]
        if draw(st.booleans()):
            argv += ["--p", "2"]
    return argv, None


# Wall-clock limit of one CLI call; the slowest drawn calls take under a
# second, a translate factor that was never capped ran without end.
WALL_LIMIT_S = 20


class WallLimitExceeded(BaseException):
    """Raised by SIGALRM; a BaseException, so that no handler in main takes it."""


def _on_alarm(signum, frame):
    raise WallLimitExceeded(f"a CLI call ran past {WALL_LIMIT_S} s")


@SETTINGS
@given(case=command_lines())
def test_cli_never_escapes(case):
    """Any kernel, finite, non-finite, tiny or huge x, w and u, and any
    sample file: exit 0 with finite output, or exit 1 or 2 with a message
    and no output; never a traceback, and never past the wall limit."""
    argv, samples = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if samples is not None:
            path = Path(tmp) / "samples.csv"
            path.write_text(samples)
            argv = [str(path) if a == "SAMPLES" else a for a in argv]
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(WALL_LIMIT_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    out, err = out.getvalue(), err.getvalue()
    event(f"{argv[0]} exit {code}")
    if code == 0:
        assert err == "" and out
        assert not NON_FINITE.search(out), out
    else:
        assert code in (1, 2)
        assert out == ""
        assert err.startswith("expsamp: ")
