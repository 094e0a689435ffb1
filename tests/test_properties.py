"""Property tests over random inputs (needs hypothesis; skipped without it).

Runs are derandomized and keep no example database, so the suite gives the
same result on every run; each property tries at most 100 examples.
"""

import contextlib
import csv
import io
import math
import re
import signal
import struct
import tempfile
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, event, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from expsamp.cli import _EVAL_CSV_ROW, _EVAL_TEXT_ROW, _XY_CSV_ROW, _fmt, main  # noqa: E402
from expsamp.functions import get_function  # noqa: E402
from expsamp.kernels import parse_kernel_spec  # noqa: E402
from expsamp.moments import algebraic_moment_at_log  # noqa: E402
from expsamp.operators import (  # noqa: E402
    OperatorConfig,
    _apply_with_cache,
    _dot,
    SampleFormatError,
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


def read_row_by_row(src):
    """The sample reader written row by row: csv.reader, then per row a
    field count, int, float, a finiteness test and a duplicate test; csv's
    own faults are named with their line.  The oracle that read_sample_csv,
    which parses plain texts in bulk, must equal."""
    first = src.readline().strip()
    if not first.startswith("# w="):
        raise SampleFormatError(f"line 1: expected '# w=<value>' sidecar, got {first!r}")
    try:
        w = float(first[4:])
    except ValueError:
        raise SampleFormatError(f"line 1: bad rate value {first[4:]!r}") from None
    if not (w > 0.0 and math.isfinite(w)):
        raise SampleFormatError(f"line 1: rate must be positive and finite, got {first[4:]!r}")
    reader = csv.reader(src)
    try:
        header = next(reader, None)
        if header != ["k", "mean"]:
            raise SampleFormatError(f"line 2: expected header 'k,mean', got {header!r}")
        means = {}
        for row in reader:
            if not row:
                continue
            lineno = reader.line_num + 1
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


BAD_MEANS = ["nan", "inf", "-inf", "1e400", "-0.0", " 2.5", "1_0.5", "abc", "", "\x00"]
FAULTS = ["header", "repeat", "skip", "one-field", "three-fields", "mean", "cr", "long",
          "quote", "quoted-line-break"]


@st.composite
def sample_texts(draw, fault):
    """Sample files as they come: LF, CRLF, lone-CR or mixed line ends, blank
    lines, a final newline or none, k written like 1_000, and one of the
    FAULTS, or none: a bad header, a repeated or skipped k, a row of 1 or 3
    fields, a bad, non-finite or NUL mean, a CR inside a row, a field over
    csv's size limit, or a quoted k, which may hold a line break."""
    style = draw(st.sampled_from(["\n", "\n", "\r\n", "\r", "mixed"]))
    rows = draw(st.integers(min_value=0, max_value=6))
    at = draw(st.integers(min_value=0, max_value=max(rows - 1, 0)))
    k = draw(st.sampled_from([-3, 0, 998]))
    header = draw(st.sampled_from(["k,mean,", "", '"k",mean'])) if fault == "header" else "k,mean"
    lines = ["# w=4.0", header]
    for i in range(rows):
        here = fault if i == at else None
        k += {"repeat": 0, "skip": 2}.get(here, 1)
        fields = [draw(st.sampled_from([str(k)] * 3 + [f"{k:_}"])),
                  draw(st.floats(allow_nan=False, allow_infinity=False).map(repr))]
        if here == "mean":
            fields[1] = draw(st.sampled_from(BAD_MEANS))
        elif here == "cr":  # a line end to csv, not to split("\n")
            fields[0] += "\r"
        elif here == "long":  # csv refuses it, float() would not
            fields[1] = "0." + "1" * csv.field_size_limit()
        elif here == "quote":
            fields[0] = f'"{fields[0]}"'
        elif here == "quoted-line-break":
            fields[0] = f'"{fields[0]}\n"'
        fields = {"one-field": fields[:1], "three-fields": fields + fields[1:]}.get(here, fields)
        lines += [""] * draw(st.sampled_from([0] * 4 + [1, 2])) + [",".join(fields)]
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) if style == "mixed" else style
            for _ in lines]
    if not draw(st.booleans()):
        ends[-1] = ""  # no final line end
    return "".join(map(str.__add__, lines, ends))


def _outcome(read, text):
    """The series read from text, as a file opened with newline="" gives it,
    with its means in order and -0.0 told from 0.0; or the exception class
    and message."""
    try:
        series = read(io.StringIO(text, newline=""))
    except Exception as exc:
        return type(exc), str(exc)
    return series, [(k, repr(m)) for k, m in series.means.items()]


@pytest.mark.parametrize("fault", [None] + FAULTS)
@settings(SETTINGS, max_examples=30)  # per fault: 330 texts in all
@given(data=st.data())
def test_bulk_reader_equals_the_row_reader(fault, data):
    """read_sample_csv gives, for every text, the series or the exception
    class and message of the row-by-row reader it replaced."""
    text = data.draw(sample_texts(fault))
    want = _outcome(read_row_by_row, text)
    event("series" if isinstance(want[0], SampleSeries) else want[0].__name__)
    assert _outcome(read_sample_csv, text) == want


def _fsum_of_products(a, b):
    """math.fsum(map(mul, a, b)), or inf where it raises."""
    try:
        return math.fsum(map(mul, a, b))
    except (OverflowError, ValueError):
        return math.inf


@SETTINGS
@given(
    a=st.lists(st.floats(min_value=-1e3, max_value=1e3), max_size=8),
    b=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8),
)
def test_dot_is_fsum_where_finite(a, b):
    """A weight or coefficient times any finite float: bit for bit math.fsum
    of the products wherever that is finite."""
    want = _fsum_of_products(a, b)
    assume(math.isfinite(want))
    assert _dot(a, b).hex() == want.hex()


# Factors whose products are exact and, scaled by 2^-64, normal and finite:
# a below 2^40 in size, b with a 26-bit significand and an exponent of
# -440..997, half of them drawn from the top 13.
weight_factors = st.builds(math.ldexp, st.integers(-2 ** 20, 2 ** 20), st.integers(-20, 20))
value_factors = st.builds(
    math.ldexp,
    st.integers(-2 ** 26, 2 ** 26),
    st.one_of(st.integers(985, 997), st.integers(-440, 997)),
)


@SETTINGS
@given(
    pairs=st.lists(st.tuples(weight_factors, value_factors), min_size=1, max_size=6),
    mirrored=st.booleans(),
    last=st.tuples(weight_factors, value_factors),
)
def test_dot_past_the_range_is_correctly_rounded(pairs, mirrored, last):
    """Where fsum raises or gives inf, the correctly rounded exact sum of the
    products, or inf where that is beyond the float range.  A mirrored draw
    adds each product's negative and then one more product, so that partial
    sums pass the range while the sum is the last product."""
    if mirrored:
        pairs = pairs + [(x, -y) for x, y in pairs] + [last]
    a, b = (list(factors) for factors in zip(*pairs))
    assume(not math.isfinite(_fsum_of_products(a, b)))
    try:
        want = float(sum(Fraction(x) * Fraction(y) for x, y in pairs))
    except OverflowError:
        want = math.inf
    event("finite" if math.isfinite(want) else "past the range")
    assert _dot(a, b) == want


# cell means of any size up to the float range, its ends drawn often
huge_means = st.one_of(
    st.floats(min_value=-1.7e308, max_value=1.7e308),
    st.sampled_from([1.7e308, -1.7e308, 8.9e307, -8.9e307]),
)


@SETTINGS
@given(  # and combos whose coefficients differ in sign, where terms pass the range most
    spec=st.one_of(kernel_specs(), st.sampled_from(["combo:2:e^1:e^2", "combo:1:e^-1:e^-5/3"])),
    w=log_uniform(0.5, 200.0),
    x=log_uniform(0.05, 20.0),
    data=st.data(),
)
def test_operator_sum_is_dot_of_its_nonzero_terms(spec, w, x, data):
    """Wherever ``_dot`` of the window's nonzero weights and their means is
    finite, the operator sum equals it bit for bit, fast path or not; where
    it is not, the sum is refused as overflowing."""
    kernel = parse_kernel_spec(spec)
    wt = w * math.log(x)
    means = {k: data.draw(huge_means) for k in kernel.window(wt)}
    mode = data.draw(st.sampled_from(["independent", "constant", "one sign", "largest, one sign"]))
    if mode == "constant":  # a combo's terms pass the range, their sum, the constant, does not
        means = dict.fromkeys(means, data.draw(st.sampled_from([1.7e308, -1.7e308, 1e308])))
    elif mode != "independent":  # every term of one sign: a combo's sum may pass the range
        means = {k: math.copysign(1.7e308 if mode.startswith("largest") else m,
                                  kernel.eval_log(wt - k)) for k, m in means.items()}
    nonzero = [k for k in kernel.window(wt) if kernel.eval_log(wt - k) != 0.0]
    weights, terms = [kernel.eval_log(wt - k) for k in nonzero], [means[k] for k in nonzero]
    want = _dot(weights, terms)
    if math.isfinite(want):
        event("finite" if math.isfinite(_fsum_of_products(weights, terms)) else "finite, rescaled")
        assert _apply_with_cache(kernel, w, x, means.__getitem__).hex() == want.hex()
    else:
        event("refused")
        with pytest.raises(ValueError, match=r"the operator sum at x=\S+ overflows the float range"):
            _apply_with_cache(kernel, w, x, means.__getitem__)


# every float, each bit pattern as likely as any other: NaNs, infinities,
# -0.0 and subnormals included
any_float = st.one_of(
    st.floats(),
    st.integers(0, 2 ** 64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
)


@SETTINGS
@given(x=any_float, v=any_float, fx=any_float, e=any_float)
@example(x=math.nan, v=-math.nan, fx=math.inf, e=-math.inf)
@example(x=-0.0, v=0.0, fx=2.0 ** -1074, e=-2.0 ** -1022)
@example(x=5e-324, v=-2.2250738585072014e-308, fx=1e16, e=123456789012.5)
def test_row_formats_equal_the_field_format(x, v, fx, e):
    """Each eval and reconstruct row, written with one format call, equals
    its fields written by ``_fmt`` one by one, text padding included."""
    assert _EVAL_CSV_ROW(x, v, fx, e) == ",".join(map(_fmt, (x, v, fx, e))) + "\n"
    assert _EVAL_TEXT_ROW(x, v, fx, e) == (
        f"x={_fmt(x):<16} approx={_fmt(v):<18} exact={_fmt(fx):<18} abs_error={_fmt(e)}\n")
    assert _XY_CSV_ROW(x, v) == f"{_fmt(x)},{_fmt(v)}\n"


@SETTINGS
@given(spec=kernel_specs(), ts=st.lists(st.floats(min_value=-8, max_value=8), max_size=5))
def test_kernel_spec_round_trip(spec, ts):
    """A kernel's label parses back to the same kernel."""
    kernel = parse_kernel_spec(spec)
    again = parse_kernel_spec(kernel.label)
    assert again.label == kernel.label
    assert (again.order, again.terms) == (kernel.order, kernel.terms)
    assert again.log_knots == kernel.log_knots
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
