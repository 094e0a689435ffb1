"""Output checks for benchmark jobs.

Each check takes a job and its outcome and returns a list of problems; an
empty list means the output is right.  Values are compared against the
independent numpy reference in reference.py, against the paper's
published table cells, against exact identities of the operator, and,
for moments, against the frequency-side route of the library
(``poisson_moment`` and the transform derivatives), which shares no code
with the direct sums it checks.

Tolerances: CLI tables print 12 significant digits, so printed values are
held to 6e-12 relative (half a unit in the 12th digit plus slack) around
the reference; JSON carries full precision and is held to 1e-12 absolute
on operator errors.  The identities are checked to 1e-12 and moments to
1e-10, as in the acceptance criteria.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import expsamp
import reference as ref
from workloads import Job, Outcome

__all__ = ["CheckContext", "check", "tolerated", "allowed_order"]

PRINT_REL = 6e-12  # 12 significant digits
PRINT_ABS = 1e-13
JSON_ABS = 1e-12
IDENTITY_TOL = 1e-12
MOMENT_TOL = 1e-10
SUP_REL = 1e-9
PUBLISHED_TOL = 2e-3
ORDER_TOL_SINGLE = 0.15  # criterion 6's tolerances
ORDER_TOL_COMBO = 0.2
# A known defect of the program, named in every report but not counted
# against a run's ``correct``: the order-2 vanishing-moment estimate
# (``bounds --check moment --r 2``) for bspline:3 is exceeded at phases
# t = w log x where m_3(t) > 1/24.  For f = log^3 the remainder is
# (m_3(t) + 5/8) / w^3 against the estimate's 2 / (3 w^3), so it reaches
# 1.0097 times the estimate (max m_3 = 0.0481).  A larger excess, or an
# excess of any other estimate, is a plain failure.
KNOWN_DEFECT = "known defect: "
KNOWN_BOUND = ("moment", "bspline:3", "vanishing_moment:r=2")
KNOWN_BOUND_EXCESS = 1.0125

PUBLISHED = {
    ("bspline:2", "cos4exp", "15", "3"): {
        0.60: (0.1422, 0.0664, 0.0424, 0.0039),
        0.75: (0.1474, 0.0807, 0.0561, 0.0033),
        0.80: (0.0613, 0.0462, 0.0359, 0.0070),
        0.90: (0.2182, 0.0800, 0.0499, 0.0136),
        0.95: (0.3230, 0.1520, 0.0963, 0.0129),
    },
    ("bspline:4", "sinmix", "30", "2"): {
        1.9: (0.0880, 0.0385, 0.0110),
        2.6: (0.2217, 0.1325, 0.0434),
        3.1: (0.2037, 0.1258, 0.0479),
        3.8: (0.4948, 0.2071, 0.0806),
    },
}


@dataclass
class CheckContext:
    """State shared by the checks of one job list: reference sups are
    cached per kernel, and eval jobs that emit a sample file leave their
    printed values for the reconstruct job that reads the file."""

    sups: dict = field(default_factory=dict)
    emitted: dict = field(default_factory=dict)

    def sup(self, spec: str, nu: int) -> float:
        key = (spec, nu)
        if key not in self.sups:
            self.sups[key] = ref.absolute_moment_sup(ref.RefKernel(spec), nu)
        return self.sups[key]


def _opts(argv) -> dict:
    return dict(zip(argv[1::2], argv[2::2]))


def _close(got: float, want: float, rel: float, abs_: float) -> bool:
    return abs(got - want) <= rel * abs(want) + abs_


def _printed(name: str, got, want, problems: list) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        problems.append(f"{name}: {got.size} values, expected {want.size}")
        return
    bad = np.abs(got - want) > PRINT_REL * np.abs(want) + PRINT_ABS
    if bad.any():
        i = int(np.argmax(bad))
        problems.append(f"{name}[{i}] = {got[i]!r}, reference {want[i]!r}")


def _full(name: str, got, want, tol: float, problems: list) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        problems.append(f"{name}: {got.size} values, expected {want.size}")
        return
    bad = ~(np.abs(got - want) <= tol)
    if bad.any():
        i = int(np.argmax(bad))
        problems.append(f"{name}[{i}] = {got[i]!r}, reference {want[i]!r}")


def _order(spec: str) -> int:
    return int(spec.split(":")[1])


def _rates(text: str) -> list[float]:
    return [float(t) for t in text.split(",")]


# ---------------------------------------------------------------------------
# operator outputs


def _grid_rows(out: str, fmt: str) -> dict:
    """Columns of eval output, csv or text."""
    if fmt == "text":
        lines = out.splitlines()[1:]
        rows = [dict(re.findall(r"(\w+)=(\S+)", line)) for line in lines]
    else:
        rows = list(csv.DictReader(io.StringIO(out)))
    return {key: [float(r[key]) for r in rows] for key in ("x", "approx", "exact", "abs_error")}


def _check_eval(job: Job, o: Outcome, ctx: CheckContext) -> list:
    opts = _opts(job.argv)
    problems: list = []
    cols = _grid_rows(o.out, opts.get("--format", "csv"))
    spec, fn, w = opts["--kernel"], opts["--fn"], float(opts["--w"])
    nodes = int(opts.get("--quad-nodes", 7))
    kernel = ref.RefKernel(spec)
    xs = ref.x_values(opts["--x"])
    approx = ref.operator(kernel, fn, w, xs, nodes)
    exact = ref.function(fn)(xs)
    _printed("x", cols["x"], xs, problems)
    _printed("approx", cols["approx"], approx, problems)
    _printed("exact", cols["exact"], exact, problems)
    _printed("abs_error", cols["abs_error"], np.abs(approx - exact), problems)
    if problems:
        return problems
    if fn.startswith("const:"):
        c = float(fn.split(":", 1)[1])
        worst = max(abs(a - c) for a in cols["approx"])
        if worst > IDENTITY_TOL or max(cols["abs_error"]) > IDENTITY_TOL:
            problems.append(f"constant {c} not reproduced: off by {worst:.3e}")
    if fn == "log" and (spec.startswith("combo") or _order(spec) >= 2):
        worst = max(abs(e - 0.5 / w) for e in cols["abs_error"])
        if worst > IDENTITY_TOL:
            problems.append(f"(I_w log)(x) - log x differs from 1/(2w) by {worst:.3e}")
    if "--emit-samples" in opts:
        problems += _check_sample_file(opts, kernel, fn, w, nodes, xs)
        ctx.emitted[opts["--emit-samples"]] = (fn, w, nodes, cols["approx"])
    return problems


def _read_samples(path: str) -> tuple[float, np.ndarray, np.ndarray]:
    lines = Path(path).read_text().splitlines()
    if not lines[0].startswith("# w=") or lines[1] != "k,mean":
        raise ValueError(f"bad sample file header {lines[:2]!r}")
    rows = [line.split(",") for line in lines[2:] if line]
    ks = np.array([int(k) for k, _ in rows])
    return float(lines[0][4:]), ks, np.array([float(m) for _, m in rows])


def _check_sample_file(opts, kernel, fn, w, nodes, xs) -> list:
    try:
        file_w, ks, means = _read_samples(opts["--emit-samples"])
    except (OSError, ValueError, IndexError) as exc:
        return [f"emitted sample file unreadable: {exc}"]
    problems = []
    if file_w != w:
        problems.append(f"sample file rate {file_w!r}, expected {w!r}")
    if not np.array_equal(ks, np.arange(ks[0], ks[0] + len(ks))):
        problems.append("sample file cell indices are not dense and sorted")
        return problems
    a, b = kernel.support
    need_lo = math.ceil(w * math.log(xs.min()) - b)
    need_hi = math.floor(w * math.log(xs.max()) - a)
    if ks[0] > need_lo or ks[-1] < need_hi:
        problems.append(f"sample file covers k in [{ks[0]}, {ks[-1]}], needs [{need_lo}, {need_hi}]")
    _full("sample mean", means, ref.cell_means(ref.function(fn), w, ks, nodes),
          1e-13 * (1.0 + np.abs(means)), problems)
    return problems


def _check_reconstruct(job: Job, o: Outcome, ctx: CheckContext) -> list:
    opts = _opts(job.argv)
    rows = list(csv.DictReader(io.StringIO(o.out)))
    got = [float(r["approx"]) for r in rows]
    xs = ref.x_values(opts["--x"])
    problems: list = []
    _printed("x", [float(r["x"]) for r in rows], xs, problems)
    emitted = ctx.emitted.get(opts["--samples"])
    if emitted is None:
        return problems + [f"no eval job emitted {opts['--samples']}"]
    fn, w, nodes, direct_printed = emitted
    kernel = ref.RefKernel(opts["--kernel"])
    file_w, ks, means = _read_samples(opts["--samples"])
    from_file = ref.series_from_samples(kernel, file_w, ks, means, xs)
    direct = ref.operator(kernel, fn, w, xs, nodes)
    # The emitted means may differ from the reference's by rounding, which
    # reaches 1e-14 where f(e^u) is steep; the weights sum to 1, so the two
    # series agree to the tolerance of the sample means.
    _full("reference from samples", from_file, direct, 1e-13 * (1.0 + np.abs(direct)), problems)
    # criterion 9, on the program: its series from the file reproduces its
    # own direct evaluation to 1e-14, in full precision
    own_kernel = expsamp.parse_kernel_spec(opts["--kernel"])
    series = expsamp.read_sample_csv(opts["--samples"])
    cfg = expsamp.OperatorConfig(w, quad_nodes=nodes)
    f = expsamp.get_function(fn)
    _full("samples vs direct", [expsamp.apply_from_samples(series, own_kernel, x) for x in xs],
          [expsamp.apply(f, own_kernel, cfg, x) for x in xs], 1e-14, problems)
    _printed("approx", got, from_file, problems)
    # same value as the eval job printed, to the 12 printed digits
    _printed("approx vs eval", got, direct_printed, problems)
    return problems


def _sup_errors(spec: str, fn: str, p: Optional[int], rates, xs, nodes) -> np.ndarray:
    kernel = ref.RefKernel(spec)
    coeffs = ref.combination_coefficients(p or 1)
    fx = ref.function(fn)(xs)
    return np.array([
        np.max(np.abs(ref.combination(kernel, fn, coeffs, w, xs, nodes) - fx)) for w in rates
    ])


def allowed_order(spec: str, p: Optional[int], fn: str) -> float:
    """Sup-norm order the moment theory allows.

    Bracket i of the expansion involves m_0..m_i, and m_nu of an order-n
    kernel is constant in u exactly when nu < n (its transform has zeros
    of order n at 2 pi m).  A combination of size p cancels every constant
    bracket below p, so the first surviving term is i = min(p, n).  When f
    is a polynomial of degree d < i in log x, theta^i f = 0 and the
    operator is exact.
    """
    q = min(p or 1, _order(spec))
    return math.inf if q > ref.log_degree(fn) else q


def _check_coefficients(payload: dict, p: Optional[int], problems: list) -> None:
    combo = payload.get("combination")
    if p is None:
        if combo is not None:
            problems.append("combination reported without --p")
        return
    want = [str(c) for c in ref.combination_coefficients(p)]
    if combo is None or combo["coefficients"] != want:
        problems.append(f"coefficients {combo and combo['coefficients']}, expected {want}")


def _check_converge(job: Job, o: Outcome, ctx: CheckContext) -> list:
    opts = _opts(job.argv)
    payload = json.loads(o.out)
    problems: list = []
    spec, fn = opts["--kernel"], opts["--fn"]
    p = int(opts["--p"]) if "--p" in opts else None
    rates = _rates(opts["--w-list"])
    if payload["w_list"] != rates:
        problems.append(f"w_list {payload['w_list']}, expected {rates}")
    lo, hi = (0.5, 3.0) if fn.startswith("const") else ref.EVAL_INTERVAL[fn]
    xs = np.linspace(lo, hi, int(opts.get("--grid-points", 201)))
    want = _sup_errors(spec, fn, p, rates, xs, int(opts.get("--quad-nodes", 7)))
    _full("errors", payload["errors"], want, JSON_ABS, problems)
    order = allowed_order(spec, p, fn)
    if math.isinf(order):
        if not payload["infinite_order"] or payload["fitted_order"] is not None:
            problems.append(f"exact reproduction expected, got order {payload['fitted_order']}")
    else:
        tol = ORDER_TOL_SINGLE if p is None else ORDER_TOL_COMBO
        got = payload["fitted_order"]
        if payload["infinite_order"] or got is None or abs(got - order) > tol:
            problems.append(f"fitted order {got}, moment theory allows {order} +/- {tol}")
    _check_coefficients(payload, p, problems)
    return problems


def _check_voronovskaya(job: Job, o: Outcome, ctx: CheckContext) -> list:
    opts = _opts(job.argv)
    payload = json.loads(o.out)
    problems: list = []
    spec, fn, x = opts["--kernel"], opts["--fn"], float(opts["--x"])
    p = int(opts["--p"]) if "--p" in opts else None
    q = p or 1
    rates = np.array(_rates(opts["--w-list"]))
    kernel = ref.RefKernel(spec)
    coeffs = ref.combination_coefficients(q)
    nodes = int(opts.get("--quad-nodes", 7))
    fx = ref.function(fn)(np.array([x]))[0]
    diff = np.array([ref.combination(kernel, fn, coeffs, w, [x], nodes)[0] - fx for w in rates])
    _full("errors", payload["errors"], np.abs(diff), JSON_ABS, problems)
    _full("scaled_errors", payload["scaled_errors"], rates ** q * diff, JSON_ABS * rates ** q, problems)
    if p is None:
        m1 = ref.moment_sums(kernel, 1, math.log(x))[0]
        want = 0.5 * ref.THETA1[fn](np.array([x]))[0] * (1.0 + 2.0 * m1)
        if not _close(payload["predicted_limit"], want, 1e-12, 1e-12):
            problems.append(f"predicted_limit {payload['predicted_limit']!r}, expected {want!r}")
    if fn == "log":
        if p is None and max(abs(s - 0.5) for s in payload["scaled_errors"]) > IDENTITY_TOL * rates[-1]:
            problems.append("w (I_w log - log) is not 1/2")
        if p == 2 and max(payload["errors"]) > IDENTITY_TOL:
            problems.append(f"p=2 combination not exact on log: {max(payload['errors']):.3e}")
    _check_coefficients(payload, p, problems)
    return problems


def _table_cells(out: str) -> tuple[list, list, list]:
    rows = list(csv.reader(io.StringIO(out)))
    return rows[0], [float(r[0]) for r in rows[1:]], [[float(v) for v in r[1:]] for r in rows[1:]]


def _check_table(job: Job, o: Outcome, ctx: CheckContext) -> list:
    opts = _opts(job.argv)
    header, xs_out, cells = _table_cells(o.out)
    problems: list = []
    spec, fn, w, p = opts["--kernel"], opts["--fn"], float(opts["--w"]), int(opts["--p"])
    xs = ref.x_values(opts["--x"])
    labels = [f"abs_err_w{i * w:g}" for i in range(1, p + 1)] + [f"abs_err_combo_p{p}"]
    if header != ["x"] + labels:
        problems.append(f"header {header}, expected {['x'] + labels}")
    _printed("x", xs_out, xs, problems)
    kernel = ref.RefKernel(spec)
    nodes = int(opts.get("--quad-nodes", 7))
    fx = ref.function(fn)(xs)
    singles = [ref.operator(kernel, fn, i * w, xs, nodes) for i in range(1, p + 1)]
    combo = ref.combination(kernel, fn, ref.combination_coefficients(p), w, xs, nodes)
    want = np.abs(np.array(singles + [combo]).T - fx[:, None])
    _full("cells", cells, want, 0.5e-4 + 1e-9, problems)
    return problems


def _check_published_table(job: Job, o: Outcome, ctx: CheckContext) -> list:
    problems = _check_table(job, o, ctx)
    opts = _opts(job.argv)
    published = PUBLISHED[(opts["--kernel"], opts["--fn"], opts["--w"], opts["--p"])]
    _, xs_out, cells = _table_cells(o.out)
    for x, row in zip(xs_out, cells):
        want = published[round(x, 2)]
        if any(abs(a - b) > PUBLISHED_TOL for a, b in zip(row, want)):
            problems.append(f"row x={x}: {row} vs published {list(want)}")
    return problems


# ---------------------------------------------------------------------------
# moments and bounds


def _frequency_side_independent(kernel, nu: int) -> bool:
    """m_nu is constant in u iff the transform's nu-th derivative vanishes
    at every nonzero multiple of 2 pi (Poisson summation)."""
    return all(
        abs(kernel.mellin_transform_derivs(nu, 2.0 * math.pi * m)) < 1e-12
        for m in (-3, -2, -1, 1, 2, 3)
    )


def _check_moment_rows(spec: str, u: float, rows: list, nu_max: int, ctx: CheckContext, rel: float) -> list:
    """rows: (order, algebraic at u, sup of M_nu, u_independent)."""
    if [r[0] for r in rows] != list(range(nu_max + 1)):
        return [f"moment orders {[r[0] for r in rows]}, expected 0..{nu_max}"]
    problems = []
    kernel = expsamp.parse_kernel_spec(spec)
    rk = ref.RefKernel(spec)
    for nu, alg, sup, independent in rows:
        direct = ref.moment_sums(rk, nu, math.log(u))[0]
        if not _close(alg, direct, rel, MOMENT_TOL):
            problems.append(f"m_{nu}({u}) = {alg!r}, direct reference {direct!r}")
        if nu < _order(spec):
            poisson = expsamp.poisson_moment(kernel, nu, u, 0)
            if not _close(alg, poisson, rel, MOMENT_TOL):
                problems.append(f"m_{nu}({u}) = {alg!r}, frequency side {poisson!r}")
        want_sup = ctx.sup(spec, nu)
        if not _close(sup, want_sup, max(rel, SUP_REL), 0.0):
            problems.append(f"sup M_{nu} = {sup!r}, reference {want_sup!r}")
        if independent != _frequency_side_independent(kernel, nu):
            problems.append(f"u_independent={independent} for nu={nu} disagrees with the frequency side")
    return problems


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"bad flag {text!r}")
    return text == "true"


def _check_kernel_info(job: Job, o: Outcome, ctx: CheckContext) -> list:
    opts = _opts(job.argv)
    spec, nu_max = opts["--kernel"], int(opts.get("--nu-max", 3))
    problems = []
    if opts.get("--format", "text") == "json":
        payload = json.loads(o.out)
        label, support = payload["label"], payload["log_support"]
        rows = [(m["order"], m["algebraic"], m["absolute_sup"], m["u_independent"])
                for m in payload["moments"]]
        rel = 0.0
    else:
        lines = o.out.splitlines()
        label = lines[0].removeprefix("kernel: ")
        support = [float(v) for v in re.findall(r"[-+\d.e]+", lines[1].removeprefix("log_support: "))]
        rows = []
        for line in lines[3:]:
            nu, alg, sup, flag = line.split()
            rows.append((int(nu), float(alg), float(sup), _flag(flag)))
        rel = PRINT_REL
    if label != spec:
        problems.append(f"label {label!r}, expected {spec!r}")
    if not np.allclose(support, ref.RefKernel(spec).support, rtol=0.0, atol=1e-12):
        problems.append(f"log_support {support}, expected {ref.RefKernel(spec).support}")
    return problems + _check_moment_rows(spec, 1.0, rows, nu_max, ctx, rel)


def _check_moments(job: Job, o: Outcome, ctx: CheckContext) -> list:
    opts = _opts(job.argv)
    spec, nu_max, u = opts["--kernel"], int(opts.get("--nu-max", 4)), float(opts.get("--u", 1.0))
    fmt = opts.get("--format", "csv")
    rel = PRINT_REL
    if fmt == "json":
        payload = json.loads(o.out)
        rows = [(m["order"], m["algebraic"], m["absolute_sup"], m["u_independent"]) for m in payload]
        if any(m["at_u"] != u for m in payload):
            return [f"at_u differs from {u}"]
        rel = 0.0
    elif fmt == "csv":
        lines = o.out.splitlines()
        if lines[0] != "nu,m_nu,M_nu_sup,u_independent":
            return [f"csv header {lines[0]!r}"]
        rows = [(int(a), float(b), float(c), _flag(d)) for a, b, c, d in (l.split(",") for l in lines[1:])]
    else:
        lines = o.out.splitlines()
        rows = []
        for line in lines[1:]:
            fields = dict(re.findall(r"(\w+)=(\S+)", line.replace(":", " ")))
            rows.append((int(fields["nu"]), float(fields["m_nu"]), float(fields["M_nu_sup"]),
                         _flag(fields["u_independent"])))
    return _check_moment_rows(spec, u, rows, nu_max, ctx, rel)


BOUND_NAMES = {"first": "first_order", "moment": "vanishing_moment:r={r}", "combo": "combination:p={p}"}


def _check_bounds(job: Job, o: Outcome, ctx: CheckContext) -> list:
    opts = _opts(job.argv)
    payload = json.loads(o.out)
    check = opts.get("--check", "first")
    name = BOUND_NAMES[check].format(r=opts.get("--r", 2), p=opts.get("--p", 1))
    problems = []
    if payload["bound"] != name:
        problems.append(f"bound {payload['bound']!r}, expected {name!r}")
    lhs, rhs = payload["lhs"], payload["rhs"]
    if payload["satisfied"] is not (lhs <= rhs + 1e-12):
        problems.append(f"satisfied={payload['satisfied']} with lhs {lhs!r} and rhs {rhs!r}")
    if not (math.isfinite(lhs) and math.isfinite(rhs) and 0.0 <= lhs <= rhs + 1e-12):
        known = ((check, opts["--kernel"], payload["bound"]) == KNOWN_BOUND
                 and 0.0 <= lhs <= KNOWN_BOUND_EXCESS * rhs)
        problems.append(f"{KNOWN_DEFECT if known else ''}lhs {lhs!r} does not lie under rhs {rhs!r}")
    return problems


def _check_malformed(job: Job, o: Outcome, ctx: CheckContext) -> list:
    if o.exc is not None:
        return [f"{o.exc} escaped main"]
    problems = []
    if o.rc != 1:
        problems.append(f"exit code {o.rc}, expected 1")
    if o.out:
        problems.append(f"stdout not empty: {o.out[:80]!r}")
    if not o.err.strip():
        problems.append("no message on stderr")
    return problems


CHECKS = {
    "eval": _check_eval,
    "eval_emit": _check_eval,
    "reconstruct": _check_reconstruct,
    "converge": _check_converge,
    "voronovskaya": _check_voronovskaya,
    "table": _check_table,
    "published_table": _check_published_table,
    "kernel_info": _check_kernel_info,
    "moments": _check_moments,
    "bounds": _check_bounds,
}


def tolerated(job: Job, problems: list) -> bool:
    """Whether a failed job leaves its run ``correct``: a malformed request
    that is not refused, or only the known defect above.  Either is still
    counted in ``failed`` and named in the report."""
    return job.check == "malformed" or all(p.startswith(KNOWN_DEFECT) for p in problems)


def check(job: Job, outcome: Outcome, ctx: CheckContext) -> list:
    """Problems with one job's outcome; empty when it is right."""
    if job.check == "malformed":
        return _check_malformed(job, outcome, ctx)
    if outcome.exc is not None:
        return [f"{outcome.exc} escaped main"]
    if outcome.rc != 0 or outcome.err:
        return [f"exit code {outcome.rc}, stderr {outcome.err.strip()[:120]!r}"]
    try:
        return CHECKS[job.check](job, outcome, ctx)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"output does not parse: {type(exc).__name__}: {exc}"]
