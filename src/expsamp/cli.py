"""Command-line front end.

Subcommands: kernel-info, moments, eval, reconstruct, table, converge,
voronovskaya, bounds.  Exit status is 0 on success, 1 on usage errors
(bad flags, a bounds --r or --p that its --check does not read, malformed
ranges, grids of more than a million points, unknown kernels or functions,
unreadable files) and on inputs whose results leave the float range (a rate
too small for the point, an f that overflows), and 2 when a bound's moment
precondition fails.

This module names the table's columns and each bound and writes every
output format; the library returns numbers.  Each subcommand computes every
value before any output is written and returns its text, which ``main``
writes once, to the ``--output`` file or stdout: a refused request prints
nothing and creates no ``--output`` file.  Both routes of ``eval`` check w
and the node count in one ``OperatorConfig``; ``--emit-samples`` writes its
sample file, which ``--output`` may not name, before that text.
Text and CSV output prints floats with 12 significant digits, except the
table command, whose error cells are rounded to 4 decimals for comparison
against published values; JSON output carries full round-trip precision,
and a non-finite float in it is refused with exit 1, never printed.
Flags come from the command line alone; ``--quad-nodes`` is declared by
the subcommands that compute cell means (eval, table, converge,
voronovskaya, bounds) and by reconstruct, which ignores it, and any other
subcommand refuses it.
The parser is built on the first ``main`` call and reused by later calls.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable, Sequence
from dataclasses import asdict

from . import __version__
from .analysis import (
    ConvergenceStudy,
    MomentPreconditionError,
    _linspace,
    combo_bound,
    estimate_order,
    make_table,
    vanishing_moment_bound,
    voronovskaya_check,
)
from .combinations import solve_coefficients
from .functions import get_function
from .kernels import Kernel, parse_kernel_spec
from .moments import MAX_MOMENT_ORDER, build_moment_report
from .operators import (
    OperatorConfig,
    SampleSeries,
    apply_from_samples,
    apply_grid,
    read_sample_csv,
    write_sample_csv,
)

__all__ = ["main"]

# Most points one evaluation grid may hold, and most cells one emitted sample
# series may hold: a range such as 1:2:1e-10 would otherwise ask for 10^10
# floats, and two points far apart at a high rate for as many cell means.
_MAX_GRID_POINTS = 1_000_000
TABLE_DECIMALS = 4  # error-table cells, compared against published values
# eval and reconstruct rows, one format call each; a field reads as _fmt writes it
_EVAL_CSV_ROW = "{:.12g},{:.12g},{:.12g},{:.12g}\n".format
_EVAL_TEXT_ROW = "x={:<16.12g} approx={:<18.12g} exact={:<18.12g} abs_error={:.12g}\n".format
_XY_CSV_ROW = "{:.12g},{:.12g}\n".format
_QUAD_HELP = ("Gauss-Legendre nodes n per cell (default 7); log, log2, log3 and constants, "
              "c u^p on the log axis, take their exact cell mean wherever the n-node rule "
              "is exact for them, p <= 2n-1")


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit code 1, not argparse's 2
        raise UsageError(message)


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _parse_x_values(text: str) -> list[float]:
    """Either ``lo:hi:step`` (inclusive range) or a comma list of points."""
    if ":" in text:
        fields = text.count(":") + 1
        if fields != 3:
            raise UsageError(f"range {text!r}: want lo:hi:step with 3 fields, got {fields}")
        lo, hi, step = _numbers(text, ":", "range")
        for name, v in (("lo", lo), ("hi", hi), ("step", step)):
            if not math.isfinite(v):
                raise UsageError(f"range {text!r}: {name} must be finite, got {v}")
        if not lo < hi:
            raise UsageError(f"range {text!r}: lo must be < hi")
        if step <= 0.0:
            raise UsageError(f"range {text!r}: step must be positive")
        span = (hi - lo) / step
        if not math.isfinite(span):
            raise UsageError(f"range {text!r}: too many points, (hi - lo) / step = {span}")
        count = int(math.floor(span + 1e-9)) + 1
        _check_grid_size(count, f"range {text!r}")
        values = [lo + i * step for i in range(count)]
    else:
        values = _numbers(text, ",", "point list")  # one value per field, at least one
    if any(v <= 0.0 for v in values):
        raise UsageError(f"evaluation points must be positive, got {min(values)}")
    return values


def _check_grid_size(count: int, what: str, unit: str = "points") -> None:
    if count > _MAX_GRID_POINTS:
        raise UsageError(f"{what}: {count} {unit}, more than the {_MAX_GRID_POINTS} allowed")


def _numbers(text: str, sep: str, what: str) -> list[float]:
    """The floats of text's sep-separated fields; the callers validate them.
    A bad field raises a UsageError naming it, stripped, and its offset."""
    values, start = [], 0
    for tok in text.split(sep):
        try:
            values.append(float(tok))
        except ValueError:
            at = start + len(tok) - len(tok.lstrip())
            raise UsageError(f"{what} {text!r}: bad number {tok.strip()!r} at position {at}") from None
        start += len(tok) + len(sep)
    return values


def _json(payload) -> list[str]:  # a non-finite float raises ValueError
    return [json.dumps(payload, indent=2, allow_nan=False) + "\n"]


def _study_payload(study: ConvergenceStudy, scheme) -> dict:
    infinite = study.fitted_order is not None and math.isinf(study.fitted_order)
    return {
        "w_list": list(study.w_list),
        "errors": list(study.errors),
        "fitted_order": None if (study.fitted_order is None or infinite) else study.fitted_order,
        "infinite_order": infinite,
        "fitted_constant": study.fitted_constant,
        "scaled_errors": list(study.scaled_errors) if study.scaled_errors else None,
        "predicted_limit": study.predicted_limit,
        "deviations": list(study.deviations) if study.deviations else None,
        "combination": _scheme_payload(scheme) if scheme else None,
    }


def _scheme_payload(scheme) -> dict:
    return {
        "p": scheme.p,
        "coefficients": [str(c) for c in scheme.coeffs],
        "coefficients_decimal": [float(c) for c in scheme.coeffs],
    }


# ---------------------------------------------------------------------------
# subcommand runners


def _moment_orders(nu_max: int) -> range:
    if not 0 <= nu_max <= MAX_MOMENT_ORDER:
        raise UsageError(f"--nu-max must be in 0..{MAX_MOMENT_ORDER}, got {nu_max}")
    return range(nu_max + 1)


def _run_kernel_info(args, kernel: Kernel) -> Iterable[str]:
    reports = [build_moment_report(kernel, nu) for nu in _moment_orders(args.nu_max)]
    if args.format == "json":
        return _json({"label": kernel.label, "log_support": list(kernel.log_support),
                      "moments": [asdict(r) for r in reports]})
    a, b = kernel.log_support
    return [f"kernel: {kernel.label}\n",
            f"log_support: [{_fmt(a)}, {_fmt(b)}]\n",
            "nu  m_nu(u=1)        M_nu_sup         u_independent\n",
            *(f"{r.order:<3d} {_fmt(r.algebraic):<16} {_fmt(r.absolute_sup):<16} "
              f"{str(r.u_independent).lower()}\n" for r in reports)]


def _run_moments(args, kernel: Kernel) -> Iterable[str]:
    reports = [build_moment_report(kernel, nu, at_u=args.u) for nu in _moment_orders(args.nu_max)]
    if args.format == "json":
        return _json([asdict(r) for r in reports])
    if args.format == "csv":
        return ["nu,m_nu,M_nu_sup,u_independent\n",
                *(f"{r.order},{_fmt(r.algebraic)},{_fmt(r.absolute_sup)},"
                  f"{str(r.u_independent).lower()}\n" for r in reports)]
    return [f"moments of {kernel.label} at u={_fmt(args.u)}\n",
            *(f"nu={r.order}: m_nu={_fmt(r.algebraic)}  M_nu_sup={_fmt(r.absolute_sup)}  "
              f"u_independent={str(r.u_independent).lower()}\n" for r in reports)]


def _run_eval(args, kernel: Kernel) -> Iterable[str]:
    f = get_function(args.fn)
    xs = _parse_x_values(args.x)
    cfg = OperatorConfig(w=args.w, quad_nodes=args.quad_nodes)  # checked once, for both routes
    if args.emit_samples:
        if args.output and os.path.realpath(args.emit_samples) == os.path.realpath(args.output):
            raise UsageError(f"--emit-samples {args.emit_samples!r} and --output "
                             f"{args.output!r} name the same file")
        # each cell once; eval then prints what reconstruct reads from the file
        k_min, k_max = SampleSeries.covering_range(kernel, cfg.w, xs)
        _check_grid_size(k_max - k_min + 1, "--emit-samples series", "cells")
        series = SampleSeries.from_function(f, cfg.w, k_min, k_max, cfg.quad_nodes)
        values = [apply_from_samples(series, kernel, x) for x in xs]
    else:
        values = apply_grid(f, kernel, cfg, xs)
    exact = list(map(f.f, xs))
    errors = [abs(v - fx) for v, fx in zip(values, exact)]
    if args.emit_samples:  # written only once every value is in hand
        write_sample_csv(args.emit_samples, series)
    # the columns are in hand; only their lines are formatted as they are written
    if args.format == "text":
        return itertools.chain(
            [f"(I_w f)(x) with kernel {kernel.label}, f={f.label}, w={_fmt(args.w)}\n"],
            map(_EVAL_TEXT_ROW, xs, values, exact, errors))
    return itertools.chain(["x,approx,exact,abs_error\n"],
                           map(_EVAL_CSV_ROW, xs, values, exact, errors))


def _run_reconstruct(args, kernel: Kernel) -> Iterable[str]:
    series = read_sample_csv(args.samples)
    xs = _parse_x_values(args.x)
    values = [apply_from_samples(series, kernel, x) for x in xs]
    return itertools.chain(["x,approx\n"], map(_XY_CSV_ROW, xs, values))


def _run_table(args, kernel: Kernel) -> Iterable[str]:
    f = get_function(args.fn)
    xs = _parse_x_values(args.x)
    scheme = solve_coefficients(args.p)
    table = make_table(f, kernel, scheme, args.w, xs, args.quad_nodes)
    labels = [f"abs_err_w{r:g}" for r in scheme.rates(args.w)] + [f"abs_err_combo_p{scheme.p}"]
    rows = [[_fmt(x)] + [f"{v:.{TABLE_DECIMALS}f}" for v in row] for x, row in zip(xs, table)]
    if args.format == "latex":
        header = ["$x$"] + [label.replace("_", "\\_") for label in labels]
        return ["\\begin{tabular}{" + "|l" * len(header) + "|}\n\\hline\n",
                *(" & ".join(cells) + " \\\\\n\\hline\n" for cells in [header, *rows]),
                "\\end{tabular}\n"]
    return [",".join(cells) + "\n" for cells in [["x", *labels], *rows]]


def _run_converge(args, kernel: Kernel) -> Iterable[str]:
    f = get_function(args.fn)
    w_list = _numbers(args.w_list, ",", "rate list")
    scheme = solve_coefficients(args.p) if args.p is not None else None
    if args.grid_points < 2:
        raise UsageError(f"--grid-points must be at least 2, got {args.grid_points}")
    _check_grid_size(args.grid_points, "--grid-points")
    lo, hi = f.eval_interval
    grid = _linspace(lo, hi, args.grid_points)
    study = estimate_order(f, kernel, scheme, w_list, grid, args.quad_nodes)
    return _json(_study_payload(study, scheme))


def _run_voronovskaya(args, kernel: Kernel) -> Iterable[str]:
    f = get_function(args.fn)
    w_list = _numbers(args.w_list, ",", "rate list")
    scheme = solve_coefficients(args.p) if args.p is not None else None
    study = voronovskaya_check(f, kernel, args.x, w_list, scheme, args.quad_nodes)
    return _json(_study_payload(study, scheme))


def _run_bounds(args, kernel: Kernel) -> Iterable[str]:
    for flag, value, check in (("--r", args.r, "moment"), ("--p", args.p, "combo")):
        if value is not None and args.check != check:
            raise UsageError(f"{flag} applies only to --check {check}, not --check {args.check}")
    f = get_function(args.fn)
    if args.check == "moment":
        r = 2 if args.r is None else args.r
        report = vanishing_moment_bound(f, kernel, args.w, args.x, r, args.quad_nodes)
        return _json({"bound": f"vanishing_moment:r={r}", **asdict(report)})
    # the first-order estimate is the p = 1 combination's
    p = 1 if args.p is None else args.p
    scheme = solve_coefficients(p)
    report = combo_bound(f, kernel, scheme, args.w, args.x, quad_nodes=args.quad_nodes)
    if args.check == "first":
        return _json({"bound": "first_order", **asdict(report)})
    return _json({"bound": f"combination:p={p}", **asdict(report),
                  "combination": _scheme_payload(scheme)})


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="expsamp", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"expsamp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str, quad_help: str | None = _QUAD_HELP) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--kernel", required=True,
                       help="kernel spec: bspline:<n> or combo:<n>:<alpha>:<beta>")
        p.add_argument("--output", default=None, help="write to file instead of stdout")
        if quad_help:  # only where cell means are, or were, computed
            p.add_argument("--quad-nodes", type=int, default=7, help=quad_help)
        return p

    p = command("kernel-info", _run_kernel_info, "kernel summary with moment constants", quad_help=None)
    p.add_argument("--nu-max", type=int, default=3)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = command("moments", _run_moments, "moment table for a kernel", quad_help=None)
    p.add_argument("--nu-max", type=int, default=4)
    p.add_argument("--u", type=float, default=1.0, help="pointwise moment location")
    p.add_argument("--format", choices=("csv", "text", "json"), default="csv")

    p = command("eval", _run_eval, "evaluate the operator for a built-in function")
    p.add_argument("--fn", required=True, help="built-in function name (or const:<c>)")
    p.add_argument("--w", type=float, required=True, help="sampling rate")
    p.add_argument("--x", required=True, help="points: lo:hi:step or comma list")
    p.add_argument("--emit-samples", default=None, metavar="PATH",
                   help="also write the cell means used to a sample CSV")
    p.add_argument("--format", choices=("csv", "text"), default="csv")

    p = command("reconstruct", _run_reconstruct, "evaluate the operator from a sample CSV",
                "ignored: the sample file holds cell means computed when it was written")
    p.add_argument("--samples", required=True, help="sample CSV ('# w=<v>' sidecar, k,mean rows)")
    p.add_argument("--x", required=True, help="points: lo:hi:step or comma list")

    p = command("table", _run_table, "error table for I_{iw} and the combination")
    p.add_argument("--fn", required=True)
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--p", type=int, required=True, help="combination size")
    p.add_argument("--x", required=True)
    p.add_argument("--format", choices=("csv", "latex"), default="csv",
                   help="csv, or latex for a LaTeX tabular block")

    p = command("converge", _run_converge, "fit the convergence order over a rate list")
    p.add_argument("--fn", required=True)
    p.add_argument("--w-list", required=True, help="comma list, strictly increasing")
    p.add_argument("--p", type=int, default=None, help="combination size (omit for single)")
    p.add_argument("--grid-points", type=int, default=201)

    p = command("voronovskaya", _run_voronovskaya, "scaled pointwise errors vs the predicted limit")
    p.add_argument("--fn", required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--w-list", required=True)
    p.add_argument("--p", type=int, default=None)

    p = command("bounds", _run_bounds, "evaluate both sides of an error estimate")
    p.add_argument("--fn", required=True)
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--check", choices=("first", "moment", "combo"), default="first")
    p.add_argument("--r", type=int, default=None, help="order for --check moment (default 2)")
    p.add_argument("--p", type=int, default=None, help="combination size for --check combo (default 1)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        lead = argv[0] if argv else ""
        # argparse would take an unknown option's value for the subcommand and
        # name that token; only -h, --help, --version and their prefixes lead
        if lead[:1] == "-" and lead != "-h" and not (
                len(lead) > 2 and any(o.startswith(lead) for o in ("--help", "--version"))):
            raise UsageError(f"unrecognized arguments: {lead}")
        args = _build_parser().parse_args(argv)
        text = args.run(args, parse_kernel_spec(args.kernel))
        if args.output:
            with open(args.output, "w", newline="") as out:
                out.writelines(text)
        else:
            sys.stdout.writelines(text)
        return 0
    except MomentPreconditionError as exc:
        print(f"expsamp: precondition failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"expsamp: error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # overflow, or division by an underflowed value
        print(f"expsamp: error: result beyond the float range: {exc}", file=sys.stderr)
        return 1
