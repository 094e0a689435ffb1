"""Command-line front end.

Subcommands: kernel-info, moments, eval, reconstruct, table, converge,
voronovskaya, bounds.  Exit status is 0 on success, 1 on usage errors
(bad flags, malformed ranges, grids of more than a million points, unknown
kernels or functions, unreadable files) and on inputs whose results leave
the float range (a rate too small for the point, an f that overflows), and
2 when a bound's moment precondition fails.

This module names the table's columns and each bound and writes every
output format; the library returns numbers.
Text and CSV output prints floats with 12 significant digits, except the
table command, whose error cells are rounded to 4 decimals for comparison
against published values; JSON output carries full round-trip precision,
and a non-finite float in it is refused with exit 1, never printed.
A ``--config <file>`` of key=value lines supplies defaults for any long
flag of the chosen subcommand, each line read literally as ``--key value``;
flags given on the command line win.
The parser is built on the first ``main`` call and reused by later calls.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from dataclasses import asdict
from typing import ContextManager, Optional, Sequence, TextIO

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


def _check_series_size(kernel: Kernel, w: float, xs: list[float]) -> None:
    """Refuse an emitted sample series of more cells than the grid cap."""
    k_min, k_max = SampleSeries.covering_range(kernel, w, xs)
    _check_grid_size(k_max - k_min + 1, "--emit-samples series", "cells")


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


def _load_config_flags(path: str) -> list[str]:
    flags: list[str] = []
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if not key:
            raise UsageError(f"{path}:{lineno}: empty key")
        flags.extend([f"--{key}", value])
    return flags


_CONFIG = _Parser(add_help=False, allow_abbrev=False)
_CONFIG.add_argument("--config")


def _inject_config(argv: list[str]) -> list[str]:
    """Pull out --config and splice its flags right after the subcommand,
    so explicit command-line flags override them."""
    known, out = _CONFIG.parse_known_args(argv)
    if known.config is None:
        return out
    if not out:
        raise UsageError("--config given but no subcommand")
    return [out[0]] + _load_config_flags(known.config) + out[1:]


def _output(args) -> ContextManager[TextIO]:
    """The --output file, closed on exit, or stdout, left open."""
    if args.output:
        return open(args.output, "w", newline="")
    return contextlib.nullcontext(sys.stdout)


def _write_json(args, payload) -> None:
    text = json.dumps(payload, indent=2, allow_nan=False)  # before any byte is written
    with _output(args) as out:
        out.write(text + "\n")


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


def _run_kernel_info(args) -> int:
    kernel = parse_kernel_spec(args.kernel)
    reports = [build_moment_report(kernel, nu) for nu in _moment_orders(args.nu_max)]
    if args.format == "json":
        _write_json(args, {
            "label": kernel.label,
            "log_support": list(kernel.log_support),
            "moments": [asdict(r) for r in reports],
        })
        return 0
    with _output(args) as out:
        out.write(f"kernel: {kernel.label}\n")
        a, b = kernel.log_support
        out.write(f"log_support: [{_fmt(a)}, {_fmt(b)}]\n")
        out.write("nu  m_nu(u=1)        M_nu_sup         u_independent\n")
        out.writelines(f"{r.order:<3d} {_fmt(r.algebraic):<16} {_fmt(r.absolute_sup):<16} "
                       f"{str(r.u_independent).lower()}\n" for r in reports)
    return 0


def _run_moments(args) -> int:
    kernel = parse_kernel_spec(args.kernel)
    reports = [build_moment_report(kernel, nu, at_u=args.u) for nu in _moment_orders(args.nu_max)]
    if args.format == "json":
        _write_json(args, [asdict(r) for r in reports])
        return 0
    with _output(args) as out:
        if args.format == "csv":
            out.write("nu,m_nu,M_nu_sup,u_independent\n")
            out.writelines(f"{r.order},{_fmt(r.algebraic)},{_fmt(r.absolute_sup)},"
                           f"{str(r.u_independent).lower()}\n" for r in reports)
        else:
            out.write(f"moments of {kernel.label} at u={_fmt(args.u)}\n")
            out.writelines(f"nu={r.order}: m_nu={_fmt(r.algebraic)}  M_nu_sup={_fmt(r.absolute_sup)}  "
                           f"u_independent={str(r.u_independent).lower()}\n" for r in reports)
    return 0


def _run_eval(args) -> int:
    kernel = parse_kernel_spec(args.kernel)
    f = get_function(args.fn)
    xs = _parse_x_values(args.x)
    cfg = OperatorConfig(w=args.w, quad_nodes=args.quad_nodes)
    if args.emit_samples:
        # each cell once; eval then prints what reconstruct reads from the file
        _check_series_size(kernel, args.w, xs)
        series = SampleSeries.covering(f, kernel, args.w, xs, args.quad_nodes)
        values = [apply_from_samples(series, kernel, x) for x in xs]
    else:
        values = apply_grid(f, kernel, cfg, xs)
    rows = [(x, v, fx, abs(v - fx)) for x, v, fx in zip(xs, values, map(f.f, xs))]
    if args.emit_samples:  # written only once every value is in hand
        write_sample_csv(args.emit_samples, series)
    with _output(args) as out:
        if args.format == "text":
            out.write(f"(I_w f)(x) with kernel {kernel.label}, f={f.label}, w={_fmt(args.w)}\n")
            out.writelines(
                f"x={_fmt(x):<16} approx={_fmt(v):<18} exact={_fmt(fx):<18} abs_error={_fmt(e)}\n"
                for x, v, fx, e in rows
            )
        else:
            out.write("x,approx,exact,abs_error\n")
            out.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)
    return 0


def _run_reconstruct(args) -> int:
    kernel = parse_kernel_spec(args.kernel)
    series = read_sample_csv(args.samples)
    xs = _parse_x_values(args.x)
    values = [apply_from_samples(series, kernel, x) for x in xs]
    with _output(args) as out:
        out.write("x,approx\n")
        out.writelines(f"{_fmt(x)},{_fmt(v)}\n" for x, v in zip(xs, values))
    return 0


def _run_table(args) -> int:
    kernel = parse_kernel_spec(args.kernel)
    f = get_function(args.fn)
    xs = _parse_x_values(args.x)
    scheme = solve_coefficients(args.p)
    table = make_table(f, kernel, scheme, args.w, xs, args.quad_nodes)
    labels = [f"abs_err_w{r:g}" for r in scheme.rates(args.w)] + [f"abs_err_combo_p{scheme.p}"]
    rows = [[_fmt(x)] + [f"{v:.{TABLE_DECIMALS}f}" for v in row] for x, row in zip(xs, table)]
    with _output(args) as out:
        if args.format == "latex":
            header = ["$x$"] + [label.replace("_", "\\_") for label in labels]
            out.write("\\begin{tabular}{" + "|l" * len(header) + "|}\n\\hline\n")
            out.writelines(" & ".join(cells) + " \\\\\n\\hline\n" for cells in [header, *rows])
            out.write("\\end{tabular}\n")
        else:
            out.writelines(",".join(cells) + "\n" for cells in [["x", *labels], *rows])
    return 0


def _run_converge(args) -> int:
    kernel = parse_kernel_spec(args.kernel)
    f = get_function(args.fn)
    w_list = _numbers(args.w_list, ",", "rate list")
    scheme = solve_coefficients(args.p) if args.p is not None else None
    if args.grid_points < 2:
        raise UsageError(f"--grid-points must be at least 2, got {args.grid_points}")
    _check_grid_size(args.grid_points, "--grid-points")
    lo, hi = f.eval_interval
    grid = _linspace(lo, hi, args.grid_points)
    study = estimate_order(f, kernel, scheme, w_list, grid, args.quad_nodes)
    _write_json(args, _study_payload(study, scheme))
    return 0


def _run_voronovskaya(args) -> int:
    kernel = parse_kernel_spec(args.kernel)
    f = get_function(args.fn)
    w_list = _numbers(args.w_list, ",", "rate list")
    scheme = solve_coefficients(args.p) if args.p is not None else None
    study = voronovskaya_check(f, kernel, args.x, w_list, scheme, args.quad_nodes)
    _write_json(args, _study_payload(study, scheme))
    return 0


def _run_bounds(args) -> int:
    kernel = parse_kernel_spec(args.kernel)
    f = get_function(args.fn)
    if args.check == "moment":
        report = vanishing_moment_bound(
            f, kernel, args.w, args.x, args.r, quad_nodes=args.quad_nodes
        )
        _write_json(args, {"bound": f"vanishing_moment:r={args.r}", **asdict(report)})
        return 0
    # the first-order estimate is the p = 1 combination's; --p is ignored for it
    p = args.p if args.check == "combo" and args.p is not None else 1
    scheme = solve_coefficients(p)
    report = combo_bound(f, kernel, scheme, args.w, args.x, quad_nodes=args.quad_nodes)
    if args.check == "first":
        payload = {"bound": "first_order", **asdict(report)}
    else:
        payload = {"bound": f"combination:p={p}", **asdict(report),
                   "combination": _scheme_payload(scheme)}
    _write_json(args, payload)
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="expsamp", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"expsamp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--kernel", required=True,
                       help="kernel spec: bspline:<n> or combo:<n>:<alpha>:<beta>")
        p.add_argument("--output", default=None, help="write to file instead of stdout")
        p.add_argument("--quad-nodes", type=int, default=7,
                       help="Gauss-Legendre nodes n per cell (default 7); log, log2, log3 "
                            "and constants, c u^p on the log axis, take their exact cell "
                            "mean wherever the n-node rule is exact for them, p <= 2n-1")

    p = sub.add_parser("kernel-info", help="kernel summary with moment constants")
    common(p)
    p.add_argument("--nu-max", type=int, default=3)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run=_run_kernel_info)

    p = sub.add_parser("moments", help="moment table for a kernel")
    common(p)
    p.add_argument("--nu-max", type=int, default=4)
    p.add_argument("--u", type=float, default=1.0, help="pointwise moment location")
    p.add_argument("--format", choices=("csv", "text", "json"), default="csv")
    p.set_defaults(run=_run_moments)

    p = sub.add_parser("eval", help="evaluate the operator for a built-in function")
    common(p)
    p.add_argument("--fn", required=True, help="built-in function name (or const:<c>)")
    p.add_argument("--w", type=float, required=True, help="sampling rate")
    p.add_argument("--x", required=True, help="points: lo:hi:step or comma list")
    p.add_argument("--emit-samples", default=None, metavar="PATH",
                   help="also write the cell means used to a sample CSV")
    p.add_argument("--format", choices=("csv", "text"), default="csv")
    p.set_defaults(run=_run_eval)

    p = sub.add_parser("reconstruct", help="evaluate the operator from a sample CSV")
    common(p)
    p.add_argument("--samples", required=True, help="sample CSV ('# w=<v>' sidecar, k,mean rows)")
    p.add_argument("--x", required=True, help="points: lo:hi:step or comma list")
    p.set_defaults(run=_run_reconstruct)

    p = sub.add_parser("table", help="error table for I_{iw} and the combination")
    common(p)
    p.add_argument("--fn", required=True)
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--p", type=int, required=True, help="combination size")
    p.add_argument("--x", required=True)
    p.add_argument("--format", choices=("csv", "latex"), default="csv",
                   help="csv, or latex for a LaTeX tabular block")
    p.set_defaults(run=_run_table)

    p = sub.add_parser("converge", help="fit the convergence order over a rate list")
    common(p)
    p.add_argument("--fn", required=True)
    p.add_argument("--w-list", required=True, help="comma list, strictly increasing")
    p.add_argument("--p", type=int, default=None, help="combination size (omit for single)")
    p.add_argument("--grid-points", type=int, default=201)
    p.set_defaults(run=_run_converge)

    p = sub.add_parser("voronovskaya", help="scaled pointwise errors vs the predicted limit")
    common(p)
    p.add_argument("--fn", required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--w-list", required=True)
    p.add_argument("--p", type=int, default=None)
    p.set_defaults(run=_run_voronovskaya)

    p = sub.add_parser("bounds", help="evaluate both sides of an error estimate")
    common(p)
    p.add_argument("--fn", required=True)
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--check", choices=("first", "moment", "combo"), default="first")
    p.add_argument("--r", type=int, default=2, help="order for --check moment")
    p.add_argument("--p", type=int, default=None, help="combination size for --check combo")
    p.set_defaults(run=_run_bounds)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(_inject_config(argv))
        return args.run(args)
    except MomentPreconditionError as exc:
        print(f"expsamp: precondition failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"expsamp: error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # overflow, or division by an underflowed value
        print(f"expsamp: error: result beyond the float range: {exc}", file=sys.stderr)
        return 1
