"""Command-line behaviour: output formats, exit codes, determinism."""

import argparse
import dataclasses
import json
import locale
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from expsamp import cli
from expsamp.analysis import BoundReport, make_table
from expsamp.cli import _MAX_GRID_POINTS, UsageError, _check_grid_size, _parse_x_values, main
from expsamp.combinations import solve_coefficients
from expsamp.functions import get_function
from expsamp.kernels import parse_kernel_spec
from expsamp.operators import SampleSeries


# the directory that holds the expsamp under test, src/ or an installed one's
# site-packages: the subprocesses below import the same package
PACKAGE_ROOT = str(Path(cli.__file__).resolve().parents[1])


def _decodes_0xff() -> bool:
    try:
        b"\xff".decode(locale.getpreferredencoding(False))
    except UnicodeDecodeError:
        return False
    return True


# files are opened in the preferred encoding, which may take any byte
undecodable = pytest.mark.skipif(_decodes_0xff(), reason="the preferred encoding decodes 0xff")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKernelInfo:
    def test_b4_moment_constants(self, capsys):
        code, out, _ = run(capsys, "kernel-info", "--kernel", "bspline:4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "kernel: bspline:4"
        assert "log_support: [-2, 2]" in out
        rows = {int(line.split()[0]): line.split() for line in lines[3:]}
        assert rows[0][1] == "1" and rows[0][3] == "true"
        assert rows[1][1] == "0" and rows[1][3] == "true"
        assert float(rows[2][1]) == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert rows[3][1] == "0" and rows[3][3] == "true"

    def test_wide_combo_flags_from_the_order(self, capsys):
        """m_nu is constant in u exactly when nu < n, however large the terms
        of the sum grow (about 1e18 here at nu = 6)."""
        code, out, _ = run(capsys, "kernel-info", "--kernel", "combo:6:e^-1000:e^1000",
                           "--nu-max", "6")
        assert code == 0
        rows = [line.split() for line in out.strip().split("\n")[3:]]
        assert [(int(r[0]), r[-1]) for r in rows] == [(nu, str(nu < 6).lower()) for nu in range(7)]

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "kernel-info", "--kernel", "combo:4:e^1:e^2",
                           "--format", "json", "--nu-max", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["label"] == "combo:4:e^1:e^2"
        assert payload["moments"][2]["algebraic"] == pytest.approx(-5.0 / 3.0, abs=1e-10)

    @pytest.mark.parametrize(
        "spec, message",
        [("combo:3:nan:2", "scale factor must be positive and finite, got 'nan'"),
         ("combo:3:1e400:2", "scale factor must be positive and finite, got '1e400'"),
         ("combo:3:e^1e400:2", "scale factor 'e^1e400' has a log beyond the float range"),
         ("combo:3:e^1e300:e^2", "scale factor 'e^1e300' has |log| = 1e+300, more than the 1000 allowed"),
         ("combo:3:2:2.0000000000000004", "translate factors 2 and 2.0000000000000004 are too close"),
         ("combo:3:abc:e^2", "bad scale factor 'abc': not a decimal or e^<rational>")],
    )
    def test_bad_translate_factor_named(self, capsys, spec, message):
        code, out, err = run(capsys, "kernel-info", "--kernel", spec)
        assert (code, out) == (1, "")
        assert err.startswith(f"expsamp: error: {message}")


class TestMoments:
    @pytest.mark.parametrize(
        "flags, header, rows",
        [
            ((), "nu,m_nu,M_nu_sup,u_independent",
             ["0,1,1,true", "1,0,0.5,true", "2,0,0.25,false"]),
            (("--format", "text"), "moments of bspline:2 at u=1",
             ["nu=0: m_nu=1  M_nu_sup=1  u_independent=true",
              "nu=1: m_nu=0  M_nu_sup=0.5  u_independent=true",
              "nu=2: m_nu=0  M_nu_sup=0.25  u_independent=false"]),
        ],
        ids=["csv", "text"],
    )
    def test_table(self, capsys, flags, header, rows):
        """A header line, then one row per order nu = 0..nu_max."""
        code, out, _ = run(capsys, "moments", "--kernel", "bspline:2", "--nu-max", "2", *flags)
        assert code == 0
        assert out.split("\n") == [header, *rows, ""]

    def test_wide_combo_flags_from_the_order(self, capsys):
        code, out, _ = run(capsys, "moments", "--kernel", "combo:4:e^-300:e^300", "--nu-max", "6")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [(int(r[0]), r[3]) for r in rows] == [(nu, str(nu < 4).lower()) for nu in range(7)]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "moments", "--kernel", "bspline:2", "--nu-max", "2",
                           "--u", "1.5", "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert [r["order"] for r in records] == [0, 1, 2]
        t = math.log(1.5)  # m_2(u) = {log u}(1 - {log u}) for the order-2 spline
        assert records[2] == {"order": 2, "algebraic": pytest.approx(t * (1.0 - t), abs=1e-15),
                              "absolute_sup": 0.25, "u_independent": False, "at_u": 1.5}


class TestEval:
    @pytest.mark.parametrize(
        "flags, header, rows",
        [
            ((), "x,approx,exact,abs_error", ["1,3,3,0", "1.5,3,3,0", "2,3,3,0"]),
            (("--format", "text"), "(I_w f)(x) with kernel bspline:2, f=const:3, w=7",
             [f"x={x:<16} approx=3                  exact=3                  abs_error=0"
              for x in ("1", "1.5", "2")]),
        ],
        ids=["csv", "text"],
    )
    def test_constant_column(self, capsys, flags, header, rows):
        """A header line, then one row per point."""
        code, out, _ = run(capsys, "eval", "--kernel", "bspline:2", "--fn", "const:3",
                           "--w", "7", "--x", "1.0:2.0:0.5", *flags)
        assert code == 0
        assert out.split("\n") == [header, *rows, ""]

    def test_grid_csv_format(self, capsys, tmp_path):
        dest = tmp_path / "grid.csv"
        code, _, _ = run(capsys, "eval", "--kernel", "bspline:2", "--fn", "log", "--w", "10",
                         "--x", "1.0,1.5", "--output", str(dest))
        assert code == 0
        text = dest.read_bytes().decode()
        lines = text.strip().split("\n")
        assert lines[0] == "x,approx,exact,abs_error"
        assert len(lines) == 3
        assert text.count("\r") == 0
        # 12 significant digits round-trip closely
        approx = float(lines[1].split(",")[1])
        assert approx == pytest.approx(0.05, abs=1e-12)

    def test_constant_next_to_a_knot(self, capsys):
        """w log x = -5.55e-17 sits one rounding away from the order-2
        spline's middle knot; the constant must still come back as 1."""
        code, out, _ = run(capsys, "eval", "--kernel", "bspline:2", "--fn", "const:1",
                           "--w", "0.5", "--x", "0.9999999999999999")
        assert code == 0
        assert out.strip().split("\n")[1].split(",")[1] == "1"

    def test_round_trip_with_reconstruct(self, capsys, tmp_path):
        samples = tmp_path / "s.csv"
        code, out_eval, _ = run(
            capsys, "eval", "--kernel", "bspline:2", "--fn", "cos4exp", "--w", "15",
            "--x", "0.5:1.0:0.01", "--emit-samples", str(samples),
        )
        assert code == 0
        code, out_rec, _ = run(
            capsys, "reconstruct", "--kernel", "bspline:2", "--samples", str(samples),
            "--x", "0.5:1.0:0.01",
        )
        assert code == 0
        # eval reads its grid from the series it emits: the same text
        eval_rows = [line.split(",")[:2] for line in out_eval.split("\n")]
        assert out_rec.split("\n") == [",".join(row) for row in eval_rows]
        assert len(eval_rows) == 53  # header, 51 points, the final newline

    def test_crlf_and_quoted_samples_reconstruct_alike(self, capsys, tmp_path):
        """A sample file with CRLF line ends, or with every field quoted,
        reconstructs the bytes that the file eval wrote does."""
        samples = tmp_path / "s.csv"
        assert run(capsys, "eval", "--kernel", "bspline:3", "--fn", "sinmix", "--w", "45.3",
                   "--x", "1.3:2.4:0.013", "--emit-samples", str(samples))[0] == 0
        text = samples.read_text()
        quoted = "\n".join(
            line if line[:1] in ("#", "") else ",".join(f'"{v}"' for v in line.split(","))
            for line in text.split("\n"))
        outputs = []
        for body in (text, text.replace("\n", "\r\n"), quoted):
            samples.write_bytes(body.encode())
            outputs.append(run(capsys, "reconstruct", "--kernel", "bspline:3", "--samples",
                               str(samples), "--x", "1.3:2.4:0.013"))
        assert outputs[0][0] == 0 and outputs[0][1].count("\n") == 86
        assert outputs[1] == outputs[2] == outputs[0]

    def test_unclosed_quote_refused(self, capsys, tmp_path):
        """A last quoted field that never closes makes a malformed file; it is
        not read as the value before the end of the file."""
        samples = tmp_path / "s.csv"
        samples.write_text('# w=4.0\nk,mean\n0,"1.0\n')
        assert run(capsys, "reconstruct", "--kernel", "bspline:1", "--samples", str(samples),
                   "--x", "1") == (1, "", "expsamp: error: line 3: unexpected end of data\n")

    def test_emit_computes_each_cell_once(self, capsys, tmp_path, monkeypatch):
        """With --emit-samples the grid is read from the emitted series, so
        every cell is computed once: 421 cells x 7 nodes, each node u
        evaluated once."""
        nodes = []
        original = cli.get_function

        def counted(name):
            f = original(name)
            at_log = f.f_at_log

            def f_at_log(us):
                nodes.extend(us)
                return at_log(us)

            return dataclasses.replace(f, f_at_log=f_at_log)

        monkeypatch.setattr(cli, "get_function", counted)
        code, _, _ = run(capsys, "eval", "--kernel", "bspline:3", "--fn", "cos4exp", "--w", "600",
                         "--x", "0.8:1.6:0.02", "--emit-samples", str(tmp_path / "s.csv"))
        assert code == 0
        assert len(nodes) == len(set(nodes)) == 421 * 7

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_emit_leaves_stdout_unchanged(self, capsys, tmp_path, fmt):
        """The values read from the emitted series are the ones apply_grid
        computes, byte for byte."""
        argv = ["eval", "--kernel", "bspline:3", "--fn", "sinmix", "--w", "45.3",
                "--x", "1.3:2.4:0.013", "--format", fmt]
        code, plain, _ = run(capsys, *argv)
        assert code == 0
        code, emitted, _ = run(capsys, *argv, "--emit-samples", str(tmp_path / "s.csv"))
        assert code == 0
        assert emitted == plain

    @pytest.mark.parametrize(
        "flags, named",
        [
            (("--w", "nan"), "sampling rate w must be positive and finite, got nan"),
            (("--w", "inf"), "sampling rate w must be positive and finite, got inf"),
            (("--w=-inf",), "sampling rate w must be positive and finite, got -inf"),
            (("--w", "0"), "sampling rate w must be positive and finite, got 0.0"),
            (("--w=-1",), "sampling rate w must be positive and finite, got -1.0"),
            (("--w", "10", "--quad-nodes", "0"), "quad_nodes must be a positive integer, got 0"),
            (("--w", "10", "--quad-nodes", "65"), "quad_nodes must be at most 64, got 65"),
        ],
    )
    def test_both_routes_refuse_alike(self, capsys, tmp_path, flags, named):
        """eval straight from f and eval through --emit-samples check w and
        the node count in one OperatorConfig: the same exit code and stderr,
        and no sample file.  A non-finite w used to reach the emit route's
        kernel window and be refused there as a window position."""
        argv = ("eval", "--kernel", "bspline:2", "--fn", "log", "--x", "1.5", *flags)
        samples = tmp_path / "s.csv"
        plain = run(capsys, *argv)
        assert plain == (1, "", f"expsamp: error: {named}\n")
        assert run(capsys, *argv, "--emit-samples", str(samples)) == plain
        assert not samples.exists()

    def test_missing_sample_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "reconstruct", "--kernel", "bspline:2",
                           "--samples", str(tmp_path / "nope.csv"), "--x", "1.0,2.0")
        assert code == 1
        assert "error" in err

    @undecodable
    def test_undecodable_sample_file(self, capsys, tmp_path):
        samples = tmp_path / "bad.csv"
        samples.write_bytes(b"\xff# w=10.0\nk,mean\n0,1.0\n")
        code, out, err = run(capsys, "reconstruct", "--kernel", "bspline:2",
                             "--samples", str(samples), "--x", "1.5")
        assert (code, out) == (1, "")
        assert err.startswith(f"expsamp: error: cannot decode sample file {str(samples)!r}: ")
        assert "can't decode byte 0xff in position 0" in err


class TestTable:
    def test_published_cells(self, capsys):
        code, out, _ = run(
            capsys, "table", "--kernel", "bspline:2", "--fn", "cos4exp", "--w", "15",
            "--p", "3", "--x", "0.60,0.75,0.80,0.90,0.95",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,abs_err_w15,abs_err_w30,abs_err_w45,abs_err_combo_p3"
        first = [float(v) for v in lines[1].split(",")[1:]]
        for got, want in zip(first, (0.1422, 0.0664, 0.0424, 0.0039)):
            assert abs(got - want) <= 2e-3

    def test_latex_flag(self, capsys):
        code, out, _ = run(capsys, "table", "--kernel", "bspline:2", "--fn", "cos4exp",
                           "--w", "15", "--p", "2", "--x", "0.6", "--format", "latex")
        assert code == 0
        assert out.startswith("\\begin{tabular}")

    def test_csv_output(self, capsys):
        table = make_table(get_function("cos4exp"), parse_kernel_spec("bspline:2"),
                           solve_coefficients(2), 15.0, [0.6, 0.9])
        code, out, _ = run(capsys, "table", "--kernel", "bspline:2", "--fn", "cos4exp",
                           "--w", "15", "--p", "2", "--x", "0.6,0.9")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,abs_err_w15,abs_err_w30,abs_err_combo_p2"
        assert len(lines) == 3
        assert all(len(line.split(",")) == 4 for line in lines[1:])
        for line, row in zip(lines[1:], table):
            assert all(abs(float(cell) - v) <= 5e-5 for cell, v in zip(line.split(",")[1:], row))

    def test_latex_output(self, capsys):
        """One tabular row per line of the CSV: the same cells, with the
        labels' underscores escaped."""
        (row,) = make_table(get_function("cos4exp"), parse_kernel_spec("bspline:2"),
                            solve_coefficients(2), 15.0, [0.6])
        code, out, _ = run(capsys, "table", "--kernel", "bspline:2", "--fn", "cos4exp",
                           "--w", "15", "--p", "2", "--x", "0.6", "--format", "latex")
        assert code == 0
        assert out.startswith("\\begin{tabular}")
        assert out.rstrip().endswith("\\end{tabular}")
        cells = " & ".join(f"{v:.4f}" for v in row)
        assert out.split("\n") == [
            "\\begin{tabular}{|l|l|l|l|}", "\\hline",
            "$x$ & abs\\_err\\_w15 & abs\\_err\\_w30 & abs\\_err\\_combo\\_p2 \\\\", "\\hline",
            f"0.6 & {cells} \\\\", "\\hline",
            "\\end{tabular}", "",
        ]

    def test_header_from_the_rates(self, capsys):
        """One column per rate of the scheme, w and 2w printed with :g, then
        the combination; LaTeX escapes each label's underscores."""
        flags = ("table", "--kernel", "bspline:2", "--fn", "cos4exp", "--w", "15.5", "--p", "2",
                 "--x", "0.6,0.9")
        code, out, _ = run(capsys, *flags)
        assert code == 0
        assert out.split("\n")[0] == "x,abs_err_w15.5,abs_err_w31,abs_err_combo_p2"
        code, out, _ = run(capsys, *flags, "--format", "latex")
        assert code == 0
        assert out.split("\n")[2] == (
            "$x$ & abs\\_err\\_w15.5 & abs\\_err\\_w31 & abs\\_err\\_combo\\_p2 \\\\")


class TestStudies:
    def test_converge_json(self, capsys):
        code, out, _ = run(
            capsys, "converge", "--kernel", "bspline:2", "--fn", "cos4exp",
            "--w-list", "10,20,40,80,160", "--grid-points", "101",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["w_list"] == [10.0, 20.0, 40.0, 80.0, 160.0]
        assert len(payload["errors"]) == 5
        assert abs(payload["fitted_order"] - 1.0) < 0.15
        assert payload["infinite_order"] is False

    def test_converge_infinite_order(self, capsys):
        code, out, _ = run(
            capsys, "converge", "--kernel", "bspline:2", "--fn", "log",
            "--w-list", "10,20,40,80,160", "--p", "2", "--grid-points", "51",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["infinite_order"] is True
        assert payload["fitted_order"] is None

    def test_voronovskaya_json(self, capsys):
        code, out, _ = run(
            capsys, "voronovskaya", "--kernel", "bspline:4", "--fn", "log2",
            "--x", "2.0", "--w-list", "10,20,40,80,160",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["predicted_limit"] == pytest.approx(math.log(2.0), rel=1e-10)
        assert len(payload["scaled_errors"]) == 5
        assert payload["deviations"][-1] < 0.02 * payload["predicted_limit"]

    def test_converge_single_grid_point(self, capsys):
        """One grid point is no sup over f's interval: it is refused, where it
        once fitted an order to the error at the interval's lower end."""
        assert run(capsys, "converge", "--kernel", "bspline:2", "--fn", "log2",
                   "--w-list", "10,20,40,80,160", "--grid-points", "1") == (
            1, "", "expsamp: error: --grid-points must be at least 2, got 1\n")

    def test_combination_coefficients_printed(self, capsys):
        """Exact rationals ('-1/6' style) alongside decimals whenever a
        combination size is requested."""
        code, out, _ = run(
            capsys, "converge", "--kernel", "bspline:4", "--fn", "log2",
            "--w-list", "10,20,40,80,160", "--p", "4", "--grid-points", "21",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["combination"]["coefficients"] == ["-1/6", "4", "-27/2", "32/3"]
        assert payload["combination"]["coefficients_decimal"][0] == pytest.approx(-1.0 / 6.0)


class TestBounds:
    def test_first_order_json(self, capsys):
        code, out, _ = run(capsys, "bounds", "--kernel", "bspline:2", "--fn", "cos4exp",
                           "--w", "15", "--x", "0.75")
        assert code == 0
        payload = json.loads(out)
        assert payload["satisfied"] is True
        assert payload["lhs"] <= payload["rhs"]

    def test_moment_precondition_exit_code(self, capsys):
        code, _, err = run(capsys, "bounds", "--kernel", "bspline:2", "--fn", "log3",
                           "--w", "10", "--x", str(math.exp(0.05)), "--check", "moment",
                           "--r", "3")
        assert code == 2
        assert "precondition" in err

    def test_lower_moment_read_exactly_below_the_order(self, capsys):
        """m_1 is 0 for every kernel of order 2 and up; summed at x^w for this
        combo, it once read 1.419e-10 at x = 1.268 and the request exited 2."""
        code, out, err = run(capsys, "bounds", "--kernel", "combo:6:e^998:e^1000", "--fn", "log3",
                             "--w", "2000", "--x", "1.268", "--check", "moment", "--r", "2")
        assert (code, err) == (0, "")
        assert json.loads(out)["bound"] == "vanishing_moment:r=2"

    @pytest.mark.parametrize(
        "flags",
        [
            ("--kernel", "bspline:2", "--fn", "const:2", "--w", "10", "--x", "1.5"),
            ("--kernel", "bspline:4", "--fn", "log2", "--w", "20", "--x", "2.0"),
        ],
    )
    def test_first_is_the_p1_combination(self, capsys, flags):
        """--check first reports what --check combo --p 1 reports, bar the
        bound's name and the scheme; for a reproduced constant both sides
        are 0 and the bound holds."""
        _, first, _ = run(capsys, "bounds", *flags, "--check", "first")
        _, combo, _ = run(capsys, "bounds", *flags, "--check", "combo", "--p", "1")
        first, combo = json.loads(first), json.loads(combo)
        assert first.pop("bound") == "first_order"
        assert combo.pop("bound") == "combination:p=1"
        assert combo.pop("combination")["p"] == 1
        assert first == combo
        assert first["satisfied"] is True

    @pytest.mark.parametrize(
        "flags, name",
        [
            (("--check", "first"), "first_order"),
            (("--check", "combo", "--p", "1"), "combination:p=1"),
            (("--check", "combo", "--p", "3"), "combination:p=3"),
            (("--check", "moment", "--r", "1"), "vanishing_moment:r=1"),
            (("--check", "moment", "--r", "2"), "vanishing_moment:r=2"),
            (("--check", "moment", "--r", "3"), "vanishing_moment:r=3"),
        ],
    )
    def test_bound_named_first(self, capsys, flags, name):
        """The CLI names each bound, as the payload's first key.  At w log x
        = 7 the order-2 spline's m_1 and m_2 vanish, so r = 3 is admissible."""
        code, out, _ = run(capsys, "bounds", "--kernel", "bspline:2", "--fn", "log3", "--w", "20",
                           "--x", repr(math.exp(7 / 20)), *flags)
        assert code == 0
        payload = json.loads(out)
        assert list(payload)[0] == "bound"
        assert payload["bound"] == name

    @pytest.mark.parametrize(
        "flags, flag, reader, check",
        [
            (("--check", "first", "--r", "7", "--p", "9"), "--r", "moment", "first"),
            (("--r", "2"), "--r", "moment", "first"),
            (("--check", "combo", "--p", "2", "--r", "2"), "--r", "moment", "combo"),
            (("--check", "first", "--p", "1"), "--p", "combo", "first"),
            (("--check", "moment", "--r", "2", "--p", "1"), "--p", "combo", "moment"),
        ],
        ids=["first-r-p", "default-check-r", "combo-r", "first-p", "moment-p"],
    )
    def test_flag_of_another_check_refused(self, capsys, flags, flag, reader, check):
        """--r is read by --check moment only and --p by --check combo only;
        given to another check, either is refused, not ignored."""
        message = f"{flag} applies only to --check {reader}, not --check {check}"
        assert run(capsys, "bounds", "--kernel", "bspline:3", "--fn", "log2", "--w", "20",
                   "--x", "1.5", *flags) == (1, "", f"expsamp: error: {message}\n")

    @pytest.mark.parametrize("check, given, default", [("moment", ("--r", "2"), "vanishing_moment:r=2"),
                                                       ("combo", ("--p", "1"), "combination:p=1")])
    def test_omitted_flag_is_the_default(self, capsys, check, given, default):
        argv = ("bounds", "--kernel", "bspline:3", "--fn", "log2", "--w", "20", "--x", "1.5",
                "--check", check)
        code, out, _ = run(capsys, *argv)
        assert (code, json.loads(out)["bound"]) == (0, default)
        assert run(capsys, *argv, *given) == (0, out, "")

    @pytest.mark.parametrize("fn", ["log", "log2", "log3", "const:2.5"])
    @pytest.mark.parametrize("kernel", ["bspline:1", "bspline:2"])
    def test_order_3_for_the_log_family(self, capsys, fn, kernel):
        """The order-3 K-functional asks for theta^4 f, which no built-in
        carries; for c (log x)^p it is exactly 0, so K_upper and rhs are 0."""
        code, out, err = run(capsys, "bounds", "--kernel", kernel, "--fn", fn, "--w", "20",
                             "--x", "1.4190675485932573", "--check", "moment", "--r", "3")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["bound"] == "vanishing_moment:r=3"
        assert payload["details"]["K_upper"] == 0.0
        assert payload["rhs"] == 0.0
        assert payload["satisfied"] is True

    @pytest.mark.parametrize(
        "fn, argv",
        [(fn, ("bounds", "--kernel", "bspline:2", "--w", "20", "--x", "1.4190675485932573",
               "--check", "moment", "--r", "3")) for fn in ("cos4exp", "sinmix")]
        + [(fn, ("voronovskaya", "--kernel", "bspline:2", "--x", "1.7", "--w-list", "10,20,40,80",
                 "--p", "4")) for fn in ("log3", "cos4exp", "sinmix")],
        ids=["bounds-r3-cos4exp", "bounds-r3-sinmix", "voronovskaya-p4-log3",
             "voronovskaya-p4-cos4exp", "voronovskaya-p4-sinmix"],
    )
    def test_theta_4_refused_elsewhere(self, capsys, fn, argv):
        """Only the log family's order-3 bound takes theta^4 as 0; other
        functions, and a voronovskaya of order 4, still name it missing."""
        code, out, err = run(capsys, *argv, "--fn", fn)
        assert (code, out) == (1, "")
        assert err == f"expsamp: error: {fn}: Mellin derivative of order 4 not available\n"

    @pytest.mark.parametrize("check", ["first", "combo", "moment"])
    def test_smallest_admissible_rate(self, capsys, check):
        """The norms are taken within a margin (radius + 1)/w <= 1 of f's
        interval: w = radius + 1 is accepted, the next float below is not."""
        flags = ("--kernel", "bspline:2", "--fn", "sinmix", "--x", "1.5", "--check", check)
        code, out, _ = run(capsys, "bounds", *flags, "--w", "2.0")
        assert code == 0
        assert json.loads(out)["satisfied"] is True
        below = repr(math.nextafter(2.0, 0.0))
        code, out, err = run(capsys, "bounds", *flags, "--w", below)
        assert (code, out) == (1, "")
        assert f"rate w={below} is too small" in err
        assert "the smallest admissible w is 2.0" in err

    def test_vacuous_small_rate_refused(self, capsys):
        """At w = 0.02 the norms ran over about [6e-44, 1e44], and a right
        side of 6.8e92 was reported as satisfied."""
        code, out, err = run(capsys, "bounds", "--kernel", "bspline:2", "--fn", "sinmix",
                             "--w", "0.02", "--x", "1.5")
        assert (code, out) == (1, "")
        assert err.startswith("expsamp: error: rate w=0.02 is too small")
        assert "the smallest admissible w is 2.0" in err

    def test_vanishing_derivative_gives_zero_right_side(self, capsys):
        """theta^3 (log x)^2 is exactly 0, so the K-functional bound and the
        right side are 0.0, not the round-off of cancelling terms."""
        code, out, _ = run(capsys, "bounds", "--kernel", "bspline:3", "--fn", "log2",
                           "--w", "39.85", "--x", "2.2585", "--check", "moment", "--r", "2")
        assert code == 0
        assert '"rhs": 0.0' in out
        assert json.loads(out)["details"]["K_upper"] == 0.0

    def test_combo_not_applicable(self, capsys):
        code, out, _ = run(capsys, "bounds", "--kernel", "bspline:4", "--fn", "log2",
                           "--w", "20", "--x", "2.0", "--check", "combo", "--p", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["satisfied"] is None

    def test_norms_cover_x(self, capsys):
        """The norms are taken over f's interval and x, widened: at x = 5,
        beyond sinmix's [pi/2, 4], up to 5 e^(2.5/40); at x = 2, inside it,
        up to 4 e^(2.5/40) as before."""
        flags = ("bounds", "--kernel", "bspline:3", "--fn", "sinmix", "--w", "40")
        for x, interval, rhs in [("5", "[1.47563, 5.32247]", 0.4145192107356028),
                                 ("2", "[1.47563, 4.25798]", 0.2502426467021938)]:
            code, out, _ = run(capsys, *flags, "--x", x)
            assert code == 0
            payload = json.loads(out)
            assert payload["surrogate_desc"].endswith(f"norms on {interval}")
            assert payload["rhs"] == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize(
        "kernel, fn, w, x, interval",
        [
            ("bspline:3", "sinmix", "40", "1e200", "[1.47563, 1.06449e+200]"),  # was lhs 2e198, rhs 0.25
            ("bspline:2", "cos4exp", "40", "360", "[0.475615, 378.458]"),  # exp(2x) raises there
            ("bspline:1", "log3", "9", "1.6015964810437868e+308", "[0.423241, inf]"),
        ],
        ids=["sinmix-theta-inf", "cos4exp-overflow-error", "interval-beyond-floats"],
    )
    def test_norms_overflow_outside_f_interval(self, capsys, kernel, fn, w, x, interval):
        """Where x lies beyond f's interval and the norms overflow there,
        x is named, not the rate."""
        code, out, err = run(capsys, "bounds", "--kernel", kernel, "--fn", fn, "--w", w, "--x", x)
        assert (code, out) == (1, "")
        assert err == (f"expsamp: error: the K-functional upper bound overflows on {interval}, "
                       f"f's interval widened to cover x={float(x):g}\n")


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--kernel", "bspline:99", "--fn", "log", "--w", "5", "--x", "1,2"),
            ("eval", "--kernel", "gauss:2", "--fn", "log", "--w", "5", "--x", "1,2"),
            ("eval", "--kernel", "bspline:2", "--fn", "nosuch", "--w", "5", "--x", "1,2"),
            ("eval", "--kernel", "bspline:2", "--fn", "log", "--w", "5", "--x", "2.0:1.0:0.1"),
            ("eval", "--kernel", "bspline:2", "--fn", "log", "--w", "5", "--x", "1.0:2.0:abc"),
            ("converge", "--kernel", "bspline:2", "--fn", "log", "--w-list", "40,20,10"),
            ("eval", "--kernel", "bspline:2", "--fn", "log", "--w", "5"),
            ("kernel-info", "--kernel", "bspline:1_0"),
        ],
    )
    def test_exit_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.strip()

    def test_offending_token_reported(self, capsys):
        code, _, err = run(capsys, "eval", "--kernel", "bspline:2", "--fn", "log",
                           "--w", "5", "--x", "1.0:2.0:abc")
        assert code == 1
        assert "abc" in err

    def test_bad_rate_names_the_token(self, capsys):
        code, out, err = run(capsys, "converge", "--kernel", "bspline:2", "--fn", "log",
                             "--w-list", "10,20,4o,80,160")
        assert (code, out) == (1, "")
        assert err == "expsamp: error: rate list '10,20,4o,80,160': bad number '4o' at position 6\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--x", "1,,2"), "point list '1,,2': bad number '' at position 2"),
            (("--x", "1::2"), "range '1::2': bad number '' at position 2"),
            (("--x", "inf,in"), "point list 'inf,in': bad number 'in' at position 4"),
            (("--x", "1, abc"), "point list '1, abc': bad number 'abc' at position 3"),
            (("--w-list", "10,20,40,80,160,"), "rate list '10,20,40,80,160,': bad number '' at position 16"),
            (("--w-list", "10, 2x ,40"), "rate list '10, 2x ,40': bad number '2x' at position 4"),
        ],
        ids=["empty-point", "empty-range-field", "token-inside-earlier", "spaced-point",
             "trailing-comma-rate", "spaced-rate"],
    )
    def test_bad_number_position(self, capsys, flags, message):
        """The position is where the bad field sits in the flag's text, not
        where the same characters first occur."""
        common = ("--kernel", "bspline:2", "--fn", "log")
        command = ("converge", *common) if flags[0] == "--w-list" else ("eval", *common, "--w", "5")
        assert run(capsys, *command, *flags) == (1, "", f"expsamp: error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("eval", "--fn", "log", "--w", "5", "--x", "1:2"),
             "range '1:2': want lo:hi:step with 3 fields, got 2"),
            (("eval", "--fn", "log", "--w", "5", "--x", "1:2:0"), "range '1:2:0': step must be positive"),
            (("bounds", "--fn", "log3", "--w", "20", "--x", "1.5", "--check", "moment", "--r", "4"),
             "bound order r=4 not in 1..3"),
            (("converge", "--fn", "log", "--w-list", "10,20,40,80,160", "--grid-points", "0"),
             "--grid-points must be at least 2, got 0"),
            (("converge", "--fn", "log", "--w-list", "10,20,40,80,160", "--grid-points", "-1"),
             "--grid-points must be at least 2, got -1"),
        ],
        ids=["two-field-range", "zero-step", "bound-order", "no-grid-points", "negative-grid-points"],
    )
    def test_refusal_named(self, capsys, argv, message):
        assert run(capsys, argv[0], "--kernel", "bspline:2", *argv[1:]) == (
            1, "", f"expsamp: error: {message}\n")

    @pytest.mark.parametrize("command", ["kernel-info", "moments"])
    @pytest.mark.parametrize("nu_max", ["-1", "9"])
    def test_moment_order_range(self, capsys, command, nu_max):
        code, out, err = run(capsys, command, "--kernel", "bspline:2", "--nu-max", nu_max)
        assert (code, out) == (1, "")
        assert f"--nu-max must be in 0..8, got {nu_max}" in err

    @pytest.mark.parametrize("before, after", [(("--config", "run.cfg"), ()),
                                               ((), ("--config", "run.cfg"))],
                             ids=["before-subcommand", "after-subcommand"])
    def test_config_refused(self, capsys, tmp_path, monkeypatch, before, after):
        """Flags come from the command line alone: --config is a usage error
        wherever it stands, and nothing is computed or written."""
        monkeypatch.chdir(tmp_path)
        Path("run.cfg").write_text("format=text\n")
        code, out, err = run(capsys, *before, "eval", "--kernel", "bspline:2", "--fn", "log",
                             "--w", "10", "--x", "2", "--output", "out.csv", *after)
        assert (code, out) == (1, "")
        assert err.startswith("expsamp: error: ")
        assert sorted(os.listdir()) == ["run.cfg"]

    @pytest.mark.parametrize("lead", [("--bogus", "x"), ("--config", "f"), ("--bogus",),
                                      ("--he",), ("--vers",), ("--v",)],
                             ids=["bogus-value", "config-value", "bare-bogus",
                                  "help-prefix", "version-prefix", "ambiguous-prefix"])
    def test_unknown_option_before_subcommand_named(self, capsys, tmp_path, monkeypatch, lead):
        """An unknown option before the subcommand is named itself, not its
        value taken for the subcommand; nothing is computed or written.  A
        prefix of --help or --version is such an option."""
        monkeypatch.chdir(tmp_path)
        assert run(capsys, *lead, "eval", "--kernel", "bspline:2", "--fn", "log", "--w", "10",
                   "--x", "2", "--output", "out.csv") == (
            1, "", f"expsamp: error: unrecognized arguments: {lead[0]}\n")
        assert os.listdir() == []

    @pytest.mark.parametrize("flag", ["-h", "--help", "--version"])
    def test_top_level_options_still_lead(self, capsys, flag):
        """-h, --help and --version still stand before the subcommand."""
        from expsamp import __version__
        with pytest.raises(SystemExit) as exc:
            main([flag])
        out = capsys.readouterr().out
        assert exc.value.code == 0
        assert out == f"expsamp {__version__}\n" if "v" in flag else out.startswith("usage: expsamp ")

    def test_quad_nodes_only_where_declared(self, capsys, tmp_path):
        """kernel-info and moments compute no cell means and refuse
        --quad-nodes; reconstruct, whose file holds its means, accepts and
        ignores it."""
        for argv in (("kernel-info", "--kernel", "bspline:2", "--quad-nodes", "-5"),
                     ("moments", "--kernel", "bspline:2", "--quad-nodes", "7")):
            assert run(capsys, *argv) == (
                1, "", f"expsamp: error: unrecognized arguments: {' '.join(argv[3:])}\n")
        samples = tmp_path / "s.csv"
        samples.write_text("# w=10.0\nk,mean\n" + "".join(f"{k},1.0\n" for k in range(-5, 15)))
        argv = ("reconstruct", "--kernel", "bspline:2", "--samples", str(samples), "--x", "1.5")
        assert run(capsys, *argv) == run(capsys, *argv, "--quad-nodes", "0") == (0, "x,approx\n1.5,1\n", "")

    def test_bare_const_refused(self, capsys):
        """A constant is spelled const:<c> only."""
        assert run(capsys, "eval", "--kernel", "bspline:2", "--fn", "const", "--w", "10", "--x", "2") == (
            1, "", "expsamp: error: unknown function 'const' "
                   "(known: cos4exp, log, log2, log3, sinmix, const:<c>)\n")


def _subcommand_parsers() -> dict:
    (subparsers,) = (a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return subparsers.choices


def _abbreviations() -> list[tuple[str, str]]:
    """(subcommand, prefix) for every proper prefix, of at least three
    characters, of a declared long flag that is not itself a declared flag."""
    cases = []
    for command, parser in _subcommand_parsers().items():
        flags = {f for f in parser._option_string_actions if f.startswith("--")}
        cases += [(command, prefix) for prefix in sorted({f[:n] for f in flags for n in range(3, len(f))})
                  if prefix not in flags]
    return cases


class TestExactFlags:
    """Every flag answers to its declared name only: argparse's prefix
    matching is off, so an abbreviation is an unknown option, refused with
    exit 1 before anything is computed or written."""

    SAMPLES = "# w=10.0\nk,mean\n" + "".join(f"{k},1.0\n" for k in range(-5, 15))
    # a request that succeeds, with a value for every flag of its subcommand
    # but --help and bounds' --p, which has no prefix of three characters
    ACCEPTED = {
        "kernel-info": ("--kernel", "bspline:2", "--nu-max", "2", "--format", "text"),
        "moments": ("--kernel", "bspline:2", "--nu-max", "2", "--u", "1.5", "--format", "text"),
        "eval": ("--kernel", "bspline:2", "--fn", "log3", "--w", "20", "--x", "1.5",
                 "--quad-nodes", "7", "--format", "text", "--emit-samples", "emitted.csv"),
        "reconstruct": ("--kernel", "bspline:2", "--samples", "s.csv", "--x", "1.5",
                        "--quad-nodes", "7"),
        "table": ("--kernel", "bspline:2", "--fn", "log", "--w", "10", "--p", "2", "--x", "1.5",
                  "--quad-nodes", "7", "--format", "latex"),
        "converge": ("--kernel", "bspline:2", "--fn", "log2", "--w-list", "10,20,40,80,160",
                     "--p", "2", "--grid-points", "11", "--quad-nodes", "7"),
        "voronovskaya": ("--kernel", "bspline:2", "--fn", "log", "--x", "1.5", "--w-list", "10,20,40,80",
                         "--p", "2", "--quad-nodes", "7"),
        "bounds": ("--kernel", "bspline:4", "--fn", "log3", "--w", "20", "--x", "1.5",
                   "--check", "moment", "--r", "2", "--quad-nodes", "7"),
    }

    def test_every_flag_of_every_subcommand_covered(self):
        assert sorted(self.ACCEPTED) == sorted(_subcommand_parsers())
        for command, parser in _subcommand_parsers().items():
            flags = {f for f in parser._option_string_actions if f.startswith("--")}
            assert flags - set(self.ACCEPTED[command]) - {"--help", "--output", "--p"} == set()
        # 232: converge's and voronovskaya's --w, a prefix of their --w-list, count too
        assert len(_abbreviations()) == 232

    @pytest.mark.parametrize("command", sorted(ACCEPTED))
    def test_declared_names_accepted(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        Path("s.csv").write_text(self.SAMPLES)
        assert run(capsys, command, *self.ACCEPTED[command], "--output", "out.txt") == (0, "", "")
        assert Path("out.txt").read_text()

    @pytest.mark.parametrize("command, prefix", _abbreviations(), ids=" ".join)
    def test_abbreviation_refused(self, capsys, tmp_path, monkeypatch, command, prefix):
        """The prefix stands after a request that succeeds, with the value its
        flag was given there; with prefix matching on, the request would still
        succeed, or name the prefix ambiguous."""
        monkeypatch.chdir(tmp_path)
        Path("s.csv").write_text(self.SAMPLES)
        accepted = self.ACCEPTED[command]
        named = [f for f in _subcommand_parsers()[command]._option_string_actions if f.startswith(prefix)]
        extra = (prefix, accepted[accepted.index(named[0]) + 1]) if (
            len(named) == 1 and named[0] in accepted) else (prefix,)
        assert run(capsys, command, *accepted, "--output", "out.txt", *extra) == (
            1, "", f"expsamp: error: unrecognized arguments: {' '.join(extra)}\n")
        assert os.listdir() == ["s.csv"]


class TestNonFiniteInputs:
    """Inputs outside 0 < value < inf end in exit 1 and a message naming the
    value, not a traceback."""

    @pytest.mark.parametrize(
        "flags, named",
        [
            (("--w", "10", "--x", "inf"), "evaluation point must be positive and finite, got inf"),
            (("--w", "10", "--x", "nan"), "evaluation point must be positive and finite, got nan"),
            (("--w", "inf", "--x", "1.5"), "sampling rate w must be positive and finite, got inf"),
            (("--w", "nan", "--x", "1.5"), "sampling rate w must be positive and finite, got nan"),
            # w * log(x) overflows although both are finite
            (("--w", "1e308", "--x", "1e10"), "window position t must be finite, got inf"),
            # finite w * log(x) whose fractional part is lost: the sum would
            # print 2.079 against log(2) = 0.693
            (("--w", "1e308", "--x", "2"), "w*log(x) = 6.931471805599452e+307 is too large"),
            (("--w", "10", "--x", "1:inf:1"), "range '1:inf:1': hi must be finite, got inf"),
            (("--w", "10", "--x=-inf:2:1"), "range '-inf:2:1': lo must be finite, got -inf"),
            (("--w", "10", "--x", "1:2:nan"), "range '1:2:nan': step must be finite, got nan"),
            (("--w", "10", "--x", "1:2:inf"), "range '1:2:inf': step must be finite, got inf"),
            (("--w", "10", "--x", "1:1e300:1e-10"), "too many points, (hi - lo) / step = inf"),
        ],
    )
    def test_eval(self, capsys, flags, named):
        code, out, err = run(capsys, "eval", "--kernel", "bspline:2", "--fn", "log", *flags)
        assert code == 1
        assert out == ""
        assert named in err

    def test_window_position_tolerance_boundary(self, capsys):
        """At x = e, w*log(x) = w: 2^23 - 1 is evaluated, 2^23 refused."""
        x = repr(math.e)
        code, out, err = run(capsys, "eval", "--kernel", "bspline:2", "--fn", "log",
                             "--w", "8388607", "--x", x)
        assert (code, err) == (0, "")
        assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(1.0 + 0.5 / 8388607)
        code, out, err = run(capsys, "eval", "--kernel", "bspline:2", "--fn", "log",
                             "--w", "8388608", "--x", x)
        assert (code, out) == (1, "")
        assert "w*log(x) = 8388608.0 is too large" in err

    @pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
    def test_constant_function(self, capsys, c):
        code, out, err = run(capsys, "eval", "--kernel", "bspline:2", "--fn", f"const:{c}",
                             "--w", "10", "--x", "2")
        assert (code, out) == (1, "")
        assert f"'const:{c}' must be finite, got {c}" in err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("voronovskaya", "--x", "0", "--w-list", "10,20,40,80"),
             "evaluation point must be positive and finite, got 0.0"),
            (("voronovskaya", "--x", "0", "--w-list", "10,20,40,80", "--p", "2"),
             "evaluation point must be positive and finite, got 0.0"),
            (("bounds", "--x", "-1", "--w", "10"),
             "evaluation point must be positive and finite, got -1.0"),
            (("bounds", "--x", "2", "--w", "nan"),
             "sampling rate w must be positive and finite, got nan"),
            (("bounds", "--x", "2", "--w", "inf", "--check", "combo", "--p", "2"),
             "sampling rate w must be positive and finite, got inf"),
            (("bounds", "--x", "inf", "--w", "10", "--check", "moment", "--r", "1"),
             "evaluation point must be positive and finite, got inf"),
            (("converge", "--w-list", "10,20,nan,40,80"),
             "sampling rate w must be positive and finite, got nan"),
            # the rate list is checked once, by the study, which names the value
            (("converge", "--w-list", "10,20,40,80,40"), "strictly increasing"),
            (("voronovskaya", "--x", "2", "--w-list=-10,20,40,80"), "got -10.0"),
        ],
    )
    def test_studies(self, capsys, argv, named):
        code, out, err = run(capsys, argv[0], "--kernel", "bspline:2", "--fn", "log", *argv[1:])
        assert (code, out) == (1, "")
        assert named in err

    @pytest.mark.parametrize("u", ["inf", "nan"])
    def test_moment_location(self, capsys, u):
        code, out, err = run(capsys, "moments", "--kernel", "bspline:2", "--u", u)
        assert code == 1
        assert out == ""
        assert f"moment location u must be positive and finite, got {u}" in err

    def test_sample_indices_far_apart(self, capsys, tmp_path):
        """Two rows 10^12 cells apart are refused as a gap at once; the check
        reads the rows, not the 10^12 indices between them."""
        samples = tmp_path / "s.csv"
        samples.write_text("# w=10.0\nk,mean\n0,1.0\n1000000000000,1.0\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "reconstruct", "--kernel", "bspline:2",
                             "--samples", str(samples), "--x", "1.0")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert "sample series has gaps at k=[1, 2, 3, 4, 5, 6, 7, 8]" in err

    def test_non_finite_sample_mean(self, capsys, tmp_path):
        samples = tmp_path / "s.csv"
        samples.write_text("# w=10.0\nk,mean\n-1,0.5\n0,nan\n1,0.5\n")
        code, out, err = run(capsys, "reconstruct", "--kernel", "bspline:2",
                             "--samples", str(samples), "--x", "1.0")
        assert code == 1
        assert out == ""
        assert "line 4: mean value must be finite" in err


class TestGridSize:
    """An evaluation grid holds at most 1,000,000 points, and an emitted
    sample series at most 1,000,000 cells; a larger one is refused before
    any of it is allocated or computed."""

    def test_range_boundary(self):
        assert len(_parse_x_values("1:1000000:1")) == _MAX_GRID_POINTS == 1_000_000
        with pytest.raises(UsageError, match=re.escape(
                "range '1:1000001:1': 1000001 points, more than the 1000000 allowed")):
            _parse_x_values("1:1000001:1")

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("eval", "--fn", "log", "--w", "10", "--x", "1:2:1e-10"),
             "range '1:2:1e-10': 10000000001 points, more than the 1000000 allowed"),
            (("table", "--fn", "log", "--w", "10", "--p", "2", "--x", "1:1000001:1"),
             "range '1:1000001:1': 1000001 points, more than the 1000000 allowed"),
            (("converge", "--fn", "log", "--w-list", "10,20,40", "--grid-points", "1000001"),
             "--grid-points: 1000001 points, more than the 1000000 allowed"),
            (("eval", "--fn", "log", "--w", "10", "--x", "0.1:0.2:1e-300"),
             "range '0.1:0.2:1e-300': about 10^299 points, more than the 1000000 allowed"),
            (("converge", "--fn", "log", "--w-list", "10,20,40", "--grid-points", "1" + "0" * 400),
             "--grid-points: about 10^400 points, more than the 1000000 allowed"),
        ],
    )
    def test_refused(self, capsys, argv, named):
        code, out, err = run(capsys, argv[0], "--kernel", "bspline:2", *argv[1:])
        assert (code, out) == (1, "")
        assert err == f"expsamp: error: {named}\n"

    def test_long_count_shown_by_its_power_of_ten(self):
        """A count of up to 14 digits is printed in full, a longer one as the
        power of ten below it."""
        with pytest.raises(UsageError, match="^grid: 99999999999999 points, "):
            _check_grid_size(10**14 - 1, "grid")
        for count, power in ((10**14, 14), (10**15 - 1, 14), (7 * 10**299 + 1, 299)):
            with pytest.raises(UsageError, match=f"^grid: about 10\\^{power} points, "):
                _check_grid_size(count, "grid")

    # bspline:2 at w = 10000 covers cells -2 .. floor(10000 log x) + 2 for
    # x in [1, x_max]: 999995 + 5 cells at the first end, one more at the second
    SERIES_AT_CAP = [1.0, math.exp(99.99955)]
    SERIES_PAST_CAP = [1.0, math.exp(99.99965)]

    def test_series_boundary(self):
        kernel = parse_kernel_spec("bspline:2")
        k_min, k_max = SampleSeries.covering_range(kernel, 10000.0, self.SERIES_AT_CAP)
        assert k_max - k_min + 1 == _MAX_GRID_POINTS
        _check_grid_size(k_max - k_min + 1, "--emit-samples series", "cells")
        k_min, k_max = SampleSeries.covering_range(kernel, 10000.0, self.SERIES_PAST_CAP)
        with pytest.raises(UsageError, match=re.escape(
                "--emit-samples series: 1000001 cells, more than the 1000000 allowed")):
            _check_grid_size(k_max - k_min + 1, "--emit-samples series", "cells")

    def test_series_refused_before_any_cell(self, capsys, tmp_path, monkeypatch):
        def no_cells(*args):
            raise AssertionError("a cell was computed")

        monkeypatch.setattr("expsamp.operators.cell_mean", no_cells)
        monkeypatch.setattr("expsamp.operators._cell_means", no_cells)
        samples = tmp_path / "s.csv"
        xs = ",".join(repr(x) for x in self.SERIES_PAST_CAP)
        code, out, err = run(capsys, "eval", "--kernel", "bspline:2", "--fn", "log",
                             "--w", "10000", "--x", xs, "--emit-samples", str(samples))
        assert (code, out) == (1, "")
        assert err == ("expsamp: error: --emit-samples series: 1000001 cells, "
                       "more than the 1000000 allowed\n")
        assert not samples.exists()


class TestFloatRange:
    """Rates so small that a cell's points e^u leave the float range, and
    functions that overflow, end in exit 1 and a message, not a traceback
    or a non-finite value."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--fn", "log", "--w", "0.001", "--x", "2"),
            ("table", "--fn", "log", "--w", "0.001", "--x", "2", "--p", "2"),
            ("bounds", "--fn", "log", "--w", "0.001", "--x", "2"),
            ("voronovskaya", "--fn", "log", "--x", "2", "--w-list", "0.001,0.002,0.004,0.008"),
            ("converge", "--fn", "log", "--w-list", "0.001,0.002,0.004,0.008,0.016"),
            # 1/w is inf: the plain sum printed approx=inf with exit 0
            ("eval", "--fn", "log", "--w", "5e-324", "--x", "2"),
        ],
    )
    def test_rate_too_small(self, capsys, argv):
        code, out, err = run(capsys, argv[0], "--kernel", "bspline:2", *argv[1:])
        assert (code, out) == (1, "")
        assert "beyond the float range" in err and "the rate is too small" in err

    def test_cell_named(self, capsys):
        code, _, err = run(capsys, "eval", "--kernel", "bspline:2", "--fn", "log",
                           "--w", "0.001", "--x", "2")
        assert code == 1
        assert "cell k=0 at w=0.001 spans log x in [0, 1000]" in err

    def test_cell_named_with_emit_samples(self, capsys, tmp_path):
        """The emitted series' cells come first, from the lowest, so the
        refusal names k=-1, the first cell of the window; no file is left."""
        samples = tmp_path / "s.csv"
        code, out, err = run(capsys, "eval", "--kernel", "bspline:2", "--fn", "log",
                             "--w", "0.001", "--x", "2", "--emit-samples", str(samples))
        assert (code, out) == (1, "")
        assert "cell k=-1 at w=0.001 spans log x in [-1000, 0]" in err
        assert not samples.exists()

    def test_f_overflows_on_a_cell(self, capsys):
        code, out, err = run(capsys, "eval", "--kernel", "bspline:2", "--fn", "cos4exp",
                             "--w", "10", "--x", "17553.5")
        assert (code, out) == (1, "")
        assert "cell k=97 at w=10: f overflows" in err

    @pytest.mark.parametrize("x, emit", [("709", False), ("700:712:4", True)])
    def test_f_cannot_be_evaluated_on_a_cell(self, capsys, tmp_path, x, emit):
        """4 exp(e^u) overflows to inf there, and cos(inf) raises a domain
        error, not an overflow: the cell is named all the same."""
        samples = tmp_path / "s.csv"
        code, out, err = run(capsys, "eval", "--kernel", "bspline:2", "--fn", "cos4exp",
                             "--w", "1000", "--x", x,
                             *(["--emit-samples", str(samples)] if emit else []))
        assert (code, out) == (1, "")
        assert err == ("expsamp: error: cell k=6563 at w=1000: f cannot be evaluated on "
                       "log x in [6.563, 6.564] (math domain error)\n")
        assert not samples.exists()

    def test_f_overflows_at_the_point(self, capsys):
        code, out, err = run(capsys, "voronovskaya", "--kernel", "bspline:2", "--fn", "cos4exp",
                             "--x", "17553.5", "--w-list", "10,20,40,80")
        assert (code, out) == (1, "")
        assert "beyond the float range" in err

    def test_largest_constant_reproduced(self, capsys):
        """The halved quadrature weights sum to 1, so the cell sum of a
        constant near the float maximum no longer overflows."""
        code, out, err = run(capsys, "eval", "--kernel", "bspline:2", "--fn", "const:1e308",
                             "--w", "10", "--x", "2")
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "2,1e+308,1e+308,0"

    @staticmethod
    def _values_by_rate(monkeypatch, by_rate):
        """Every operator value at rate r becomes by_rate[r] (1 at other rates): a
        combination whose exact value leaves the float range, which no built-in
        function gives, since each is reproduced by the combined operator."""
        monkeypatch.setattr("expsamp.combinations.apply_grid",
                            lambda f, kernel, cfg, xs: [by_rate.get(cfg.w, 1.0)] * len(xs))

    @staticmethod
    def _exact_results(argv, out):
        """The request's output where every operator value is the exact f(x)."""
        if argv[0] in ("eval", "table"):
            return out.splitlines()[1]
        report = json.loads(out)
        if argv[0] == "bounds":
            return report["lhs"], report["satisfied"]
        return report["errors"]

    def test_combination_overflow(self, capsys, monkeypatch):
        """-1e308 + 2 * 1e308, where the product 2e308 overflows: the exact 1e308."""
        argv = ("table", "--kernel", "bspline:2", "--fn", "const:1e308", "--w", "10", "--x", "2",
                "--p", "2")
        assert run(capsys, *argv) == (
            0, "x,abs_err_w10,abs_err_w20,abs_err_combo_p2\n2,0.0000,0.0000,0.0000\n", "")
        self._values_by_rate(monkeypatch, {10.0: -1.7e308, 20.0: 1.7e308})
        assert run(capsys, *argv) == (1, "", "expsamp: error: the p=2 combination overflows "
                                             "at values [-1.7e+308, 1.7e+308]\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "--w", "10", "--x", "1"),
            ("converge", "--w-list", "10,20,40,80,160"),
            ("voronovskaya", "--x", "1", "--w-list", "10,20,40,80"),
            ("bounds", "--w", "10", "--x", "1", "--check", "combo"),
        ],
    )
    def test_combination_terms_of_both_signs_overflow(self, capsys, monkeypatch, argv):
        """At p = 3 the terms c_i * 1e308 are +inf and -inf, where math.fsum
        raises its own "-inf + inf in fsum", yet the combination is exactly
        1e308 and every error 0.  A combination past the float range, 1/2 *
        1.7e308 + 9/2 * 3.9e307, is refused naming p and the values."""
        argv = (argv[0], "--kernel", "bspline:2", "--fn", "const:1e308", "--p", "3", *argv[1:])
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        want = {"table": "1,0.0000,0.0000,0.0000,0.0000", "converge": [0.0] * 5,
                "voronovskaya": [0.0] * 4, "bounds": (0.0, None)}
        assert self._exact_results(argv, out) == want[argv[0]]
        self._values_by_rate(monkeypatch, {10.0: 1.7e308, 20.0: 0.0, 30.0: 3.9e307})
        assert run(capsys, *argv) == (1, "", "expsamp: error: the p=3 combination overflows "
                                             "at values [1.7e+308, 0.0, 3.9e+307]\n")

    @pytest.mark.parametrize(
        "argv, x",
        [
            (("eval", "--w", "10", "--x", "2"), "2"),
            (("table", "--w", "10", "--p", "2", "--x", "2"), "2"),
            (("voronovskaya", "--x", "3.7", "--w-list", "3.7,7.4,14.8,29.6,59.2"), "3.7"),
            (("bounds", "--w", "1", "--x", "1e6", "--check", "combo", "--p", "3"), "1e+06"),
        ],
    )
    def test_operator_sum_overflows_in_fsum(self, capsys, monkeypatch, argv, x):
        """The combo kernel's weights, such as 0.14, 1.79 and -0.93 at x = 2,
        give finite terms whose partial sums pass the float maximum, where
        math.fsum raises its own "intermediate overflow in fsum"; the kernel
        reproduces constants, so the sum is exactly 1e308.  With cell means
        of +-1.7e308 signed as the weights, the sum itself leaves the float
        range and is refused naming its point."""
        argv = (argv[0], "--kernel", "combo:2:e^1:e^2", "--fn", "const:1e308", *argv[1:])
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        want = {"eval": "2,1e+308,1e+308,0", "table": "2,0.0000,0.0000,0.0000",
                "voronovskaya": [0.0] * 5, "bounds": (0.0, None)}
        assert self._exact_results(argv, out) == want[argv[0]]
        kernel = parse_kernel_spec("combo:2:e^1:e^2")
        monkeypatch.setattr(
            "expsamp.operators.cell_mean",
            lambda f, w, k, quad_nodes=7: math.copysign(
                1.7e308, kernel.eval_log(w * math.log(float(x)) - k)))
        assert run(capsys, *argv) == (
            1, "", f"expsamp: error: the operator sum at x={x} overflows the float range\n")

    def test_operator_sum_past_the_range_from_samples(self, capsys, tmp_path):
        """Means of +-1.7e308 whose weighted sum at x = 2 leaves the float range."""
        samples = tmp_path / "s.csv"
        samples.write_text("# w=10.0\nk,mean\n6,-1.7e308\n7,1.7e308\n8,1.7e308\n"
                           "9,-1.7e308\n10,-1.7e308\n")
        assert run(capsys, "reconstruct", "--kernel", "combo:2:e^1:e^2", "--x", "2",
                   "--samples", str(samples)) == (
            1, "", "expsamp: error: the operator sum at x=2 overflows the float range\n")

    @pytest.mark.parametrize(
        "fn, w, x",
        [
            ("sinmix", "0.004855267054199474", "1198386121.1955612"),  # rhs was inf
            ("log3", "0.004743825884045989", "3563397.7335702246"),  # ZeroDivisionError
        ],
    )
    def test_bound_norms_overflow(self, capsys, fn, w, x):
        code, out, err = run(capsys, "bounds", "--kernel", "bspline:2", "--fn", fn,
                             "--w", w, "--x", x)
        assert (code, out) == (1, "")
        assert err.startswith("expsamp: error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ("voronovskaya", "--kernel", "bspline:2", "--fn", "log", "--x", "1",
             "--w-list", "1e200,2e200,4e200,8e200", "--p", "2"),
            ("bounds", "--kernel", "bspline:3", "--fn", "log", "--w", "1e200", "--x", "1",
             "--check", "moment", "--r", "2"),
        ],
    )
    def test_rate_power_overflows(self, capsys, argv):
        """At x = 1 the window admits any w, and w^2 leaves the float range."""
        assert run(capsys, *argv) == (
            1, "", "expsamp: error: w=1e+200 to the power 2 is beyond the float range\n")

    def test_arithmetic_error_backstop(self, capsys, monkeypatch):
        """An ArithmeticError that no refusal names still ends in exit 1."""
        def divide(*args, **kwargs):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(cli, "build_moment_report", divide)
        assert run(capsys, "kernel-info", "--kernel", "bspline:2") == (
            1, "", "expsamp: error: result beyond the float range: float division by zero\n")


class TestStrictJson:
    """JSON output holds finite floats only: a (theta^j f)(x) that x takes
    out of the float range, or cannot evaluate, is refused with exit 1 and
    named, and the writer refuses any other non-finite float."""

    @pytest.mark.parametrize(
        "argv",
        [
            # printed "predicted_limit": Infinity with exit 0
            ("voronovskaya", "--kernel", "bspline:2", "--x", "1e200", "--w-list", "10,20,40,80",
             "--p", "2"),
            # printed "lhs": Infinity with exit 0
            ("bounds", "--kernel", "bspline:3", "--w", "40", "--x", "1e200", "--check", "moment",
             "--r", "2"),
        ],
        ids=["voronovskaya", "bounds-moment"],
    )
    def test_theta_overflow_refused(self, capsys, argv):
        assert run(capsys, *argv, "--fn", "sinmix") == (
            1, "", "expsamp: error: theta^2 sinmix at x=1e+200 is -inf, beyond the float range\n")

    def test_theta_domain_error_named(self, capsys):
        """4 e^709.5 overflows to inf, and sin(inf) is a domain error; it
        was printed bare, as "math domain error"."""
        assert run(capsys, "voronovskaya", "--kernel", "bspline:2", "--fn", "cos4exp",
                   "--x", "709.5", "--w-list", "10,20,40,80") == (
            1, "", "expsamp: error: theta^1 cos4exp cannot be evaluated at x=709.5 "
                   "(math domain error)\n")

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_payload_refused(self, capsys, tmp_path, monkeypatch, value):
        """A bound whose left side is not finite is refused with exit 1, and
        nothing is written, to stdout or to the --output file."""
        monkeypatch.setattr(cli, "combo_bound", lambda *a, **k: BoundReport(value, 1.0, True, ""))
        dest = tmp_path / "out.json"
        argv = ("bounds", "--kernel", "bspline:2", "--fn", "log", "--w", "20", "--x", "1.5")
        for output in ((), ("--output", str(dest))):
            code, out, err = run(capsys, *argv, *output)
            assert (code, out) == (1, "")
            assert "not JSON compliant" in err
        assert not dest.exists()


class TestSingleWrite:
    """Every subcommand computes its values, then writes its text once: the
    --output file holds exactly what stdout would, and a refused request
    writes nothing anywhere."""

    SAMPLES = ("eval", "--kernel", "bspline:2", "--fn", "cos4exp", "--w", "15",
               "--x", "0.5:1.0:0.1", "--emit-samples", "samples.csv")
    CASES = {
        "kernel-info-text": ("kernel-info", "--kernel", "bspline:4", "--format", "text"),
        "kernel-info-json": ("kernel-info", "--kernel", "combo:4:e^1:e^2", "--format", "json"),
        "moments-csv": ("moments", "--kernel", "bspline:3", "--format", "csv"),
        "moments-text": ("moments", "--kernel", "bspline:3", "--format", "text"),
        "moments-json": ("moments", "--kernel", "bspline:3", "--format", "json"),
        "eval-csv": ("eval", "--kernel", "bspline:2", "--fn", "log3", "--w", "20",
                     "--x", "0.5:2:0.25", "--format", "csv"),
        "eval-text": ("eval", "--kernel", "bspline:2", "--fn", "log3", "--w", "20",
                      "--x", "0.5:2:0.25", "--format", "text"),
        "reconstruct": ("reconstruct", "--kernel", "bspline:2", "--samples", "samples.csv",
                        "--x", "0.5:1.0:0.1"),
        "table-csv": ("table", "--kernel", "bspline:2", "--fn", "cos4exp", "--w", "15",
                      "--p", "2", "--x", "0.6,0.9", "--format", "csv"),
        "table-latex": ("table", "--kernel", "bspline:2", "--fn", "cos4exp", "--w", "15",
                        "--p", "2", "--x", "0.6,0.9", "--format", "latex"),
        "converge": ("converge", "--kernel", "bspline:2", "--fn", "log2",
                     "--w-list", "10,20,40,80,160", "--grid-points", "11"),
        "voronovskaya": ("voronovskaya", "--kernel", "bspline:2", "--fn", "log3", "--x", "1.5",
                         "--w-list", "10,20,40,80", "--p", "2"),
        "bounds": ("bounds", "--kernel", "bspline:4", "--fn", "log3", "--w", "20", "--x", "1.5",
                   "--check", "moment", "--r", "2"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_output_file_equals_stdout(self, capsys, tmp_path, monkeypatch, case):
        monkeypatch.chdir(tmp_path)
        if case == "reconstruct":  # reads the samples that eval emits
            assert run(capsys, *self.SAMPLES, "--output", "eval.csv") == (0, "", "")
        argv = self.CASES[case]
        code, stdout, err = run(capsys, *argv)
        assert (code, err) == (0, "") and stdout
        assert run(capsys, *argv, "--output", "out.txt") == (0, "", "")
        assert (tmp_path / "out.txt").read_bytes() == stdout.encode()

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (("eval", "--kernel", "bspline:2", "--fn", "log", "--w", "0.001", "--x", "2"), 1,
             "expsamp: error: cell k=0 at w=0.001 spans log x in [0, 1000]"),
            (("eval", "--kernel", "bspline:2", "--fn", "log", "--w", "0.001", "--x", "2",
              "--emit-samples", "samples.csv"), 1,
             "expsamp: error: cell k=-1 at w=0.001 spans log x in [-1000, 0]"),
            (("voronovskaya", "--kernel", "bspline:2", "--fn", "sinmix", "--x", "1e200",
              "--w-list", "10,20,40,80", "--p", "2"), 1,
             "expsamp: error: theta^2 sinmix at x=1e+200 is -inf, beyond the float range\n"),
            (("bounds", "--kernel", "bspline:2", "--fn", "log3", "--w", "10",
              "--x", str(math.exp(0.05)), "--check", "moment", "--r", "3"), 2,
             "expsamp: precondition failed: "),
            (("reconstruct", "--kernel", "bspline:2", "--samples", "long.csv", "--x", "1.2,1.5"), 1,
             "expsamp: error: line 4: field larger than field limit (131072)\n"),
        ],
        ids=["eval-overflow", "eval-overflow-emit", "voronovskaya-theta", "bounds-precondition",
             "reconstruct-long-field"],
    )
    def test_refusal_writes_nothing(self, capsys, tmp_path, monkeypatch, argv, code, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "long.csv").write_text("# w=4.0\nk,mean\n0,1.0\n1,0." + "1" * 131072 + "\n")
        for output in ((), ("--output", "refused.txt")):
            got, out, err = run(capsys, *argv, *output)
            assert (got, out) == (code, "")
            assert err.startswith(message)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["long.csv"]


class TestNumpyFree:
    """The library and every subcommand run on the standard library alone:
    each command runs in a fresh interpreter that must end without numpy in
    sys.modules.  (Other test files use numpy as an oracle; this one needs
    none, and CI runs it on the installed package without numpy.)"""

    SCRIPT = (
        "import sys, expsamp, expsamp.cli\n"
        "code = expsamp.cli.main(sys.argv[1:])\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        "sys.exit(code)\n"
    )
    COMMANDS = {
        "kernel-info": ["--kernel", "bspline:4"],
        "moments": ["--kernel", "combo:4:e^1:e^2", "--nu-max", "3"],
        "eval": ["--kernel", "bspline:2", "--fn", "cos4exp", "--w", "15", "--x", "0.5:1.0:0.1",
                 "--emit-samples", "samples.csv"],
        "reconstruct": ["--kernel", "bspline:2", "--samples", "samples.csv", "--x", "0.5:1.0:0.1"],
        "table": ["--kernel", "bspline:2", "--fn", "cos4exp", "--w", "15", "--p", "3",
                  "--x", "0.60,0.75,0.80"],
        "converge": ["--kernel", "bspline:4", "--fn", "cos4exp", "--w-list", "10,20,40,80,160",
                     "--p", "3", "--grid-points", "21"],
        "voronovskaya": ["--kernel", "bspline:4", "--fn", "log3", "--x", "2.718281828",
                         "--w-list", "10,20,40,80,160", "--p", "2"],
        "bounds": ["--kernel", "bspline:4", "--fn", "log3", "--w", "20", "--x", "1.5",
                   "--check", "moment", "--r", "2"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_subcommand_imports_no_numpy(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        if command == "reconstruct":  # reads the samples that eval emits
            assert main(["eval", *self.COMMANDS["eval"], "--output", "eval.csv"]) == 0
        env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, command, *self.COMMANDS[command]],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout

    def test_cli_imports_no_typing(self, tmp_path):
        """Annotations come from collections.abc and ``X | None``, so under
        ``python -S`` (no site module, which may import typing itself) the
        CLI loads without typing."""
        script = (f"import sys; sys.path.insert(0, {PACKAGE_ROOT!r}); import expsamp.cli; "
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'typing'))")
        proc = subprocess.run([sys.executable, "-S", "-c", script], cwd=tmp_path,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


class TestModuleEntryPoint:
    def test_version(self, tmp_path):
        """``python -m expsamp`` runs the CLI through ``expsamp.__main__``."""
        from expsamp import __version__

        proc = subprocess.run(
            [sys.executable, "-m", "expsamp", "--version"], cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT), capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"expsamp {__version__}\n", "")


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        argv = ("table", "--kernel", "bspline:4", "--fn", "sinmix", "--w", "30",
                "--p", "2", "--x", "1.9,2.6,3.1,3.8")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


class TestOneParser:
    """main builds its parser on the first call and reuses it; no call
    leaves anything behind for the next."""

    EVAL = ("eval", "--kernel", "bspline:3", "--fn", "cos4exp", "--w", "10", "--x", "1.1,1.7")
    COMMANDS = ("kernel-info", "moments", "eval", "reconstruct", "table", "converge",
                "voronovskaya", "bounds")

    def test_second_call_builds_no_parser(self, capsys, monkeypatch):
        run(capsys, *self.EVAL)
        added = []
        add_argument = argparse._ActionsContainer.add_argument
        monkeypatch.setattr(argparse._ActionsContainer, "add_argument",
                            lambda container, *a, **kw: added.append(a) or add_argument(container, *a, **kw))
        assert run(capsys, *self.EVAL)[0] == 0
        assert added == []

    def test_format_does_not_stick(self, capsys):
        code, text, _ = run(capsys, *self.EVAL, "--format", "text")
        assert (code, text.split()[0]) == (0, "(I_w")
        code, out, _ = run(capsys, *self.EVAL)
        assert (code, out.split("\n")[0]) == (0, "x,approx,exact,abs_error")

    def test_usage_error_does_not_stick(self, capsys):
        _, out, _ = run(capsys, *self.EVAL)
        assert run(capsys, "eval", "--kernel", "bspline:3", "--bogus")[:2] == (1, "")
        assert run(capsys, *self.EVAL) == (0, out, "")

    COMMON = ("--kernel", "--output", "--quad-nodes")

    @pytest.mark.parametrize("argv, listed", [
        (("--help",), COMMANDS),
        (("kernel-info", "--help"), ("--kernel", "--output", "--nu-max", "--format")),
        (("moments", "--help"), ("--kernel", "--output", "--nu-max", "--u", "--format")),
        (("eval", "--help"), COMMON + ("--fn", "--w", "--x", "--emit-samples", "--format")),
        (("reconstruct", "--help"), COMMON + ("--samples", "--x")),
        (("table", "--help"), COMMON + ("--fn", "--w", "--p", "--x", "--format")),
        (("converge", "--help"), COMMON + ("--fn", "--w-list", "--p", "--grid-points")),
        (("voronovskaya", "--help"), COMMON + ("--fn", "--x", "--w-list", "--p")),
        (("bounds", "--help"), COMMON + ("--fn", "--w", "--x", "--check", "--r", "--p")),
    ])
    def test_help_repeats(self, capsys, argv, listed):
        outs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as stop:
                main(list(argv))
            assert stop.value.code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert all(name in outs[0] for name in listed)


class TestOutputFile:
    def test_output_flag_writes_file(self, capsys, tmp_path):
        dest = tmp_path / "out.csv"
        code, out, _ = run(capsys, "eval", "--kernel", "bspline:2", "--fn", "log",
                           "--w", "10", "--x", "1.0,2.0", "--output", str(dest))
        assert code == 0
        assert out == ""
        lines = dest.read_text().strip().split("\n")
        assert lines[0] == "x,approx,exact,abs_error"
        assert len(lines) == 3

    def test_output_through_a_symlink_writes_its_target(self, capsys, tmp_path):
        """--output follows a symlink: the target gets the bytes stdout would,
        and the link stays a link.  A destination such as /dev/stdout, itself a
        symlink, depends on this; replacing the path instead of opening it
        would turn the link into a regular file."""
        argv = ("eval", "--kernel", "bspline:2", "--fn", "log3", "--w", "20", "--x", "0.5:2:0.25")
        code, stdout, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old contents, longer than nothing\n" * 40)
        link.symlink_to(target)
        assert run(capsys, *argv, "--output", str(link)) == (0, "", "")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == stdout.encode()

    @pytest.mark.parametrize("spelling", ["same", "absolute", "symlink"])
    def test_emit_samples_and_output_on_one_file_refused(self, capsys, tmp_path, monkeypatch,
                                                        spelling):
        """The eval text would overwrite the sample series without a word, so
        an --output naming the --emit-samples file, by any path, is refused
        before any cell is computed or any file opened: a file already there
        keeps its bytes."""
        def no_cells(*args):
            raise AssertionError("a cell was computed")

        monkeypatch.setattr("expsamp.operators.cell_mean", no_cells)
        monkeypatch.setattr("expsamp.operators._cell_means", no_cells)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out.csv").write_text("old contents\n")
        output = {"same": "out.csv", "absolute": str(tmp_path / "out.csv"),
                  "symlink": "link.csv"}[spelling]
        (tmp_path / "link.csv").symlink_to(tmp_path / "out.csv")
        code, out, err = run(capsys, "eval", "--kernel", "bspline:2", "--fn", "log3", "--w", "20",
                             "--x", "0.5:2:0.25", "--emit-samples", "out.csv", "--output", output)
        assert (code, out) == (1, "")
        assert err == (f"expsamp: error: --emit-samples 'out.csv' and --output {output!r} "
                       "name the same file\n")
        assert (tmp_path / "out.csv").read_text() == "old contents\n"

    def test_json_to_output_file(self, capsys, tmp_path):
        dest = tmp_path / "out.json"
        code, out, _ = run(capsys, "bounds", "--kernel", "bspline:2", "--fn", "log",
                           "--w", "10", "--x", "1.5", "--output", str(dest))
        assert (code, out) == (0, "")
        text = dest.read_text()
        assert text.endswith("}\n")
        assert json.loads(text)["bound"] == "first_order"
