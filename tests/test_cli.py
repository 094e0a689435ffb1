"""Command-line behaviour: output formats, exit codes, determinism."""

import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from expsamp.cli import _MAX_GRID_POINTS, UsageError, _check_series_size, _parse_x_values, main
from expsamp.kernels import parse_kernel_spec
from expsamp.operators import SampleSeries


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

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "kernel-info", "--kernel", "combo:4:e^1:e^2",
                           "--format", "json", "--nu-max", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["label"] == "combo:4:e^1:e^2"
        assert payload["moments"][2]["algebraic"] == pytest.approx(-5.0 / 3.0, abs=1e-10)


class TestMoments:
    def test_csv_table(self, capsys):
        code, out, _ = run(capsys, "moments", "--kernel", "bspline:2", "--nu-max", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "nu,m_nu,M_nu_sup,u_independent"
        row2 = lines[3].split(",")
        assert float(row2[2]) == pytest.approx(0.25, abs=1e-9)
        assert row2[3] == "false"


class TestEval:
    def test_constant_column(self, capsys):
        code, out, _ = run(capsys, "eval", "--kernel", "bspline:2", "--fn", "const:3",
                           "--w", "7", "--x", "1.0:2.0:0.5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,approx,exact,abs_error"
        assert [line.split(",")[1] for line in lines[1:]] == ["3", "3", "3"]

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
        eval_rows = [line.split(",") for line in out_eval.strip().split("\n")[1:]]
        rec_rows = [line.split(",") for line in out_rec.strip().split("\n")[1:]]
        assert len(eval_rows) == len(rec_rows) == 51
        for er, rr in zip(eval_rows, rec_rows):
            assert abs(float(er[1]) - float(rr[1])) < 1e-14

    def test_missing_sample_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "reconstruct", "--kernel", "bspline:2",
                           "--samples", str(tmp_path / "nope.csv"), "--x", "1.0,2.0")
        assert code == 1
        assert "error" in err


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
        ],
    )
    def test_exit_one(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
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

    @pytest.mark.parametrize("command", ["kernel-info", "moments"])
    @pytest.mark.parametrize("nu_max", ["-1", "9"])
    def test_moment_order_range(self, capsys, command, nu_max):
        code, out, err = run(capsys, command, "--kernel", "bspline:2", "--nu-max", nu_max)
        assert (code, out) == (1, "")
        assert f"--nu-max must be in 0..8, got {nu_max}" in err


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
        ],
    )
    def test_refused(self, capsys, argv, named):
        code, out, err = run(capsys, argv[0], "--kernel", "bspline:2", *argv[1:])
        assert (code, out) == (1, "")
        assert err == f"expsamp: error: {named}\n"

    # bspline:2 at w = 10000 covers cells -2 .. floor(10000 log x) + 2 for
    # x in [1, x_max]: 999995 + 5 cells at the first end, one more at the second
    SERIES_AT_CAP = [1.0, math.exp(99.99955)]
    SERIES_PAST_CAP = [1.0, math.exp(99.99965)]

    def test_series_boundary(self):
        kernel = parse_kernel_spec("bspline:2")
        k_min, k_max = SampleSeries.covering_range(kernel, 10000.0, self.SERIES_AT_CAP)
        assert k_max - k_min + 1 == _MAX_GRID_POINTS
        _check_series_size(kernel, 10000.0, self.SERIES_AT_CAP)
        with pytest.raises(UsageError, match=re.escape(
                "--emit-samples series: 1000001 cells, more than the 1000000 allowed")):
            _check_series_size(kernel, 10000.0, self.SERIES_PAST_CAP)

    def test_series_refused_before_any_cell(self, capsys, tmp_path, monkeypatch):
        def no_cells(*args):
            raise AssertionError("a cell was computed")

        monkeypatch.setattr("expsamp.operators.cell_mean", no_cells)
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

    def test_f_overflows_on_a_cell(self, capsys):
        code, out, err = run(capsys, "eval", "--kernel", "bspline:2", "--fn", "cos4exp",
                             "--w", "10", "--x", "17553.5")
        assert (code, out) == (1, "")
        assert "cell k=97 at w=10: f overflows" in err

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

    def test_combination_overflow(self, capsys):
        code, out, err = run(capsys, "table", "--kernel", "bspline:2", "--fn", "const:1e308",
                             "--w", "10", "--x", "2", "--p", "2")
        assert (code, out) == (1, "")
        assert "the p=2 combination overflows" in err

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


class TestNumpyFree:
    """The library and every subcommand run on the standard library alone:
    each command runs in a fresh interpreter that must end without numpy in
    sys.modules.  (The tests themselves use numpy as an oracle.)"""

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
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, command, *self.COMMANDS[command]],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        argv = ("table", "--kernel", "bspline:4", "--fn", "sinmix", "--w", "30",
                "--p", "2", "--x", "1.9,2.6,3.1,3.8")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


class TestConfigFile:
    def test_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kernel=bspline:4\nw=30\np=2\n# comment line\n")
        code, out, _ = run(capsys, "table", "--config", str(cfg), "--fn", "sinmix",
                           "--x", "2.6")
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert abs(float(row[1]) - 0.2217) <= 2e-3

    def test_cli_flag_wins(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kernel=bspline:4\nfn=const:1\nw=30\n")
        code, out, _ = run(capsys, "eval", "--config", str(cfg), "--fn", "const:2",
                           "--x", "1.0,1.5")
        assert code == 0
        assert [line.split(",")[1] for line in out.strip().split("\n")[1:]] == ["2", "2"]

    def test_bad_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just a word\n")
        code, _, err = run(capsys, "eval", "--config", str(cfg), "--kernel", "bspline:2",
                           "--fn", "log", "--w", "5", "--x", "1,2")
        assert code == 1
        assert "key=value" in err

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate=1\n")
        code, _, err = run(capsys, "eval", "--config", str(cfg), "--kernel", "bspline:2",
                           "--fn", "log", "--w", "5", "--x", "1,2")
        assert code == 1

    @pytest.mark.parametrize(
        "before, after",
        [
            ((), ("--config={cfg}",)),  # the = form
            (("--config", "{cfg}"), ()),  # before the subcommand
        ],
    )
    def test_config_flag_forms(self, capsys, tmp_path, before, after):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kernel=bspline:2\nfn=const:3\nw=10\n")
        fill = lambda flags: [t.format(cfg=cfg) for t in flags]
        code, out, _ = run(capsys, *fill(before), "eval", *fill(after), "--x", "1.5")
        assert code == 0
        assert out.strip().split("\n")[1].split(",")[:2] == ["1.5", "3"]

    def test_config_without_value(self, capsys):
        code, out, err = run(capsys, "eval", "--kernel", "bspline:2", "--fn", "log",
                             "--w", "5", "--x", "1,2", "--config")
        assert (code, out) == (1, "")
        assert "--config" in err


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

    def test_json_to_output_file(self, capsys, tmp_path):
        dest = tmp_path / "out.json"
        code, out, _ = run(capsys, "bounds", "--kernel", "bspline:2", "--fn", "log",
                           "--w", "10", "--x", "1.5", "--output", str(dest))
        assert (code, out) == (0, "")
        text = dest.read_text()
        assert text.endswith("}\n")
        assert json.loads(text)["bound"] == "first_order"
