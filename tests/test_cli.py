"""Command-line behaviour: output formats, exit codes, determinism."""

import json
import math

import pytest

from expsamp.cli import main


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
                           "--w", "15", "--p", "2", "--x", "0.6", "--latex")
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
