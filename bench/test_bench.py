"""Self-tests of the benchmark: the generator, the output checks and the trace.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Job, Outcome  # noqa: E402

import expsamp.cli  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(name, tmp_path):
    first = workloads.generate(name, 7, tmp_path)
    assert first == workloads.generate(name, 7, tmp_path)
    other = workloads.generate(name, 8, tmp_path)
    assert [j.argv for j in other.jobs] != [j.argv for j in first.jobs]
    # the plan fixes the cost-setting properties, so every seed runs the same commands
    assert sorted(j.check for j in other.jobs) == sorted(j.check for j in first.jobs)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_avoids_flags_due_for_removal(name, tmp_path):
    for job in workloads.generate(name, 3, tmp_path).jobs:
        assert "--latex" not in job.argv and "--grid" not in job.argv, job


def test_mesh_has_every_malformed_case(tmp_path):
    jobs = workloads.generate("mesh", 3, tmp_path).jobs
    names = {j.name for j in jobs if j.check == "malformed"}
    assert names == {f"malformed:{c}" for c in (
        "x_inf", "x_nan", "w_inf", "w_nan", "w_huge",
        "file_w_nan", "file_nan_mean", "file_gap", "file_window_outside")}


def test_allowed_order_follows_the_moment_theory():
    assert checks.allowed_order("bspline:2", 3, "cos4exp") == 2  # criterion 6's 2.03
    assert checks.allowed_order("bspline:4", 3, "log3") == 3
    assert checks.allowed_order("bspline:4", None, "sinmix") == 1
    assert checks.allowed_order("bspline:5", 2, "log") == math.inf
    assert checks.allowed_order("bspline:3", None, "const:2.5") == math.inf


# ---------------------------------------------------------------------------
# each check accepts the program's output and rejects a perturbed one


def _run(argv) -> Outcome:
    return run.call(expsamp.cli.main, argv)


def _nudge_number(text: str, index: int, delta: float, relative: bool = True) -> str:
    """Text with its index-th number (after any header line) moved by delta."""
    header, _, body = text.partition("\n")
    matches = list(re.finditer(r"-?\d+\.\d+(?:e-?\d+)?", body))
    m = matches[index]
    value = float(m.group())
    new = value * (1.0 + delta) if relative else value + delta
    return header + "\n" + body[:m.start()] + repr(new) + body[m.end():]


def _edit_json(text: str, edit) -> str:
    payload = json.loads(text)
    edit(payload)
    return json.dumps(payload)


def _assert_rejects(job: Job, outcome: Outcome, perturbed: list, ctx=None) -> None:
    ctx = ctx or checks.CheckContext()
    assert checks.check(job, outcome, ctx) == []
    for text in perturbed:
        assert checks.check(job, replace(outcome, out=text), ctx), text[:200]
    assert checks.check(job, replace(outcome, rc=1), ctx)
    assert checks.check(job, replace(outcome, rc=None, exc="OverflowError: boom"), ctx)


def _job(check: str, *argv: str) -> Job:
    return Job(f"test-{check}", argv, check)


def test_eval_check_rejects_perturbed_values():
    for fn, fmt in (("sinmix", "csv"), ("log", "text"), ("const:2.5", "csv")):
        job = _job("eval", "eval", "--kernel", "bspline:3", "--fn", fn, "--w", "40",
                   "--x", "1.7:2.5:0.05", "--format", fmt)
        out = _run(job.argv)
        _assert_rejects(job, out, [
            _nudge_number(out.out, 1, 1e-9), _nudge_number(out.out, 1, 1e-9, relative=False),
        ])


def test_identity_checks_reject_a_violation():
    job = _job("eval", "eval", "--kernel", "bspline:2", "--fn", "log", "--w", "25",
               "--x", "1.5,2.5")
    out = _run(job.argv)
    lines = out.out.splitlines()
    fields = lines[1].split(",")
    fields[3] = repr(float(fields[3]) + 5e-12)  # abs_error off 1/(2w) by more than 1e-12
    bad = "\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n"
    _assert_rejects(job, out, [bad])


def test_sample_pipeline_checks_reject_perturbations(tmp_path):
    samples = str(tmp_path / "s.csv")
    common = ("--kernel", "bspline:2", "--quad-nodes", "10")
    emit = _job("eval_emit", "eval", *common, "--fn", "cos4exp", "--w", "600",
                "--x", "0.8:1.6:0.02", "--emit-samples", samples)
    recon = _job("reconstruct", "reconstruct", *common, "--samples", samples, "--x", "0.8:1.6:0.02")
    emitted = _run(emit.argv)
    ctx = checks.CheckContext()
    _assert_rejects(emit, emitted, [_nudge_number(emitted.out, 2, 1e-9)], ctx)
    rebuilt = _run(recon.argv)
    _assert_rejects(recon, rebuilt, [_nudge_number(rebuilt.out, 3, 1e-9)], ctx)
    lines = Path(samples).read_text().splitlines()
    used = math.floor(600 * math.log(0.8))  # a cell in the window of x = 0.8
    row = next(i for i, line in enumerate(lines) if line.startswith(f"{used},"))
    k, mean = lines[row].split(",")
    lines[row] = f"{k},{float(mean) * (1 + 1e-11)!r}"
    Path(samples).write_text("\n".join(lines) + "\n")
    assert checks.check(emit, emitted, checks.CheckContext())
    assert checks.check(recon, rebuilt, ctx)


def test_reconstruct_check_allows_rounding_where_f_is_steep(tmp_path):
    # cos(4 e^x) near x = 2.9: the emitted means and the reference's differ by 1.1e-14
    samples = str(tmp_path / "s.csv")
    common = ("--kernel", "bspline:1", "--quad-nodes", "7")
    xs = "1.481:2.9745508474576274:0.025101694915254238"
    emit = _job("eval_emit", "eval", *common, "--fn", "cos4exp", "--w", "497.6", "--x", xs,
                "--emit-samples", samples)
    recon = _job("reconstruct", "reconstruct", *common, "--samples", samples, "--x", xs)
    ctx = checks.CheckContext()
    assert checks.check(emit, _run(emit.argv), ctx) == []
    assert checks.check(recon, _run(recon.argv), ctx) == []


def test_converge_check_rejects_perturbations():
    job = _job("converge", "converge", "--kernel", "bspline:3", "--fn", "log3",
               "--w-list", "10,20,40,80,160", "--p", "2", "--grid-points", "51")
    out = _run(job.argv)

    def error(p):
        p["errors"][2] *= 1.0 + 1e-6

    def order(p):
        p["fitted_order"] += 0.3

    def coefficients(p):
        p["combination"]["coefficients"][0] = "-2"

    _assert_rejects(job, out, [_edit_json(out.out, e) for e in (error, order, coefficients)])
    exact = _job("converge", "converge", "--kernel", "bspline:4", "--fn", "log",
                 "--w-list", "10,20,40,80,160", "--p", "2", "--grid-points", "51")
    out = _run(exact.argv)
    assert json.loads(out.out)["infinite_order"] is True

    def finite(p):
        p["infinite_order"], p["fitted_order"] = False, 2.0

    _assert_rejects(exact, out, [_edit_json(out.out, finite)])


def test_voronovskaya_check_rejects_perturbations():
    for p in (None, "2"):
        argv = ["voronovskaya", "--kernel", "bspline:4", "--fn", "log2", "--x", "1.7",
                "--w-list", "10,20,40,80,160"] + (["--p", p] if p else [])
        job = _job("voronovskaya", *argv)
        out = _run(job.argv)

        def scaled(q):
            q["scaled_errors"][1] += 1e-6

        def limit(q):
            q["predicted_limit"] *= 1.0 + 1e-9
            q["errors"][0] *= 1.0 + 1e-6

        _assert_rejects(job, out, [_edit_json(out.out, e) for e in (scaled, limit)])


def test_table_checks_reject_perturbations():
    seeded = _job("table", "table", "--kernel", "bspline:3", "--fn", "sinmix", "--w", "25",
                  "--p", "2", "--x", "1.9,2.7,3.3")
    out = _run(seeded.argv)
    _assert_rejects(seeded, out, [_nudge_number(out.out, 2, 2e-4, relative=False)])
    published = _job("published_table", *workloads.STUDY_FIXED[0][1])
    out = _run(published.argv)
    lines = out.out.splitlines()
    cells = lines[2].split(",")
    cells[4] = f"{float(cells[4]) + 0.0025:.4f}"  # the combination column, off the paper by 2.5e-3
    _assert_rejects(published, out, ["\n".join([lines[0], lines[1], ",".join(cells)] + lines[3:]) + "\n"])


def test_moment_checks_reject_perturbations():
    for fmt in ("json", "text"):
        job = _job("kernel_info", "kernel-info", "--kernel", "bspline:2", "--nu-max", "3",
                   "--format", fmt)
        out = _run(job.argv)
        if fmt == "json":
            def alg(p):
                p["moments"][2]["algebraic"] += 1e-9

            def sup(p):
                p["moments"][1]["absolute_sup"] *= 1.0 + 1e-8

            def flag(p):
                p["moments"][2]["u_independent"] = True  # m_2 of the order-2 spline varies with u

            bad = [_edit_json(out.out, e) for e in (alg, sup, flag)]
        else:
            bad = [out.out.replace("false", "true", 1), out.out.replace("bspline:2", "bspline:3", 1)]
        _assert_rejects(job, out, bad)
    for fmt in ("csv", "text", "json"):
        job = _job("moments", "moments", "--kernel", "combo:4:e^1:e^2", "--nu-max", "2",
                   "--u", "1.3", "--format", fmt)
        out = _run(job.argv)
        number = r"(m_nu=|,)(-?[\d.]+(?:e-?\d+)?)"
        bad = [re.sub(number, lambda m: m.group(1) + repr(float(m.group(2)) + 1e-9), out.out, count=1)]
        if fmt == "json":
            bad = [_edit_json(out.out, lambda p: p[2].update(algebraic=p[2]["algebraic"] + 1e-9))]
        _assert_rejects(job, out, bad)


def test_bounds_check_rejects_perturbations():
    job = _job("bounds", "bounds", "--kernel", "bspline:2", "--fn", "log3", "--w", "20",
               "--x", "1.5", "--check", "first")
    out = _run(job.argv)

    def unsatisfied(p):
        p["satisfied"] = False

    def above(p):
        p["lhs"] = 2.0 * p["rhs"] + 1.0

    _assert_rejects(job, out, [_edit_json(out.out, e) for e in (unsatisfied, above)])


def test_bounds_check_tolerates_only_the_known_defect(tmp_path):
    argv = workloads.MOMENTS_KNOWN_DEFECT
    assert any(j.argv == argv for j in workloads.generate("moments", 5, tmp_path).jobs)
    job = _job("bounds", *argv)
    out = _run(argv)
    ctx = checks.CheckContext()
    problems = checks.check(job, out, ctx)
    assert len(problems) == 1 and checks.tolerated(job, problems)

    def far_above(p):
        p["lhs"] = 1.05 * p["rhs"]

    farther = checks.check(job, replace(out, out=_edit_json(out.out, far_above)), ctx)
    assert farther and not checks.tolerated(job, farther)
    other = replace(job, argv=tuple("bspline:4" if a == "bspline:3" else a for a in argv))
    elsewhere = checks.check(other, out, ctx)
    assert elsewhere and not checks.tolerated(other, elsewhere)


def test_malformed_check_wants_a_clean_refusal():
    job = _job("malformed", "eval", "--kernel", "bspline:2", "--fn", "log", "--w", "nan", "--x", "2")
    refused = Outcome(rc=1, out="", err="expsamp: error: bad rate\n")
    assert checks.check(job, refused, checks.CheckContext()) == []
    for bad in (replace(refused, rc=0), replace(refused, out="2\n"), replace(refused, err=""),
                replace(refused, rc=None, exc="OverflowError: cannot convert")):
        assert checks.check(job, bad, checks.CheckContext())


# ---------------------------------------------------------------------------
# the trace


def _small_jobs(tmp_path):
    jobs = []
    for name in ("study", "mesh", "moments"):
        workload = workloads.generate(name, 4, tmp_path)
        for path, text in workload.files.items():
            Path(path).write_text(text)
        cheap = [j for j in workload.jobs if j.check in
                 ("table", "published_table", "voronovskaya", "eval_emit", "reconstruct", "malformed")]
        jobs += cheap[:6]
        if name == "moments":
            jobs += [j for j in workload.jobs if "bspline:2" in j.argv][:3]
    return jobs


def test_trace_counts_repeat_and_leave_outputs_unchanged(tmp_path):
    jobs = _small_jobs(tmp_path)
    plain, _ = run.run_pass(expsamp.cli.main, jobs)
    metrics = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, _ = run.run_pass(expsamp.cli.main, jobs, tracer)
        finally:
            tracer.uninstall()
        assert traced == plain
        metrics.append(tracer.metrics())
    counts = [k for k, unit in tracing.PER_LAYER_UNITS.items() if unit in ("count", "B")]
    assert {k: metrics[0][k] for k in counts} == {k: metrics[1][k] for k in counts}
    m = metrics[0]
    assert set(m) == set(tracing.PER_LAYER_UNITS)
    for key in ("kernels.evals", "functions.f_calls", "operators.cell_means", "operators.csv_rows",
                "moments.sums", "moments.sups", "moments.sup_sums", "combinations.calls", "analysis.calls"):
        assert m[key] > 0, key
    assert 0.0 < m["kernels.nonzero_ratio"] < 1.0
    # the package is restored
    assert expsamp.cli.parse_kernel_spec is expsamp.kernels.parse_kernel_spec
    assert not hasattr(expsamp.cli.apply_grid, "__wrapped__")
    assert not hasattr(expsamp.analysis.apply, "__wrapped__")


def test_trace_refuses_a_ratio_over_nothing():
    with pytest.raises(ValueError, match="kernel evaluations"):
        tracing.Tracer().metrics()
