"""Layered benchmark for the expsamp CLI.

    python3 bench/run.py --workload study|mesh|moments|all --seed N --seconds S --trace 0|1

One closed-loop client runs a seeded job list through ``expsamp.cli.main``
(the function behind the ``expsamp`` command) in this process, one job
after another, with stdout and stderr captured.  After a warm-up pass it
repeats the list until ``--seconds`` have passed and at least 100 job
times are in hand, then checks every output (checks.py) outside the timed
region.  The wall time a CLI user sees for a job is ``setup_s`` plus the
job's time; the benchmark reports the two apart rather than start an
interpreter per job.

``--trace 0`` reports the end-to-end metrics:

  setup_s      median over fresh interpreters of the time from start until
               ``from expsamp.cli import main`` is done
  wall_s       median time of one pass over the job list
  job_p50_ms   median job time over every job of every timed pass
  job_p90_ms   90th percentile of the same samples (at least 10 beyond it)
  peak_rss_mb  peak resident memory of this process after the timed passes

All four times are speed-adjusted.  On a shared VM the speed of all Python
code drifts by up to a third within minutes (CPU time tracks wall time, so
this is not scheduling), which no run length averages out.  So after the
first job that ends GAUGE_EVERY_S seconds or more after the last gauge,
and once before and after the timed passes, the run starts a gauge: a fresh interpreter that times a fixed loop, the probe,
and then imports the CLI.  The probe runs in its own process, before the
import, so nothing the program does to this process or to its own import
reaches it.  A job time is scaled by PROBE_REF_S over the mean probe of the
gauges taken just before and after the job, and a gauge's setup time by
PROBE_REF_S over its own probe: they read as seconds on a machine whose
probe takes PROBE_REF_S.  The gauges also give setup_s, so its samples
cover the whole run.  The report prints the raw medians beside the
adjusted ones; the traced run also puts the raw median pass time and the
median probe in its JSON, as run.wall_raw_s and run.probe_s.  peak_rss_mb is
as measured.

``--trace 1`` runs the same untraced passes, then two traced passes
(tracing.py) and reports per-layer counts and self times for one pass; every
count must repeat exactly between the two traced passes.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.  A job
fails when an exception escapes main, its exit code is wrong, its output
fails its check, or a later pass prints something else than the first.
``correct`` is false when any job with well-formed input fails, or the
counts do not repeat; malformed requests that are not refused, and the
known defect that checks.py documents, are counted in ``failed`` and named
in the report.  The report prints failed_ratio, failed over attempted; it
is not a metric of the JSON, which carries both counts, because it is 0
wherever every job passes and a bound relative to the parent's value means
nothing at 0.

Runs single-threaded: EXPSAMP_THREADS is unset and BLAS is held to one
thread.  Files the jobs read and write live under bench/.work/ and are
removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import Outcome, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("study", "mesh", "moments")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
GAUGE_EVERY_S = 1.0
PROBE_REF_S = 0.08  # about the probe on the reference machine; fixes the scale of adjusted times
COUNT_UNITS = {"count", "B"}
MIN_SAMPLES = 100
MIN_PASSES = 3
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms", "peak_rss_mb": "MB"}
# The gauge.  Changing its probe loop changes every adjusted time.
GAUGE = """
import math, time


def probe():
    start = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        t = (i % 997) / 249.25 - 2.0
        vals = [1.0 if -0.5 <= t + 1.5 - j < 0.5 else 0.0 for j in range(4)]
        for m in range(2, 5):
            shift = 0.5 * (4 - m)
            for j in range(5 - m):
                a = t + shift - j
                vals[j] = ((0.5 * m + a) * vals[j] + (0.5 * m - a) * vals[j + 1]) / (m - 1)
        acc += vals[0] * math.fsum((math.exp(t), math.cos(t), 1.0))
    return time.perf_counter() - start


started = time.clock_gettime(time.CLOCK_MONOTONIC)
probe_s = probe()
importing = time.clock_gettime(time.CLOCK_MONOTONIC)
from expsamp.cli import main
import expsamp
print(started, probe_s, importing, time.clock_gettime(time.CLOCK_MONOTONIC), expsamp.__file__)
"""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed length of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def gauge() -> tuple[float, float]:
    """One fresh interpreter: (setup seconds, probe seconds).  Setup is the
    time from spawning it until the CLI is imported, less the probe it runs
    first.  The child inherits the environment main() prepared."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", GAUGE], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"importing expsamp failed: {proc.stderr.strip()[-500:]}")
    started, probe_s, importing, ready, path = proc.stdout.split()
    if not Path(path).resolve().is_relative_to(SRC):
        raise RuntimeError(f"fresh interpreter imported expsamp from {path}, not {SRC}")
    return (float(started) - start) + (float(ready) - float(importing)), float(probe_s)


def call(main, argv) -> Outcome:
    """One job: main(argv) with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    rc, exc = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except (Exception, SystemExit) as e:  # an escaping exception fails the job
            exc = f"{type(e).__name__}: {e}"
    return Outcome(rc, out.getvalue(), err.getvalue(), exc)


def run_pass(main, jobs, tracer=None, after_job=None):
    """Run every job once, in order, calling ``after_job()`` after each
    one, outside its time.  Returns (outcomes, job seconds)."""
    outcomes, times = [], []
    clock = time.perf_counter
    for i, job in enumerate(jobs):
        t0 = clock()
        if tracer is None:
            outcome = call(main, job.argv)
        else:
            outcome = tracer.run_job(i, lambda: call(main, job.argv))
            tracer.output_bytes += len(outcome.out.encode())
        times.append(clock() - t0)
        outcomes.append(outcome)
        if after_job is not None:
            after_job()
    return outcomes, times


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    # imported here, not at the top: they load numpy, which must come after
    # main() has limited BLAS to one thread
    import checks
    import expsamp
    from expsamp.cli import main

    if not Path(expsamp.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported expsamp from {expsamp.__file__}, not {SRC}")
    workdir = HERE / ".work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = generate(name, seed, workdir)
        for path, text in workload.files.items():
            Path(path).write_text(text)
        jobs = workload.jobs

        first, _ = run_pass(main, jobs)  # warm-up; its outputs are the ones checked
        differs = set()  # jobs whose output changed in a later pass
        gauges = [gauge()]  # (setup s, probe s), in the order taken
        last_gauge = time.perf_counter()

        def timed_pass(tracer=None):
            """(raw job times, index of the last gauge taken before each job)"""
            before = []

            def after_job():
                nonlocal last_gauge
                before.append(len(gauges) - 1)
                if time.perf_counter() - last_gauge >= GAUGE_EVERY_S:
                    gauges.append(gauge())
                    last_gauge = time.perf_counter()

            outcomes, times = run_pass(main, jobs, tracer, after_job)
            differs.update(i for i, o in enumerate(outcomes) if o != first[i])
            return times, before

        passes = []
        start = time.perf_counter()
        while (len(passes) < MIN_PASSES or time.perf_counter() - start < seconds
               or len(passes) * len(jobs) < MIN_SAMPLES):
            passes.append(timed_pass())
        gauges.append(gauge())  # closes the last pass
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        untraced_gauges = len(gauges)

        traced, counts = [], []
        if trace:
            from tracing import PER_LAYER_UNITS, Tracer

            for _ in range(2):
                tracer = Tracer()
                tracer.install()
                try:
                    traced.append(timed_pass(tracer))
                finally:
                    tracer.uninstall()
                gauges.append(gauge())
                counts.append(tracer.metrics())

        ctx = checks.CheckContext()
        problems = {i: checks.check(job, first[i], ctx) for i, job in enumerate(jobs)}
        for i in differs:
            problems[i] = problems[i] or ["output differs from the first pass"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    bad = {i: p for i, p in problems.items() if p}
    attempted = len(jobs) * (len(passes) + len(traced))
    failed = len(bad) * (len(passes) + len(traced))
    correct = all(checks.tolerated(jobs[i], p) for i, p in bad.items())
    passes = [(_adjust(times, before, gauges), times) for times, before in passes]
    traced = [(_adjust(times, before, gauges), times) for times, before in traced]
    samples = [t for adjusted, _ in passes for t in adjusted]
    wall = [sum(adjusted) for adjusted, _ in passes]
    raw_wall = statistics.median(sum(times) for _, times in passes)
    probe_s = statistics.median(p for _, p in gauges[:untraced_gauges])
    lines = [
        f"workload {name}, seed {seed}: {len(jobs)} jobs per pass, {len(passes)} timed passes, "
        f"{len(samples)} job samples, one closed-loop client, {untraced_gauges} gauges",
    ]
    if trace:
        metrics, trace_lines, repeat = _per_layer(counts, traced, wall, PER_LAYER_UNITS)
        metrics["run.wall_raw_s"] = {"value": raw_wall, "unit": "s"}
        metrics["run.probe_s"] = {"value": probe_s, "unit": "s"}
        lines += trace_lines
        if not repeat:
            correct = False
            lines.append("  counts differ between the two traced passes")
    else:
        p90 = statistics.quantiles(samples, n=10)[8]
        setup = [s * PROBE_REF_S / p for s, p in gauges]
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(wall),
            "job_p50_ms": 1000.0 * statistics.median(samples),
            "job_p90_ms": 1000.0 * p90,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        speed = f"at {PROBE_REF_S / probe_s:.3f}x reference speed"
        basis = {
            "setup_s": f"median of {len(setup)} gauges, raw median {statistics.median(s for s, _ in gauges):.4f} s "
                       f"{speed}; a CLI call takes setup_s + its job time",
            "wall_s": f"median of {len(wall)} passes, range {min(wall):.4f}-{max(wall):.4f} s; "
                      f"raw median {raw_wall:.4f} s {speed}",
            "job_p50_ms": f"{len(samples)} samples",
            "job_p90_ms": f"{len(samples)} samples, {sum(t > p90 for t in samples)} beyond it",
            "peak_rss_mb": "ru_maxrss of this process",
        }
        for key, v in values.items():
            lines.append(f"  {key:<13} {v:12.6g} {END_TO_END_UNITS[key]:<3} ({basis[key]})")
    lines.append(f"  {'failed_ratio':<13} {failed / attempted:12.6g} 1   ({failed} of {attempted} jobs attempted)")
    if bad:
        for i, p in bad.items():
            lines.append(f"  FAILED {jobs[i].name}: {'; '.join(p)[:300]}")
    lines.append(f"  checks: {len(jobs) - len(bad)} of {len(jobs)} jobs pass"
                 f"{'' if correct else '; a job failed that is neither malformed nor a known defect'}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def _adjust(times, before, gauges):
    """Job times scaled by the mean probe of the gauges taken just before
    and after each job."""
    return [t * 2.0 * PROBE_REF_S / (gauges[g][1] + gauges[g + 1][1]) for t, g in zip(times, before)]


def _per_layer(counts, traced, wall, units):
    """Per-layer metrics from two traced passes: counts from the first,
    times and ratios as the median of the two.  Layer times are raw; the
    overhead ratio compares speed-adjusted traced and untraced passes."""
    first, second = counts
    repeat = all(first[k] == second[k] for k, u in units.items() if u in COUNT_UNITS)
    metrics = {}
    for key, unit in units.items():
        value = first[key] if unit in COUNT_UNITS else statistics.median([first[key], second[key]])
        metrics[key] = {"value": value, "unit": unit}
    overhead = statistics.median(sum(adjusted) for adjusted, _ in traced) / statistics.median(wall)
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "1"}
    total = statistics.median(sum(times) for _, times in traced)
    lines = [f"  traced pass {total:.4f} s raw, trace overhead {overhead:.3f}x; per pass of the job list:"]
    for key, m in metrics.items():
        share = f"  {100.0 * m['value'] / total:5.1f}% of traced pass" if m["unit"] == "s" else ""
        lines.append(f"  {key:<26} {m['value']:14.6g} {m['unit']:<5}{share}")
    if first["moments.sups"]:
        lines.append(f"  {'moment sums per sup':<26} {first['moments.sup_sums'] / first['moments.sups']:14.6g}")
    return metrics, lines, repeat


def invoke(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    """Run one workload in a fresh process: (its JSON result, its report
    lines).  Raises RuntimeError, with the process's stderr, if it fails."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=ROOT,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} run exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def run_all(args) -> int:
    """Every workload in turn, each in its own process so that peak memory
    is its own; prints each report and one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        try:
            result, lines = invoke(name, args.seed, args.seconds, args.trace)
        except RuntimeError as e:
            print(e, file=sys.stderr)
            return 1
        print("\n".join(lines))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "expsamp" / "__init__.py").is_file():
        print(f"bench: no expsamp source tree at {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("EXPSAMP_THREADS", None)
    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy is imported
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
