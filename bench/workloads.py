"""Seeded job lists for the three benchmark workloads.

A job is one ``expsamp`` command line plus the name of the check its
output must pass.  Every workload has a fixed plan of job templates: the
properties that set a job's cost (command, kernel order, p, number of
rates, grid size, quadrature nodes, nu_max) are fixed per template, and
the seed draws the rest (points, rates within a few per cent, u, output
format, function where costs are alike, file contents, job order).  So
two seeds give different inputs but nearly the same amount of work, which
keeps the timings of a run comparable across seeds.

The program receives only the generated command lines and files.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

__all__ = ["Job", "Outcome", "Workload", "WORKLOADS", "generate"]


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  ``check`` names the rule in checks.py that
    judges its exit code and output; ``name`` identifies it in reports."""

    name: str
    argv: tuple[str, ...]
    check: str


@dataclass(frozen=True)
class Outcome:
    """What one call of ``expsamp.cli.main`` produced.  ``exc`` names an
    exception that escaped main; ``rc`` is None then."""

    rc: Optional[int]
    out: str
    err: str
    exc: Optional[str] = None


@dataclass(frozen=True)
class Workload:
    jobs: tuple[Job, ...]
    files: dict  # path -> text written before the first job runs


def _g(v: float) -> str:
    return f"{v:.6g}"


def _rates(rng: random.Random, lo: float, hi: float, count: int = 5) -> str:
    base = round(rng.uniform(lo, hi), 2)
    return ",".join(_g(base * 2 ** i) for i in range(count))


def _points(rng: random.Random, lo: float, hi: float, count: int) -> str:
    xs = sorted(round(rng.uniform(lo, hi), 4) for _ in range(count))
    return ",".join(_g(x) for x in dict.fromkeys(xs))


def _range(lo: float, width: float, count: int) -> str:
    """Inclusive ``lo:hi:step`` with ``count`` points."""
    step = width / (count - 1)
    return f"{lo!r}:{lo + width + 0.5 * step!r}:{step!r}"


# ---------------------------------------------------------------------------
# study: paper reproduction; kernel evaluation and the weighted sums dominate

COMBO = "combo:4:e^1:e^2"

# kernel, p, functions the seed picks from, grid points, quadrature nodes
STUDY_CONVERGE = (
    ("bspline:2", None, ("log3", "sinmix", "cos4exp"), 201, 7),
    ("bspline:2", 2, ("log3", "log2"), 201, 7),
    ("bspline:3", 3, ("log3",), 151, 7),
    ("bspline:4", None, ("log2", "log3", "sinmix"), 201, 9),
    ("bspline:4", 3, ("log3",), 151, 9),
    ("bspline:6", 2, ("log2", "log3"), 151, 7),
    ("bspline:8", None, ("log3", "sinmix"), 101, 7),
    ("bspline:10", 3, ("log3",), 101, 7),
    (COMBO, None, ("log2", "log3"), 151, 7),
    (COMBO, 2, ("log3",), 151, 7),
    ("bspline:5", 2, ("log",), 101, 5),  # exact on log: infinite order
    ("bspline:3", None, ("const",), 101, 3),  # constants are reproduced
)

# kernel, p, function, quadrature nodes
STUDY_VORONOVSKAYA = (
    ("bspline:2", None, "log", 7),  # scaled error is exactly 1/2
    ("bspline:4", None, "log2", 7),
    ("bspline:4", 2, "log3", 7),
    ("bspline:4", 3, "log3", 9),
    ("bspline:3", 2, "log", 7),  # p = 2 is exact on log
    (COMBO, 2, "log2", 7),
    ("bspline:7", 3, "log3", 7),
    ("bspline:10", 2, "log3", 7),
)

# kernel, p, function, rate range, quadrature nodes
STUDY_TABLE = (
    ("bspline:3", 2, "sinmix", (20.0, 40.0), 7),
    ("bspline:6", 3, "log3", (15.0, 30.0), 7),
    ("bspline:10", 1, "cos4exp", (30.0, 60.0), 9),
    (COMBO, 2, "log2", (20.0, 40.0), 7),
    ("bspline:2", 2, "log", (10.0, 20.0), 7),
)

# The paper's own cases, run as published: the two error tables of
# criteria 1-2, and criterion 6's p = 3 fit with the order-2 spline, whose
# m_2 varies with u so that the sup error falls like w^-2; the fitted
# order swings by +/-0.15 with the rate list, so the rates stay fixed.
STUDY_FIXED = (
    ("published_table", ("table", "--kernel", "bspline:2", "--fn", "cos4exp", "--w", "15",
                         "--p", "3", "--x", "0.6,0.75,0.8,0.9,0.95")),
    ("published_table", ("table", "--kernel", "bspline:4", "--fn", "sinmix", "--w", "30",
                         "--p", "2", "--x", "1.9,2.6,3.1,3.8")),
    ("converge", ("converge", "--kernel", "bspline:2", "--fn", "cos4exp",
                  "--w-list", "10,20,40,80,160", "--p", "3")),
)

# kernel, function, rate, points, range width, quadrature nodes
STUDY_EVAL = (
    ("bspline:2", "cos4exp", 120.0, 1001, 0.5, 7),
    ("bspline:4", "sinmix", 60.0, 1001, 1.5, 7),
    ("bspline:6", "log3", 200.0, 801, 0.8, 7),
    ("bspline:8", "cos4exp", 150.0, 601, 0.5, 9),
    ("bspline:10", "sinmix", 50.0, 801, 1.5, 7),
    (COMBO, "log2", 80.0, 801, 1.0, 7),
    ("bspline:5", "const", 90.0, 601, 1.0, 3),
    ("bspline:3", "log", 70.0, 801, 1.0, 7),
    (COMBO, "log", 100.0, 401, 1.0, 7),
)


def _fn(rng: random.Random, name: str) -> str:
    return f"const:{round(rng.uniform(-5.0, 5.0), 3)!r}" if name == "const" else name


def study(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"study:{seed}")
    jobs = []
    for kernel, p, fns, grid, nodes in STUDY_CONVERGE:
        argv = ["converge", "--kernel", kernel, "--fn", _fn(rng, rng.choice(fns)),
                "--w-list", _rates(rng, 9.0, 12.0), "--grid-points", str(grid),
                "--quad-nodes", str(nodes)]
        if p is not None:
            argv += ["--p", str(p)]
        jobs.append(("converge", argv))
    for kernel, p, fn, nodes in STUDY_VORONOVSKAYA:
        lo, hi = (0.5, 3.0) if fn.startswith("log") else (1.6, 4.0)
        argv = ["voronovskaya", "--kernel", kernel, "--fn", fn,
                "--x", _g(round(rng.uniform(lo, hi), 4)), "--w-list", _rates(rng, 9.0, 12.0),
                "--quad-nodes", str(nodes)]
        if p is not None:
            argv += ["--p", str(p)]
        jobs.append(("voronovskaya", argv))
    jobs += [(check, list(argv)) for check, argv in STUDY_FIXED]
    for kernel, p, fn, (wlo, whi), nodes in STUDY_TABLE:
        lo, hi = {"sinmix": (1.6, 4.0), "cos4exp": (0.5, 1.0)}.get(fn, (0.5, 3.0))
        argv = ["table", "--kernel", kernel, "--fn", fn, "--w", _g(round(rng.uniform(wlo, whi), 2)),
                "--p", str(p), "--x", _points(rng, lo, hi, 5), "--quad-nodes", str(nodes)]
        jobs.append(("table", argv))
    for kernel, fn, w, count, width, nodes in STUDY_EVAL:
        lo = round(rng.uniform(0.6, 1.2), 3)
        w = round(w * rng.uniform(0.98, 1.02), 2)
        argv = ["eval", "--kernel", kernel, "--fn", _fn(rng, fn), "--w", _g(w),
                "--x", _range(lo, width, count), "--quad-nodes", str(nodes),
                "--format", rng.choice(("csv", "text"))]
        jobs.append(("eval", argv))
    rng.shuffle(jobs)
    return Workload(
        tuple(Job(f"study-{i:02d}-{argv[0]}", tuple(argv), check) for i, (check, argv) in enumerate(jobs)),
        {},
    )


# ---------------------------------------------------------------------------
# mesh: fine sampling and reconstruction; cell means and f calls dominate

MESH_RATES = (500.0, 800.0, 1300.0, 2100.0, 3400.0, 5000.0)
MESH_NODES = (7, 10, 14, 20)
MESH_FUNCTIONS = ("cos4exp", "sinmix", "log3", "log2")
MESH_TEMPLATES = 24
MESH_POINTS = 60


def _sample_file(w: float, k0: int, means: list) -> str:
    rows = "".join(f"{k0 + i},{m!r}\n" for i, m in enumerate(means))
    return f"# w={w!r}\nk,mean\n{rows}"


def mesh(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"mesh:{seed}")
    groups = []
    for i in range(MESH_TEMPLATES):
        kernel = f"bspline:{1 + i % 3}"
        nodes = str(MESH_NODES[(i // 3) % 4])
        fn = MESH_FUNCTIONS[(i // 2) % 4]
        w = _g(round(MESH_RATES[i % 6] * rng.uniform(0.98, 1.02), 1))
        lo = round(rng.uniform(0.5, 1.5), 3)
        xs = _range(lo, lo, MESH_POINTS)  # x from lo to 2 lo: under one point per cell
        samples = str(workdir / f"mesh-{i:02d}.csv")
        common = ["--kernel", kernel, "--quad-nodes", nodes]
        groups.append([
            ("eval_emit", ["eval", *common, "--fn", fn, "--w", w, "--x", xs, "--emit-samples", samples]),
            ("reconstruct", ["reconstruct", *common, "--samples", samples, "--x", xs]),
            ("eval", ["eval", *common, "--fn", fn, "--w", w, "--x", xs,
                      "--format", rng.choice(("csv", "text"))]),
        ])
    # malformed requests: the right outcome is exit code 1, a message on
    # stderr and nothing on stdout
    fw = round(rng.uniform(20.0, 60.0), 2)
    k0 = rng.randrange(-20, 20)
    means = [round(rng.uniform(-1.0, 1.0), 6) for _ in range(40)]
    good = _sample_file(fw, k0, means)
    inside = _g(math.exp((k0 + 20.5) / fw))  # needs cells k0+20 and k0+21
    beyond = _g(math.exp((k0 + 45.5) / fw))  # needs cells past the last, k0+39
    bad_files = {
        "file_w_nan": (good.replace(f"# w={fw!r}", "# w=nan"), inside),
        "file_nan_mean": (_sample_file(fw, k0, means[:20] + [math.nan] + means[21:]), inside),
        "file_gap": (good.replace(f"\n{k0 + 17},", f"\n{k0 + 70},"), inside),
        "file_window_outside": (good, beyond),
    }
    files, malformed = {}, []
    for case, (text, x) in bad_files.items():
        path = str(workdir / f"{case}.csv")
        files[path] = text
        malformed.append((case, ["reconstruct", "--kernel", "bspline:2", "--x", x, "--samples", path]))
    x_ok = _g(round(rng.uniform(0.6, 1.8), 3))
    w_ok = _g(round(rng.uniform(100.0, 900.0), 1))
    plain = ["eval", "--kernel", f"bspline:{rng.randint(1, 3)}", "--fn", rng.choice(MESH_FUNCTIONS)]
    malformed += [
        ("x_inf", plain + ["--w", w_ok, "--x", "inf"]),
        ("x_nan", plain + ["--w", w_ok, "--x", "nan"]),
        ("w_inf", plain + ["--w", "inf", "--x", x_ok]),
        ("w_nan", plain + ["--w", "nan", "--x", x_ok]),
        ("w_huge", ["eval", "--kernel", "bspline:2", "--fn", "log", "--w", "1e308", "--x", "2"]),
    ]
    rng.shuffle(groups)
    jobs = [(f"mesh-{i:02d}-{check}", check, argv) for i, g in enumerate(groups) for check, argv in g]
    for case, argv in malformed:
        jobs.insert(rng.randrange(len(jobs) + 1), (f"malformed:{case}", "malformed", argv))
    return Workload(tuple(Job(name, tuple(argv), check) for name, check, argv in jobs), files)


# ---------------------------------------------------------------------------
# moments: moment sums and sup estimates dominate; operators do little

# (kernel, nu_max)
MOMENTS_KERNEL_INFO = (
    ("bspline:1", 3), ("bspline:2", 3), ("bspline:3", 2), ("bspline:4", 1),
    ("combo:3:e^1/2:e^3/2", 1),
)
MOMENTS_TABLE = (
    ("bspline:1", 6), ("bspline:2", 8), ("bspline:2", 4), ("bspline:3", 2),
    ("bspline:4", 2), ("bspline:6", 0), (COMBO, 1),
)
# (check, kernel, extra flags)
MOMENTS_BOUNDS = (
    ("first", "bspline:2", ()), ("first", "bspline:2", ()), ("first", "bspline:3", ()),
    ("first", "bspline:4", ()), ("moment", "bspline:3", ("--r", "2")),
    ("moment", "bspline:4", ("--r", "2")), ("combo", "bspline:2", ("--p", "1")),
    ("combo", "bspline:3", ("--p", "1")), ("combo", "bspline:4", ("--p", "1")),
)
# A fixed case of the known defect that checks.py documents: at this phase
# the order-2 estimate for bspline:3 is exceeded, so every run names it.
MOMENTS_KNOWN_DEFECT = ("bounds", "--kernel", "bspline:3", "--fn", "log3", "--w", "13.66",
                        "--x", "1.9774", "--check", "moment", "--r", "2")
BOUND_FUNCTIONS = ("log", "log2", "log3", "cos4exp", "sinmix")
BOUND_INTERVALS = {"cos4exp": (0.5, 1.0), "sinmix": (0.5 * math.pi, 4.0)}


def moments(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"moments:{seed}")
    jobs = []
    for kernel, nu in MOMENTS_KERNEL_INFO:
        jobs.append(("kernel_info", ["kernel-info", "--kernel", kernel, "--nu-max", str(nu),
                                     "--format", rng.choice(("text", "json"))]))
    for kernel, nu in MOMENTS_TABLE:
        jobs.append(("moments", ["moments", "--kernel", kernel, "--nu-max", str(nu),
                                 "--u", _g(round(rng.uniform(0.3, 5.0), 4)),
                                 "--format", rng.choice(("csv", "text", "json"))]))
    for check, kernel, extra in MOMENTS_BOUNDS:
        fn = rng.choice(BOUND_FUNCTIONS)
        lo, hi = BOUND_INTERVALS.get(fn, (0.5, 3.0))
        jobs.append(("bounds", ["bounds", "--kernel", kernel, "--fn", fn,
                                "--w", _g(round(rng.uniform(5.0, 100.0), 2)),
                                "--x", _g(round(rng.uniform(lo, hi), 4)),
                                "--check", check, *extra]))
    rng.shuffle(jobs)
    jobs = [Job(f"moments-{i:02d}-{argv[0]}", tuple(argv), check) for i, (check, argv) in enumerate(jobs)]
    jobs.insert(rng.randrange(len(jobs) + 1), Job("known:bound_r2_bspline3", MOMENTS_KNOWN_DEFECT, "bounds"))
    return Workload(tuple(jobs), {})


WORKLOADS = {"study": study, "mesh": mesh, "moments": moments}


def generate(name: str, seed: int, workdir: Path) -> Workload:
    return WORKLOADS[name](seed, workdir)
