"""Record a benchmark result as bench/results/<name>.json.

    python3 bench/record.py --name BENCH_0 [--first-seed 101]

For each workload: RUNS untraced runs of run.py, each ``run_seconds``
long (from BENCHMARK.json) and with another seed, summarised per
end-to-end metric as the median and quartiles (statistics.quantiles, n=4)
with their spread (q3 - q1) / median; then two traced runs with one seed,
whose counts must agree exactly.  Runs go one
after another, never side by side.  The file also names the failed jobs and
the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import sys
from pathlib import Path

import numpy as np

from run import COUNT_UNITS, ROOT, WORKLOAD_NAMES, invoke

HERE = Path(__file__).resolve().parent
RUNS = 10


def _summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def _machine() -> dict:
    cpuinfo = Path("/proc/cpuinfo")
    model = re.search(r"model name\s*:\s*(.*)", cpuinfo.read_text()) if cpuinfo.exists() else None
    return {
        "cpus": os.cpu_count(),
        "cpu_model": model.group(1) if model else platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--name", required=True, help="result name, e.g. BENCH_0")
    parser.add_argument("--first-seed", type=int, default=101)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    record = {"name": args.name, "machine": _machine(), "seconds": seconds, "seeds": seeds,
              "workloads": {}}
    for workload in WORKLOAD_NAMES:
        runs = [invoke(workload, seed, seconds, 0) for seed in seeds]
        metrics = runs[0][0]["metrics"]
        failed = sorted({line.split()[1].rstrip(":") for _, lines in runs for line in lines
                         if line.strip().startswith("FAILED")})
        traced = [invoke(workload, seeds[0], seconds, 1)[0] for _ in range(2)]
        layers = traced[0]["metrics"]
        counts_repeat = all(
            traced[0]["metrics"][k]["value"] == traced[1]["metrics"][k]["value"]
            for k, m in layers.items() if m["unit"] in COUNT_UNITS
        )
        record["workloads"][workload] = {
            "end_to_end": {
                key: {"unit": m["unit"], **_summary([r["metrics"][key]["value"] for r, _ in runs])}
                for key, m in metrics.items()
            },
            "correct": all(r["correct"] for r, _ in runs + [(t, []) for t in traced]),
            "attempted": sum(r["attempted"] for r, _ in runs),
            "failed": sum(r["failed"] for r, _ in runs),
            "failed_jobs": failed,
            "per_layer": {"seed": seeds[0], "counts_repeat": counts_repeat, **layers},
        }
        for key, s in record["workloads"][workload]["end_to_end"].items():
            print(f"{workload:8} {key:12} median {s['median']:.6g} {s['unit']}, spread {s['spread']:.4f}")
    out = HERE / "results" / f"{args.name}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
