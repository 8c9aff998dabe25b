"""Record the benchmark baseline of the current source tree.

    python3 perfbench/record_baseline.py [--runs 10] [--seconds 15] [--workload NAME ...]

For each workload, runs ``run.py`` once per seed 1..RUNS untraced and
once traced (seed 1), each in a fresh process, one after another. Writes
``perfbench/baseline.json``: the machine context, every end-to-end
metric's values with median, quartiles and spread (quartile distance
over median), the per-layer metrics of the traced run, and every failed
operation by row.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run

BASELINE = os.path.join(run.HERE, "baseline.json")
NOISY_NOTE = "wall time on 2 shared cores; compare medians against the bound"


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """(result JSON, stdout lines) of one benchmark run."""
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = out.stdout.strip().splitlines()
    print(f"{workload} seed {seed} trace {trace}: {lines[-1][:160]}", file=sys.stderr)
    return json.loads(lines[-1]), lines[:-1]


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--workload", nargs="+", choices=run.WORKLOAD_NAMES, default=list(run.WORKLOAD_NAMES))
    args = parser.parse_args()

    baseline = {"machine": machine(), "run_seconds": args.seconds, "workloads": {}}
    for name in args.workload:
        results = [bench(name, seed, args.seconds, 0) for seed in range(1, args.runs + 1)]
        traced, lines = bench(name, 1, args.seconds, 1)
        e2e = {}
        for metric in results[0][0]["metrics"]:
            e2e[metric] = {"unit": results[0][0]["metrics"][metric]["unit"], "noisy": True}
            e2e[metric] |= summary([r["metrics"][metric]["value"] for r, _ in results])
        e2e["peak_rss_mb"]["noisy"] = False
        baseline["workloads"][name] = {
            "per_seed": [
                {"seed": seed, "correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"]}
                for seed, (r, _) in enumerate(results, start=1)
            ],
            "failures": [line[len("FAILED "):] for line in lines if line.startswith("FAILED ")],
            "end_to_end": e2e,
            "per_layer": {
                metric: {
                    "value": m["value"],
                    "unit": m["unit"],
                    "deterministic": not metric.endswith(("_s", "_ms", "_frac")),
                }
                for metric, m in traced["metrics"].items()
            },
        }
    baseline["noisy"] = NOISY_NOTE
    with open(BASELINE, "w") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    print(f"wrote {BASELINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
