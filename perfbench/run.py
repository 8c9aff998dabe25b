"""nomagsc benchmark: one workload in one fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory, with ``NOMAGSC_WORKERS=1``. Whole workload passes
repeat until ``--seconds`` have passed and at least ``MIN_POINTS`` grid
points are pooled. Every pass's outputs are checked. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` (per pass) and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench-out")
WORKLOAD_NAMES = ("validate-1e5", "figures", "optimize", "wide-array")

# p90 is reported only with at least ten pooled points beyond it.
MIN_POINTS = 100
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "point_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def use_checkout_source() -> None:
    """Import nomagsc from this checkout's ``src/``, never from elsewhere."""
    package = os.path.join(SRC, "nomagsc")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"perfbench: no package source at {package}")
    os.environ["NOMAGSC_WORKERS"] = "1"
    sys.path.insert(0, SRC)
    import nomagsc

    if os.path.dirname(os.path.abspath(nomagsc.__file__)) != package:
        sys.exit(f"perfbench: imported nomagsc from {nomagsc.__file__}, not {package}")


@dataclass
class PassResult:
    wall_s: float  # measured, without the speed samples
    scale: float  # measured to reference-speed time (1 when not calibrated)
    latency_s: list
    verdict: object
    outputs: object


def run_pass(workload, inputs, reference, tracer=None, speed=None) -> PassResult:
    """One complete workload pass, timed, then its output checks (untimed).

    A traced pass (``tracer``) takes no speed samples, so that every span
    belongs to the package.
    """
    os.makedirs(OUT_ROOT, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_ROOT)
    start = len(speed.samples) if speed is not None else 0
    try:
        t0 = time.perf_counter()
        if tracer is None:
            outputs, latency = workload.run(inputs, out_dir, speed)
        else:
            outputs, latency = tracer.root(workload.run, inputs, out_dir, None)
        wall = time.perf_counter() - t0
        verdict = workload.check(outputs, out_dir, reference)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if speed is None:
        return PassResult(wall, 1.0, latency, verdict, outputs)
    return PassResult(wall - speed.spent(start), speed.scale(start), latency, verdict, outputs)


def traced_pass(workload, inputs, reference, run_id: str):
    """One pass with every layer traced; returns (PassResult, Tracer)."""
    import tracing

    tracer = tracing.Tracer(run_id)
    restore = tracer.install()
    try:
        return run_pass(workload, inputs, reference, tracer), tracer
    finally:
        restore()


def measure_setup(name: str, seed: int) -> tuple[float, float]:
    """Medians, scaled to reference speed and as measured, of the wall time
    from process start to inputs built, over fresh processes."""
    scaled, measured = [], []
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py"), name, str(seed)]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(probe, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            try:
                line = child.stdout.readline()
                elapsed = time.perf_counter() - t0
                kernel_s, _ = child.communicate(timeout=SETUP_TIMEOUT_S)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
        measured.append(elapsed)
        scaled.append(elapsed * calibrate.REFERENCE_S / float(kernel_s))
    return statistics.median(scaled), statistics.median(measured)


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def consistent(passes) -> list[str]:
    """Problems that make the run incorrect: values that reported success
    but failed a check, file mismatches, and passes that disagree."""
    first = passes[0].verdict
    problems = first.wrong + first.file_errors
    for k, p in enumerate(passes[1:], start=2):
        if p.verdict.failures != first.failures or p.verdict.file_errors != first.file_errors:
            problems.append(f"pass {k} checks differ from pass 1")
    return problems


def end_to_end(workload, inputs, reference, seed, seconds):
    setup_s, setup_measured = measure_setup(workload.name, seed)
    speed = calibrate.SpeedProbe()
    passes = []
    t0 = time.perf_counter()
    while (
        not passes
        or time.perf_counter() - t0 < seconds
        or sum(len(p.latency_s) for p in passes) < MIN_POINTS
    ):
        passes.append(run_pass(workload, inputs, reference, speed=speed))
    points_ms = [1e3 * s for p in passes for s in p.latency_s]
    scaled_ms = [1e3 * s * p.scale for p in passes for s in p.latency_s]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall_s * p.scale for p in passes),
        "point_ms_p90": percentile(scaled_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # As measured, for reading; the reported times are at reference speed.
    print(f"{len(passes)} passes, {len(points_ms)} points; measured pass wall_s: "
          + " ".join(f"{p.wall_s:.3f}" for p in passes))
    print(f"measured: setup_s {setup_measured:.4f}, wall_s {statistics.median(p.wall_s for p in passes):.4f}, "
          f"point_ms_p50 {statistics.median(points_ms):.4f}, point_ms_p90 {percentile(points_ms, 90):.4f}; "
          f"speed kernel {1e3 * statistics.fmean(speed.samples):.4f} ms "
          f"(reference {1e3 * calibrate.REFERENCE_S:g} ms)")
    return passes, metrics, {name: END_TO_END_UNITS[name] for name in metrics}


def per_layer(workload, inputs, reference, seed, seconds):
    import tracing

    speed = calibrate.SpeedProbe()
    untraced, traced, tracers = [], [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        untraced.append(run_pass(workload, inputs, reference, speed=speed))
        run_id = f"{workload.name}-seed{seed}-pid{os.getpid()}-pass{len(traced) + 1}"
        result, tracer = traced_pass(workload, inputs, reference, run_id)
        traced.append(result)
        tracers.append(tracer)
    draw_combine_s = tracers[0].replay_draws()  # every traced pass draws the same streams
    layer = [t.pass_metrics(p.wall_s, draw_combine_s) for t, p in zip(tracers, traced)]
    spans_path = os.path.join(OUT_ROOT, f"spans-{workload.name}.npz")
    tracing.write_spans(spans_path, tracers)
    # counts repeat exactly (checked below); times are medians over passes
    metrics = {
        k: layer[0][k] if tracing.is_count(k) else statistics.median(m[k] for m in layer)
        for k in layer[0]
    }
    metrics["trace.overhead_frac"] = (
        statistics.median(p.wall_s for p in traced) / statistics.median(p.wall_s for p in untraced) - 1
    )
    metrics["machine.kernel_ms"] = 1e3 * statistics.fmean(speed.samples)
    unsteady = [k for k in layer[0] if tracing.is_count(k) and any(m[k] != layer[0][k] for m in layer)]
    print(f"{len(traced)} traced passes; spans in {os.path.relpath(spans_path, ROOT)}")
    problems = [f"deterministic counter {k} differs between traced passes" for k in unsteady]
    return untraced + traced, metrics, {k: tracing.unit(k) for k in metrics}, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nomagsc benchmark (one workload)")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_source()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference(workload.name)
    inputs = workload.build(args.seed)
    print(f"workload {workload.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    if args.trace:
        passes, metrics, units, problems = per_layer(workload, inputs, reference, args.seed, args.seconds)
    else:
        passes, metrics, units = end_to_end(workload, inputs, reference, args.seed, args.seconds)
        problems = []
    problems = consistent(passes) + problems
    verdict = passes[0].verdict
    for line in verdict.failures:
        print(f"FAILED {line}")
    for line in problems:
        print(f"INCORRECT {line}")
    print(f"{len(verdict.failures)}/{verdict.attempted} operations failed per pass")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": verdict.attempted,
                "failed": len(verdict.failures),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
