"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

Runs each workload's traced pass twice in this process and asserts that

* every deterministic per-layer counter repeats exactly, and so does the
  list of failed operations;
* the layers' self times sum to the traced pass's wall time within
  ``RESIDUAL`` (the share left to the benchmark's own loop);
* on ``validate-1e5``, the validation table is byte-identical between the
  two passes and equal to one untraced whole-grid ``run_validation`` call.

Exits 0 when every assertion holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

import run

# Self time left to the benchmark's root span, as a share of the traced
# pass wall time; measured below 0.1% on every workload.
RESIDUAL = 0.01


def validation_table(rows) -> bytes:
    from nomagsc import validate

    with tempfile.TemporaryDirectory(dir=run.OUT_ROOT) as tmp:
        path = os.path.join(tmp, "validation.csv")
        validate.write_csv(rows, path)
        with open(path, "rb") as fh:
            return fh.read()


def check_workload(name: str, seed: int) -> list[str]:
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    reference = workloads.load_reference(name)
    inputs = workload.build(seed)
    (a, ta), (b, tb) = (run.traced_pass(workload, inputs, reference, f"selftest-{name}-{tag}") for tag in "ab")
    ma, mb = ta.pass_metrics(a.wall_s, 0.0), tb.pass_metrics(b.wall_s, 0.0)
    errors = [
        f"{name}: counter {k} differs: {ma[k]} vs {mb[k]}"
        for k in ma
        if tracing.is_count(k) and ma[k] != mb[k]
    ]
    if a.verdict.failures != b.verdict.failures:
        errors.append(f"{name}: failed operations differ between passes")
    for tag, m in (("a", ma), ("b", mb)):
        layers = sum(m[k] for k in m if k.endswith(".self_s"))
        residual = abs(m["trace.wall_s"] - layers) / m["trace.wall_s"]
        print(f"{name} pass {tag}: layer self times {layers:.4f} s of {m['trace.wall_s']:.4f} s traced wall"
              f" (residual {residual:.2e})")
        if not residual <= RESIDUAL:
            errors.append(f"{name} pass {tag}: self-time residual {residual:.4f} > {RESIDUAL}")
    if name == "validate-1e5":
        from nomagsc import validate

        table = validation_table(workload.rows(a.outputs))
        if table != validation_table(workload.rows(b.outputs)):
            errors.append(f"{name}: validation table differs between two passes with seed {seed}")
        if table != validation_table(validate.run_validation(inputs[0])):
            errors.append(f"{name}: per-point tables differ from one whole-grid call")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=run.WORKLOAD_NAMES, default=list(run.WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    run.use_checkout_source()
    os.makedirs(run.OUT_ROOT, exist_ok=True)
    errors = []
    for name in args.workload:
        errors += check_workload(name, args.seed)
    for line in errors:
        print(f"FAIL {line}")
    print("selftest passed" if not errors else f"selftest: {len(errors)} failures")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
