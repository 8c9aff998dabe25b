"""Regenerate the reference data the benchmark checks outputs against.

    python3 perfbench/make_reference.py [--only NAME ...]

Writes ``perfbench/reference/<workload>.json``:

* ``validate-1e5``, ``figures``, ``optimize``: the N = 4 analytic and
  approximation values of the commit this runs on, checked later to
  1e-9 relative.
* ``wide-array``: a Monte Carlo reference at 1e6 samples from the
  package's simulator, which draws branch powers and keeps the n largest
  by partial sort; it never evaluates a density. The analytic values of
  this workload are not used as a reference, because some of them are
  wrong (ROADMAP open item 2).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

import run

run.use_checkout_source()

from nomagsc import capacity, montecarlo, optimizer, validate  # noqa: E402
from nomagsc.capacity import PowerSplit  # noqa: E402
from nomagsc.montecarlo import SimPlan  # noqa: E402

import workloads  # noqa: E402

WIDE_SAMPLES = 1_000_000
WIDE_SEED = 20191101


def validate_reference() -> dict:
    # Analytic values do not depend on the simulation plan; a tiny plan
    # runs the same code path as the workload.
    rows = validate.run_validation(SimPlan(samples=16, seed=0))
    keys = ("rho_db", "theta", "n", "a_s", "quantity", "analytic")
    return {
        "checks_per_point": len(rows) // len(workloads.ValidateWorkload().build(0)[1]),
        "analytic": [{k: getattr(r, k) for k in keys} for r in rows],
    }


def figures_reference() -> dict:
    w = workloads.FiguresWorkload()
    ref: dict = {"rows": {}, "analytic": {}, "diff": {}, "scripts": {}}
    with tempfile.TemporaryDirectory(dir=run.OUT_ROOT) as out_dir:
        written, _ = w.run(w.build(0), out_dir, None)
        for name, files in written.items():
            if isinstance(files, Exception):
                raise files
            rows = workloads.read_csv(os.path.join(out_dir, f"{name}.csv"))
            ref["rows"][name] = len(rows)
            for r in rows:
                if r["method"] == "montecarlo":
                    continue
                if r["status"] != "ok":
                    raise RuntimeError(f"{name}: error row {r}")
                key = "|".join((name, r["rho_db"], r["theta"], r["n_s"], r["method"]))
                ref["analytic"][key] = [float(r[c]) for c in ("e_strong", "e_weak", "e_sum")]
            diff_path = os.path.join(out_dir, f"{name}_diff.csv")
            if diff_path in files:
                ref["diff"][name] = {
                    "|".join((r["rho_db"], r["theta"], r["n"])): float(r["delta_e_sum"])
                    for r in workloads.read_csv(diff_path)
                }
            with open(os.path.join(out_dir, f"{name}.gp"), "rb") as fh:
                ref["scripts"][name] = hashlib.sha256(fh.read()).hexdigest()
    return ref


def optimize_reference() -> dict:
    points = []
    for rho_db, theta, n, pair, qos, snr in workloads.OptimizeWorkload().build(0):
        result = optimizer.optimize_power(pair, qos, snr, optimizer.SearchSpec())
        rep = result.report
        points.append(
            {
                "rho_db": rho_db, "theta": theta, "n": n, "a_star": result.a_star,
                "e_strong": rep.e_strong, "e_weak": rep.e_weak, "e_sum": rep.e_sum,
                "objective_evals": len(result.grid),
            }
        )
    return {"points": points}


def wide_array_reference() -> dict:
    plan = SimPlan(samples=WIDE_SAMPLES, seed=WIDE_SEED)
    points = []
    ergodic = {}
    for spec in workloads.WideArrayWorkload().build(0):
        (rho_db,), (theta,), (n,) = spec.snr_db, spec.theta, spec.n_values
        pair = spec.pair_for(n)
        split = PowerSplit(spec.a_s)
        qos = capacity.QosProfile(theta, spec.block_length, spec.bandwidth)
        snr = capacity.SnrPoint.from_db(rho_db)
        if (rho_db, n) not in ergodic:
            ergodic[rho_db, n] = montecarlo.estimate_ergodic(pair, split, snr, plan)
        es, ew = ergodic[rho_db, n]
        estimates = {
            "strong": montecarlo.estimate_ec_strong(pair, split, qos, snr, plan),
            "weak": montecarlo.estimate_ec_weak(pair, split, qos, snr, plan),
            "oma_strong": montecarlo.estimate_ec_oma(pair.strong, qos, snr, plan),
            "oma_weak": montecarlo.estimate_ec_oma(pair.weak, qos, snr, plan),
            "ergodic_strong": es,
            "ergodic_weak": ew,
        }
        points.append(
            {"rho_db": rho_db, "theta": theta, "n": n}
            | {k: [e.value, e.std_error] for k, e in estimates.items()}
        )
        print(f"wide-array reference: rho={rho_db:g} theta={theta:g} n={n}", file=sys.stderr)
    return {"samples": WIDE_SAMPLES, "seed": WIDE_SEED, "points": points}


MAKERS = {
    "validate-1e5": validate_reference,
    "figures": figures_reference,
    "optimize": optimize_reference,
    "wide-array": wide_array_reference,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", choices=sorted(MAKERS), default=sorted(MAKERS))
    args = parser.parse_args()
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    os.makedirs(run.OUT_ROOT, exist_ok=True)
    for name in args.only:
        data = MAKERS[name]()
        path = os.path.join(workloads.REFERENCE_DIR, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
