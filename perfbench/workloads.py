"""The four benchmark workloads and the checks on their outputs.

Each workload has three parts:

* ``build(seed)`` makes the inputs; it runs inside the set-up time.
* ``run(inputs, out_dir, speed)`` calls the public functions the CLI
  commands call and returns the raw outputs plus one latency per grid
  point; before each point it samples ``speed`` (a
  ``calibrate.SpeedProbe``, or None), outside the point's time.
* ``check(outputs, out_dir, ref)`` classifies every operation against the
  reference data in ``perfbench/reference`` and returns a ``Verdict``.

Every workload runs serially (``NOMAGSC_WORKERS=1``).
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

from nomagsc import figures, optimizer, sweep, validate
from nomagsc.capacity import QosProfile, SnrPoint
from nomagsc.distributions import GscSpec, UserPairSpec
from nomagsc.montecarlo import SimPlan

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# ROADMAP tolerance for deterministic analytic values across commits.
REL_TOL = 1e-9


@dataclass
class Verdict:
    """Outcome of one pass's output checks.

    ``failures`` lists every failed operation, one line each. ``wrong``
    is the subset whose operation reported success but whose value
    failed a check; ``file_errors`` are checks on files that are not
    operations (difference tables, plot scripts).
    """

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)
    file_errors: list[str] = field(default_factory=list)

    def fail(self, line: str, wrong: bool = False) -> None:
        self.failures.append(line)
        if wrong:
            self.wrong.append(line)


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


def finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def load_reference(name: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{name}.json")) as fh:
        return json.load(fh)


def pair44(n: int) -> UserPairSpec:
    """The reference pair: N = 4 per user, omega_s = 1, omega_w = 0.1."""
    return UserPairSpec(GscSpec(4, n, 1.0), GscSpec(4, n, 0.1))


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _num(text: str) -> float | None:
    return float(text) if text != "" else None


def _timed(speed, fn, *args):
    """(result or raised exception, seconds), after a speed sample."""
    if speed is not None:
        speed.sample()
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # recorded as a failed operation, never aborts the pass
        result = exc
    return result, time.perf_counter() - t0


class ValidateWorkload:
    """``nomagsc validate`` at its default 1e5 samples, one grid point per call."""

    name = "validate-1e5"
    samples = 100_000

    def build(self, seed: int):
        g = validate.DEFAULT_GRID
        grids = [
            {"snr_db": (r,), "theta": (t,), "n": (n,), "a_s": (a,)}
            for r in g["snr_db"]
            for t in g["theta"]
            for n in g["n"]
            for a in g["a_s"]
        ]
        return SimPlan(self.samples, seed), grids

    def run(self, inputs, out_dir, speed):
        plan, grids = inputs
        results, latency = [], []
        for grid in grids:
            rows, dt = _timed(speed, validate.run_validation, plan, grid)
            results.append((grid, rows))
            latency.append(dt)
        return results, latency

    @staticmethod
    def rows(outputs) -> list:
        return [r for _, rows in outputs if not isinstance(rows, Exception) for r in rows]

    def check(self, outputs, out_dir, ref) -> Verdict:
        analytic = {
            (e["rho_db"], e["theta"], e["n"], e["a_s"], e["quantity"]): e["analytic"]
            for e in ref["analytic"]
        }
        per_point = ref["checks_per_point"]
        v = Verdict()
        for grid, rows in outputs:
            point = f"rho={grid['snr_db'][0]:g}dB theta={grid['theta'][0]:g} n={grid['n'][0]} a_s={grid['a_s'][0]:g}"
            v.attempted += per_point
            if isinstance(rows, Exception):
                for _ in range(per_point):
                    v.fail(f"{point}: raised {type(rows).__name__}: {rows}")
                continue
            if len(rows) != per_point:
                v.fail(f"{point}: {len(rows)} checks, expected {per_point}", wrong=True)
            for r in rows:
                label = f"{point} {r.quantity}"
                want = analytic.get((r.rho_db, r.theta, r.n, r.a_s, r.quantity))
                if not finite(r.analytic, r.estimate, r.std_error):
                    v.fail(f"{label}: non-finite value")
                elif want is None or not close(r.analytic, want):
                    v.fail(f"{label}: analytic {r.analytic!r} != reference {want!r}", wrong=True)
                elif not r.passed:
                    v.fail(f"{label}: |z| = {r.z:.3f} > 3", wrong=True)
        return v


class FiguresWorkload:
    """``nomagsc figure fig1..fig5``; the figure specs keep their built-in seed."""

    name = "figures"

    def build(self, seed: int):
        return sorted(figures.FIGURE_SPECS)

    def run(self, names, out_dir, speed):
        # A figure is one call; its grid points are timed at the serial
        # per-point evaluator that run_sweep calls with NOMAGSC_WORKERS=1.
        latency = []
        evaluate_point = sweep._evaluate_point

        def timed_point(args):
            if speed is not None:
                speed.sample()
            t0 = time.perf_counter()
            try:
                return evaluate_point(args)
            finally:
                latency.append(time.perf_counter() - t0)

        sweep._evaluate_point = timed_point
        try:
            written = {name: _timed(None, figures.generate_figure, name, out_dir)[0] for name in names}
        finally:
            sweep._evaluate_point = evaluate_point
        return written, latency

    def check(self, written, out_dir, ref) -> Verdict:
        v = Verdict()
        analytic = ref["analytic"]
        for name, files in written.items():
            expected = ref["rows"][name]
            v.attempted += expected
            if isinstance(files, Exception):
                for _ in range(expected):
                    v.fail(f"{name}: raised {type(files).__name__}: {files}")
                continue
            rows = read_csv(os.path.join(out_dir, f"{name}.csv"))
            if len(rows) != expected:
                v.fail(f"{name}: {len(rows)} rows, expected {expected}", wrong=True)
            exact = {
                (r["rho_db"], r["theta"], r["n_s"]): _num(r["e_sum"])
                for r in rows
                if r["method"] == "exact" and r["status"] == "ok"
            }
            for r in rows:
                key = "|".join((name, r["rho_db"], r["theta"], r["n_s"], r["method"]))
                label = f"{name} rho={r['rho_db']}dB theta={r['theta']} n={r['n_s']} {r['method']}"
                values = [_num(r[c]) for c in ("e_strong", "e_weak", "e_sum", "std_error")]
                if r["status"] != "ok":
                    v.fail(f"{label}: {r['status']}")
                elif not finite(*values):
                    v.fail(f"{label}: non-finite value")
                elif r["method"] == "montecarlo":
                    e_exact = exact.get((r["rho_db"], r["theta"], r["n_s"]))
                    se = values[3]
                    if e_exact is None or abs(values[2] - e_exact) > 3 * se:
                        v.fail(f"{label}: e_sum {values[2]!r} not within 3 SE ({se!r}) of exact {e_exact!r}", wrong=True)
                elif key not in analytic or not all(
                    close(got, want) for got, want in zip(values[:3], analytic[key])
                ):
                    v.fail(f"{label}: {values[:3]!r} != reference {analytic.get(key)!r}", wrong=True)
            self._check_files(name, out_dir, ref, v)
        return v

    @staticmethod
    def _check_files(name, out_dir, ref, v):
        if name in ref["diff"]:
            want = ref["diff"][name]
            got = {
                "|".join((r["rho_db"], r["theta"], r["n"])): float(r["delta_e_sum"])
                for r in read_csv(os.path.join(out_dir, f"{name}_diff.csv"))
            }
            if got.keys() != want.keys() or not all(close(got[k], want[k]) for k in want):
                v.file_errors.append(f"{name}_diff.csv differs from the reference")
        with open(os.path.join(out_dir, f"{name}.gp"), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != ref["scripts"][name]:
                v.file_errors.append(f"{name}.gp differs from the reference")


class OptimizeWorkload:
    """``nomagsc optimize``: default power search per grid point on the N = 4 pair."""

    name = "optimize"

    def build(self, seed: int):
        return [
            (rho_db, theta, n, pair44(n), QosProfile(theta), SnrPoint.from_db(rho_db))
            for rho_db in (0.0, 10.0, 20.0, 30.0, 40.0)
            for theta in (0.5, 1.0)
            for n in (1, 2, 3, 4)
        ]

    def run(self, points, out_dir, speed):
        search = optimizer.SearchSpec()
        results, latency = [], []
        for rho_db, theta, n, pair, qos, snr in points:
            result, dt = _timed(speed, optimizer.optimize_power, pair, qos, snr, search)
            results.append(((rho_db, theta, n), result))
            latency.append(dt)
        return results, latency

    def check(self, results, out_dir, ref) -> Verdict:
        want = {(e["rho_db"], e["theta"], e["n"]): e for e in ref["points"]}
        v = Verdict()
        for key, result in results:
            label = "rho={:g}dB theta={:g} n={}".format(*key)
            v.attempted += 1
            if isinstance(result, Exception):
                v.fail(f"{label}: raised {type(result).__name__}: {result}")
                continue
            rep, w = result.report, want[key]
            if not finite(rep.e_strong, rep.e_weak):
                v.fail(f"{label}: non-finite value")
            elif result.a_star != w["a_star"] or not close(rep.e_sum, w["e_sum"]):
                v.fail(
                    f"{label}: (a*, e_sum) = ({result.a_star!r}, {rep.e_sum!r}), "
                    f"reference ({w['a_star']!r}, {w['e_sum']!r})",
                    wrong=True,
                )
            elif len(result.grid) != w["objective_evals"]:
                v.fail(f"{label}: {len(result.grid)} objective evaluations", wrong=True)
        return v


class WideArrayWorkload:
    """A 12-antenna sweep: each density call sums 1 + (N - n) n series terms."""

    name = "wide-array"
    config = {
        "pair": {"N_s": 12, "N_w": 12, "omega_s": 1.0, "omega_w": 0.1},
        "n": [1, 3, 6, 9, 12],
        "snr_db": [0, 10, 20, 30, 40],
        "theta": [0.5, 1.0],
        "power": {"a_s": 0.24},
        "methods": ["exact", "low_snr", "oma", "ergodic"],
    }
    # Exact/OMA/ergodic rows must agree with the Monte Carlo reference
    # within this many of its standard errors.
    z_bound = 4.0

    def build(self, seed: int):
        spec = sweep.SweepSpec.from_dict(self.config)
        return [
            dataclasses.replace(spec, snr_db=(r,), theta=(t,), n_values=(n,))
            for r in sorted(spec.snr_db)
            for t in sorted(spec.theta)
            for n in sorted(spec.n_values)
        ]

    def run(self, point_specs, out_dir, speed):
        rows, latency = [], []
        for spec in point_specs:
            got, dt = _timed(speed, sweep.run_sweep, spec)
            rows.extend([] if isinstance(got, Exception) else got)
            latency.append(dt)
        sweep.emit(rows, "csv", os.path.join(out_dir, "wide-array.csv"))
        return len(point_specs), latency

    def check(self, n_points, out_dir, ref) -> Verdict:
        methods = self.config["methods"]
        mc = {(p["rho_db"], p["theta"], p["n"]): p for p in ref["points"]}
        rows = read_csv(os.path.join(out_dir, "wide-array.csv"))
        v = Verdict(attempted=n_points * len(methods))
        if len(rows) != v.attempted:
            for _ in range(v.attempted - len(rows)):
                v.fail("missing row (a grid point raised)")
        by_point: dict = {}
        for r in rows:
            key = (float(r["rho_db"]), float(r["theta"]), int(r["n_s"]))
            by_point.setdefault(key, {})[r["method"]] = r
        for key, got in sorted(by_point.items()):
            erg = got.get("ergodic")
            erg_ok = erg is not None and erg["status"] == "ok"
            for method in methods:
                r = got.get(method)
                label = "rho={:g}dB theta={:g} n={} ".format(*key) + method
                if r is None:
                    continue  # counted as a missing row above
                es, ew = _num(r["e_strong"]), _num(r["e_weak"])
                if r["status"] != "ok":
                    v.fail(f"{label}: {r['status']}")
                elif not finite(es, ew):
                    v.fail(f"{label}: non-finite value")
                elif es < 0 or ew < 0:
                    v.fail(f"{label}: negative EC ({es!r}, {ew!r})", wrong=True)
                elif method != "low_snr":
                    reason = self._against_reference(method, es, ew, mc[key])
                    if reason is None and method == "exact" and erg_ok:
                        bound = (_num(erg["e_strong"]), _num(erg["e_weak"]))
                        if es > bound[0] * (1 + REL_TOL) or ew > bound[1] * (1 + REL_TOL):
                            reason = f"EC ({es!r}, {ew!r}) above the ergodic row {bound!r}"
                    if reason is not None:
                        v.fail(f"{label}: {reason}", wrong=True)
        return v

    def _against_reference(self, method, es, ew, point):
        names = {"exact": ("strong", "weak"), "oma": ("oma_strong", "oma_weak"),
                 "ergodic": ("ergodic_strong", "ergodic_weak")}[method]
        for got, name in zip((es, ew), names):
            value, se = point[name]
            z = abs(got - value) / se
            if not z <= self.z_bound:
                return f"{name} {got!r} vs Monte Carlo {value!r} +- {se!r}: z = {z:.2f} > {self.z_bound:g}"
        return None


WORKLOADS = {
    w.name: w
    for w in (ValidateWorkload(), FiguresWorkload(), OptimizeWorkload(), WideArrayWorkload())
}
