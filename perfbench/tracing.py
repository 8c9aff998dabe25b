"""Outside-in tracing of the nomagsc layers, from the benchmark's own files.

``Tracer.install()`` replaces each traced public function with a wrapper
at every import site inside the package (``capacity`` and
``distributions`` import ``integrate_semi_infinite`` by name, ``figures``
imports ``emit``/``run_sweep``, ``sweep`` imports ``optimize_power``), so
no file under ``src/`` changes. Each call records a span (id, parent id,
name, start, end); a span's self time is its duration minus the time its
child spans cover. Density calls made inside a quadrature integrand are
children of that ``numerics.quad`` span. Spans stay in memory and are
written when the run ends (``write_spans``).
"""

from __future__ import annotations

import itertools
import os
import sys
import time
from array import array

import numpy as np

from nomagsc import (
    capacity,
    distributions,
    figures,
    montecarlo,
    numerics,
    optimizer,
    sweep,
    validate,
)

ROOT_SPAN = "bench.pass"

DENSITY_FUNCTIONS = (
    "gsc_pdf", "gsc_cdf", "min_pdf_sc", "min_pdf_mrc", "min_pdf_general",
    "gsc_moments", "min_moments",
)
CAPACITY_FUNCTIONS = ("evaluate_noma", "evaluate_oma", "ergodic_rate", "ec_high_snr", "ec_low_snr")
SPANS = (
    (ROOT_SPAN, "numerics.quad")
    + tuple(f"distributions.{f}" for f in DENSITY_FUNCTIONS)
    + tuple(f"capacity.{f}" for f in CAPACITY_FUNCTIONS)
    + (
        "montecarlo.estimate",
        "optimizer.optimize_power",
        "sweep.run_sweep",
        "sweep.emit",
        "figures.generate_figure",
        "validate.run_validation",
    )
)
COUNTERS = (
    "numerics.quad.integrand_evals",
    "numerics.quad.subdivisions",
    "numerics.quad.failed",
    "distributions.series_terms",
    "capacity.failed",
    "montecarlo.samples",
    "montecarlo.branch_draws",
    "optimizer.objective_evals",
    "sweep.rows",
    "sweep.error_rows",
    "sweep.emit.bytes",
    "figures.bytes_written",
    "validate.checks",
    "validate.checks_failed",
)


def _gsc_terms(args) -> int:
    """Series terms of one GSC density or distribution evaluation."""
    spec = args[0]
    return 1 + (spec.antennas - spec.combined) * spec.combined


def _min_moment_terms(args) -> int:
    pair, mode = args[0], (args[1] if len(args) > 1 else "general").lower()
    s, w = pair.strong.antennas, pair.weak.antennas
    # two moments; "general" integrates min_pdf_general, whose calls count
    return {"sc": 2 * s * w, "mrc": 2 * (s + w)}.get(mode, 0)


SERIES_TERMS = {
    "gsc_pdf": _gsc_terms,
    "gsc_cdf": _gsc_terms,
    "min_pdf_sc": lambda a: a[0].strong.antennas * a[0].weak.antennas,
    "min_pdf_mrc": lambda a: a[0].strong.antennas + a[0].weak.antennas,
    "min_pdf_general": None,  # its gsc_pdf/gsc_cdf calls are counted
    "gsc_moments": lambda a: 2 * _gsc_terms(a),
    "min_moments": _min_moment_terms,
}

# Specs each estimator draws from its batch streams (for the draw replay)
# and the position of its SimPlan argument.
ESTIMATORS = {
    "estimate_ec_strong": (lambda a: (a[0].strong,), 4),
    "estimate_ec_weak": (lambda a: (a[0].strong, a[0].weak), 4),
    "estimate_ergodic": (lambda a: (a[0].strong, a[0].weak), 3),
    "estimate_ec_oma": (lambda a: (a[0],), 3),
}


class Tracer:
    """Spans of one traced pass plus the layer counters measured at the
    same boundaries."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # flat (id, parent id, name index, start, end) per span
        self.log = array("d")
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.max_z = 0.0
        self.draws: list[tuple] = []  # (GscSpec, SimPlan) per stream drawn
        self._stack = [[0, 0.0]]  # [span id, child seconds]; id 0 is "no parent"
        self._ids = itertools.count(1)

    def span(self, name: str, fn, count=None, failed=None, terms=None):
        """Wrap ``fn`` in a span named ``name``.

        ``count(args, result)`` runs on success, ``terms(args)`` adds to
        ``distributions.series_terms`` and the counter ``failed`` goes up
        when ``fn`` raises.
        """
        stack, log, ids, clock = self._stack, self.log, self._ids, time.perf_counter
        code = SPANS.index(name)
        calls, self_s, counts = self.calls, self.self_s, self.counts

        def traced(*args, **kwargs):
            span_id = next(ids)
            frame = [span_id, 0.0]
            parent = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if failed is not None:
                    counts[failed] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                self_s[name] += duration - frame[1]
                calls[name] += 1
                parent[1] += duration
                log.extend((span_id, parent[0], code, t0, t1))
            if terms is not None:
                counts["distributions.series_terms"] += terms(args)
            if count is not None:
                count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def root(self, fn, *args):
        """Run ``fn(*args)`` as the root span of the traced pass."""
        return self.span(ROOT_SPAN, fn)(*args)

    # -- layer-specific counters -------------------------------------------

    def _quad(self, fn):
        counts = self.counts

        def counted(f, *args, **kwargs):
            evals = 0

            def integrand(x):
                nonlocal evals
                evals += 1
                return f(x)

            try:
                result = fn(integrand, *args, **kwargs)
            finally:
                counts["numerics.quad.integrand_evals"] += evals
            counts["numerics.quad.subdivisions"] += result.subdivisions_used
            return result

        return self.span("numerics.quad", counted, failed="numerics.quad.failed")

    def _count_estimate(self, specs, plan_index):
        def count(args, result):
            drawn = specs(args)
            first = result[0] if isinstance(result, tuple) else result
            self.counts["montecarlo.samples"] += first.samples_used
            self.counts["montecarlo.branch_draws"] += first.samples_used * sum(
                s.antennas for s in drawn
            )
            self.draws.extend((s, args[plan_index]) for s in drawn)

        return count

    def _count_optimize(self, args, result):
        self.counts["optimizer.objective_evals"] += len(result.grid)

    def _count_sweep(self, args, rows):
        self.counts["sweep.rows"] += len(rows)
        self.counts["sweep.error_rows"] += sum(r.status != "ok" for r in rows)

    def _count_emit(self, args, result):
        self.counts["sweep.emit.bytes"] += os.path.getsize(args[2])

    def _count_figure(self, args, written):
        self.counts["figures.bytes_written"] += sum(os.path.getsize(p) for p in written)

    def _count_validation(self, args, rows):
        self.counts["validate.checks"] += len(rows)
        self.counts["validate.checks_failed"] += sum(not r.passed for r in rows)
        self.max_z = max([self.max_z] + [r.z for r in rows])

    def wrappers(self) -> list[tuple]:
        """(original function, wrapper) for every traced public function."""
        pairs = [(numerics.integrate_semi_infinite, self._quad(numerics.integrate_semi_infinite))]
        for f in DENSITY_FUNCTIONS:
            fn = getattr(distributions, f)
            pairs.append((fn, self.span(f"distributions.{f}", fn, terms=SERIES_TERMS[f])))
        for f in CAPACITY_FUNCTIONS:
            fn = getattr(capacity, f)
            pairs.append((fn, self.span(f"capacity.{f}", fn, failed="capacity.failed")))
        for f, (specs, plan_index) in ESTIMATORS.items():
            fn = getattr(montecarlo, f)
            pairs.append((fn, self.span("montecarlo.estimate", fn, self._count_estimate(specs, plan_index))))
        for fn, name, count in (
            (optimizer.optimize_power, "optimizer.optimize_power", self._count_optimize),
            (sweep.run_sweep, "sweep.run_sweep", self._count_sweep),
            (sweep.emit, "sweep.emit", self._count_emit),
            (figures.generate_figure, "figures.generate_figure", self._count_figure),
            (validate.run_validation, "validate.run_validation", self._count_validation),
        ):
            pairs.append((fn, self.span(name, fn, count)))
        return pairs

    def install(self):
        """Patch every import site in the package; returns the undo function."""
        patched = []
        modules = [m for n, m in list(sys.modules.items()) if n == "nomagsc" or n.startswith("nomagsc.")]
        for original, wrapper in self.wrappers():
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))

        def restore():
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

        return restore

    def replay_draws(self) -> float:
        """Seconds to draw and combine the same streams the estimators drew."""
        if not self.draws:
            return 0.0
        t0 = time.perf_counter()
        for spec, plan in self.draws:
            for _ in montecarlo.sample_gsc_power(spec, plan):
                pass
        return time.perf_counter() - t0

    def pass_metrics(self, wall_s: float, draw_combine_s: float) -> dict:
        """Per-layer metrics of the traced pass."""
        m = {}
        for name in SPANS[1:]:
            m[f"{name}.calls"] = self.calls[name]
            m[f"{name}.self_s"] = self.self_s[name]
        m.update(self.counts)
        m["validate.max_z"] = self.max_z
        m["montecarlo.draw_combine_s"] = draw_combine_s
        # derived: estimator self time not spent drawing and combining
        m["montecarlo.functional_accumulate_s"] = self.self_s["montecarlo.estimate"] - draw_combine_s
        m["trace.wall_s"] = wall_s
        m["trace.unattributed_frac"] = self.self_s[ROOT_SPAN] / wall_s
        return m

def write_spans(path: str, tracers: list[Tracer]) -> None:
    """Write the spans of traced passes as a numpy archive, one array per
    field; ``run`` indexes ``runs``, ``name`` indexes ``names``."""
    logs = [np.frombuffer(t.log, dtype=np.float64).reshape(-1, 5) for t in tracers]
    spans = np.concatenate(logs)
    np.savez(
        path,
        runs=np.array([t.run_id for t in tracers]),
        names=np.array(SPANS),
        run=np.repeat(np.arange(len(logs), dtype=np.int16), [len(log) for log in logs]),
        id=spans[:, 0].astype(np.int64),
        parent=spans[:, 1].astype(np.int64),
        name=spans[:, 2].astype(np.int16),
        start=spans[:, 3],
        end=spans[:, 4],
    )


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    return list(Tracer("names").pass_metrics(1.0, 0.0)) + ["trace.overhead_frac", "machine.kernel_ms"]


def is_count(name: str) -> bool:
    """Deterministic metrics: everything but times and ratios of times."""
    return not name.endswith(("_s", "_ms", "_frac"))


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith(("bytes", "bytes_written")):
        return "bytes"
    if name == "validate.max_z":
        return "sigma"
    return "count"
