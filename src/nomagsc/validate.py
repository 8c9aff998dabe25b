"""Analytic-vs-Monte-Carlo oracle grid.

Checks every quantity of ``capacity.QUANTITIES`` over a reference grid:
its exact value (``capacity.exact_cases``) against its Monte Carlo
estimate (``montecarlo.estimate_cases``), within three standard errors.
"""

from __future__ import annotations

import itertools
import math
import threading
from concurrent.futures import wait
from dataclasses import dataclass

from . import capacity, montecarlo
from .capacity import PowerSplit, QosProfile, SnrPoint
from .distributions import GscSpec, UserPairSpec
from .montecarlo import SimPlan
from .sweep import write_table

DEFAULT_GRID = {
    "snr_db": (0.0, 10.0, 20.0, 30.0, 40.0),
    "theta": (0.5, 1.0),
    "n": (1, 2, 3, 4),
    "a_s": (0.1, 0.24),
}

CSV_COLUMNS = (
    "rho_db",
    "theta",
    "n",
    "a_s",
    "quantity",
    "analytic",
    "estimate",
    "std_error",
    "z",
    "status",
)


@dataclass(frozen=True)
class ValidationRow:
    rho_db: float
    theta: float
    n: int
    a_s: float
    quantity: str
    analytic: float
    estimate: float
    std_error: float

    @property
    def signed_z(self) -> float:
        diff = self.analytic - self.estimate
        if self.std_error == 0.0:  # no spread: only equality passes
            return math.copysign(math.inf, diff) if diff else 0.0
        return diff / self.std_error

    @property
    def z(self) -> float:
        return abs(self.signed_z)

    @property
    def passed(self) -> bool:
        return self.z <= 3.0


# Runs the Monte Carlo passes while the caller integrates the exact values;
# never montecarlo's drawing thread, where a pass would wait on its own draw.
_PASSES = montecarlo.WorkerThread("nomagsc-validate")


def _pair(n: int) -> UserPairSpec:
    return UserPairSpec(GscSpec(4, n, 1.0), GscSpec(4, n, 0.1))


def run_validation(plan: SimPlan, grid: dict | None = None) -> list[ValidationRow]:
    """Analytic value against Monte Carlo estimate for every grid point.

    Rows come in (rho_db, theta, n, a_s) order with the QUANTITIES of each
    point.  The channel law depends on n only: per n, one Monte Carlo pass
    and one ``exact_cases`` call evaluate every (rho_db, theta, a_s), so the
    points share their draws and each distinct exact term is integrated once.
    The passes run in n order on one worker thread (``_PASSES``) while
    this thread integrates each n's exact values: numpy draws without the
    GIL, and a pass reads only its own streams, so the rows equal those of
    one pass and one ``exact_cases`` call after another.  Errors are raised
    in that order too: per n, the pass's error, then a failed case's, then
    the exact values'.  The worker calls no function that perfbench traces,
    whose span stack belongs to one thread.
    """
    if grid is None:
        grid = DEFAULT_GRID
    points = list(itertools.product(grid["snr_db"], grid["theta"], grid["a_s"]))
    cases = [
        (PowerSplit(a_s), QosProfile(theta), SnrPoint.from_db(rho_db))
        for rho_db, theta, a_s in points
    ]
    values = {}
    started = threading.Event()

    def estimate(n):
        started.set()
        return montecarlo.estimate_cases(_pair(n), cases, plan)

    estimated = [_PASSES.submit(estimate, n) for n in grid["n"]]
    try:
        if estimated:
            # the exact values hold the GIL for most of their run: the first
            # pass gets it up to its first draw, which then runs beside them
            started.wait()
        for n, pass_ in zip(grid["n"], estimated):
            try:
                exact = capacity.exact_cases(_pair(n), cases)
            finally:  # the pass's errors come before the exact values'
                estimates = pass_.result()
                for est in estimates:
                    if isinstance(est, Exception):
                        raise est  # a numerical failure: the run has no table
            for (rho_db, theta, a_s), analytic, est in zip(points, exact, estimates):
                values[rho_db, theta, n, a_s] = analytic, est
    finally:
        # after an error: drop the passes not yet started, finish the one running
        for pass_ in estimated:
            pass_.cancel()
        wait(estimated)
    rows = []
    for point in itertools.product(grid["snr_db"], grid["theta"], grid["n"], grid["a_s"]):
        analytic, est = values[point]
        rows += [
            ValidationRow(*point, q, analytic[q], est[q].value, est[q].std_error)
            for q in capacity.QUANTITIES
        ]
    return rows


def z_summary(rows: list[ValidationRow]) -> str:
    """One line on the z distribution: max |z|, mean and standard deviation
    of the signed z, and the count with |z| > 2.

    All checks of one run share their channel draws, so Monte Carlo noise
    moves their z together, one user's most: the strong user's quantities
    read block 0 of each batch, the weak user's block 1 (and block 0 through
    min(g_s, g_w)).  Expect a mean that changes with the seed and a standard
    deviation below 1.  A bias shows as a mean that stays away from 0 across
    seeds.  A check with no spread and a mismatch has infinite z: the max,
    mean and standard deviation describe the finite z, and the line ends
    with the count of infinite ones.
    """
    z = [r.signed_z for r in rows]
    finite = [v for v in z if math.isfinite(v)]
    mean = sd = math.nan
    if finite:
        mean = math.fsum(finite) / len(finite)
        sd = math.sqrt(math.fsum((v - mean) ** 2 for v in finite) / max(len(finite) - 1, 1))
    line = (
        f"z: max |z|={max(map(abs, finite), default=math.nan):.2f} mean={mean:.3f} "
        f"sd={sd:.3f} |z|>2: {sum(abs(v) > 2 for v in z)}/{len(z)}"
    )
    infinite = len(z) - len(finite)
    return f"{line} |z|=inf: {infinite}" if infinite else line


def write_csv(rows: list[ValidationRow], path: str) -> None:
    write_table(path, CSV_COLUMNS, (
        [getattr(r, col) for col in CSV_COLUMNS[:-1]] + ["pass" if r.passed else "FAIL"]
        for r in rows
    ))
