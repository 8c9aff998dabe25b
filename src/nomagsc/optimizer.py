"""One-dimensional power-allocation search.

Scans a grid of strong-user power fractions and keeps the point that
maximizes the sum objective (sum EC, or sum ergodic rate for the
delay-unconstrained comparison).  Ties break toward the larger a_s: the
strong user carries most of the sum EC, so the boundary of the feasible
range is the expected optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import capacity
from .capacity import EcReport, PowerSplit, QosProfile, SnrPoint
from .distributions import UserPairSpec


@dataclass(frozen=True)
class SearchSpec:
    a_min: float = 0.01
    a_max: float = 0.24
    step: float = 0.01
    objective: str = "sum_ec"

    def __post_init__(self):
        if not 0 < self.a_min < self.a_max < 0.5:
            raise ValueError(
                f"need 0 < a_min < a_max < 0.5, got [{self.a_min}, {self.a_max}]"
            )
        if not self.step > 0:
            raise ValueError(f"step must be > 0, got {self.step}")
        if self.objective not in ("sum_ec", "sum_rate"):
            raise ValueError(f"unknown objective {self.objective!r}")

    def grid(self) -> list[float]:
        values = []
        k = 0
        while True:
            a = self.a_min + k * self.step
            if a > self.a_max + 1e-12:
                break
            values.append(min(a, self.a_max))
            k += 1
        return values


@dataclass(frozen=True)
class OptimizeResult:
    a_star: float
    report: EcReport
    grid: list[tuple[float, float]] = field(default_factory=list)  # (a_s, objective)


class SearchError(RuntimeError):
    """The sum objective could not be evaluated on the search grid."""


def optimize_power(
    pair: UserPairSpec,
    qos: QosProfile,
    snr: SnrPoint,
    search: SearchSpec = SearchSpec(),
) -> OptimizeResult:
    """Grid search over a_s maximizing the requested sum objective.

    Every split is evaluated analytically: ``evaluate_noma`` for sum EC,
    ``ergodic_rate`` for sum rate.  Raises SearchError, naming the split,
    when the objective fails.
    """
    best = None
    grid_values: list[tuple[float, float]] = []
    for a in search.grid():
        try:
            report = _analytic_report(pair, PowerSplit(a), qos, snr, search.objective)
        except Exception as exc:
            raise SearchError(f"objective evaluation failed at a_s={a}: {exc}") from exc
        objective = report.e_sum
        grid_values.append((a, objective))
        if best is None or objective >= best[1]:
            best = (a, objective, report)
    return OptimizeResult(best[0], best[2], grid_values)


def _analytic_report(pair, split, qos, snr, objective) -> EcReport:
    if objective == "sum_rate":
        return capacity.ergodic_rate(pair, split, snr)
    return capacity.evaluate_noma(pair, split, qos, snr)
