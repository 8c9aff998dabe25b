"""Monte Carlo oracle for the analytic effective-capacity evaluators.

Samples Rayleigh branch powers, applies GSC selection/combining and the
NOMA power-domain SINR model, and turns per-sample functionals into
estimates with standard errors.  Batches draw from counter-based Philox
streams keyed by (seed, batch index), so results are reproducible no
matter how batches are scheduled; accumulators are merged in fixed batch
order for bit-identical repeats.

Stream contract: a batch's stream holds the strong user's branch powers
first and the weak user's after them; one user alone
(``estimate_ec_oma``, ``sample_gsc_power``) is read from the start of
the stream.  ``estimate_cases`` is the one pass that turns a pair's
draws into estimates: it draws each batch once and evaluates every
requested quantity of every (split, qos, snr) case on it.
``estimate_ec_strong``, ``estimate_ec_weak`` and ``estimate_ergodic``
are that pass with one case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .capacity import PowerSplit, QosProfile, SnrPoint
from .distributions import GscSpec, UserPairSpec


@dataclass(frozen=True)
class SimPlan:
    samples: int = 10**6
    seed: int = 0
    batch: int = 1 << 18

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")


@dataclass(frozen=True)
class Estimate:
    value: float
    std_error: float
    samples_used: int


def _batch_sizes(plan: SimPlan) -> Iterator[tuple[int, int]]:
    done = 0
    index = 0
    while done < plan.samples:
        size = min(plan.batch, plan.samples - done)
        yield index, size
        done += size
        index += 1


def _batches(plan: SimPlan) -> Iterator[tuple[int, np.random.Generator]]:
    """(size, stream) per batch, in batch order; batch ``index`` draws from
    its own ``Philox(seed, index)`` stream."""
    for index, size in _batch_sizes(plan):
        yield size, np.random.Generator(np.random.Philox(key=[plan.seed, index]))


def _combined(spec: GscSpec, unit: np.ndarray, size: int) -> np.ndarray:
    """Combined powers: sum of the n largest of N exponential branch powers.

    ``unit`` holds ``size * N`` standard exponentials in stream order;
    scaled by omega they are bit for bit the ``rng.exponential(spec.omega,
    (size, N))`` draw at that stream position.  ``unit`` is overwritten:
    scaling and selection work in place, so no batch-sized copy is made.
    """
    N, n = spec.antennas, spec.combined
    branches = unit.reshape(size, N)
    branches *= spec.omega
    if n == N:
        return branches.sum(axis=1)
    if n == 1:
        return branches.max(axis=1)
    # partial selection of the n largest per row; no full sort needed
    branches.partition(N - n, axis=1)
    return branches[:, N - n :].sum(axis=1)


def _draw_pair(
    rng: np.random.Generator,
    size: int,
    pair: UserPairSpec,
    weak_block: bool,
    weak_first: bool,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """(g_s, g_w, g_w_first) of one batch.

    g_s and g_w are the strong then the weak user's combined powers, drawn
    in that order.  Without ``weak_block``, g_w is None: the weak block is
    not combined, and not drawn unless g_w_first reads it.  With
    ``weak_first``, g_w_first is the weak spec read from the start of the
    stream instead, which is what an estimator of the weak user alone
    draws; it reuses the values already drawn.
    """
    strong, weak = pair.strong, pair.weak
    head = size * weak.antennas
    first = rng.standard_exponential(size * strong.antennas)
    second = None
    gw_first = None
    if weak_first and head > first.size:
        second = rng.standard_exponential(head)
        gw_first = _combined(weak, np.concatenate((first, second[: head - first.size])), size)
    elif weak_first:
        gw_first = _combined(weak, first[:head].copy(), size)
    gs = _combined(strong, first, size)
    del first  # free it before the second block is drawn
    if not weak_block:
        return gs, None, gw_first
    if second is None:
        second = rng.standard_exponential(head)
    return gs, _combined(weak, second, size), gw_first


def sample_gsc_power(spec: GscSpec, plan: SimPlan) -> Iterator[np.ndarray]:
    """Stream of combined-power sample batches (deterministic given seed);
    each batch reads ``spec`` from the start of its stream."""
    for size, rng in _batches(plan):
        yield _combined(spec, rng.standard_exponential(size * spec.antennas), size)


class _MeanAccumulator:
    """Streaming sum / sum-of-squares, merged in fixed order."""

    def __init__(self):
        self.s1 = 0.0
        self.s2 = 0.0
        self.count = 0

    def add(self, values: np.ndarray):
        self.s1 += float(values.sum())
        self.s2 += float(np.square(values).sum())
        self.count += values.size

    @property
    def mean(self) -> float:
        return self.s1 / self.count

    @property
    def se_mean(self) -> float:
        if self.count < 2:
            return math.inf
        var = max(self.s2 - self.s1 * self.s1 / self.count, 0.0) / (self.count - 1)
        return math.sqrt(var / self.count)


def _ec_estimate(acc: _MeanAccumulator, nu: float) -> Estimate:
    """-(1/nu)log2(mean), with the delta-method standard error."""
    value = -math.log2(acc.mean) / nu
    std_error = acc.se_mean / (nu * math.log(2) * acc.mean)
    return Estimate(value, std_error, acc.count)


def _oma_ec_term(g, qos: QosProfile, snr: SnrPoint):
    # full power over half the resources: half rate, so exponent -nu/2
    return (1.0 + snr.rho * g) ** (-qos.nu / 2.0)


def estimate_ec_strong(
    pair: UserPairSpec,
    split: PowerSplit,
    qos: QosProfile,
    snr: SnrPoint,
    plan: SimPlan,
) -> Estimate:
    """Monte Carlo EC of the strong user's symbol."""
    return estimate_cases(pair, [(split, qos, snr)], plan, ("ec_strong",))[0]["ec_strong"]


def estimate_ec_weak(
    pair: UserPairSpec,
    split: PowerSplit,
    qos: QosProfile,
    snr: SnrPoint,
    plan: SimPlan,
) -> Estimate:
    """Monte Carlo EC of the weak user's symbol (SINR through g_min)."""
    return estimate_cases(pair, [(split, qos, snr)], plan, ("ec_weak",))[0]["ec_weak"]


def estimate_ergodic(
    pair: UserPairSpec, split: PowerSplit, snr: SnrPoint, plan: SimPlan
) -> tuple[Estimate, Estimate]:
    """Monte Carlo average achievable rates (strong, weak)."""
    # the rates do not depend on theta
    (est,) = estimate_cases(
        pair, [(split, QosProfile(0.0), snr)], plan, ("ergodic_strong", "ergodic_weak")
    )
    return est["ergodic_strong"], est["ergodic_weak"]


def estimate_ec_oma(
    spec: GscSpec, qos: QosProfile, snr: SnrPoint, plan: SimPlan
) -> Estimate:
    """Monte Carlo EC of one OMA user (full power, half rate)."""
    acc = _MeanAccumulator()
    for g in sample_gsc_power(spec, plan):
        acc.add(_oma_ec_term(g, qos, snr))
    return _ec_estimate(acc, qos.nu)


# Quantities of the fused pass, in the order ``validate`` reports them.
QUANTITIES = (
    "ec_strong",
    "ec_weak",
    "ec_oma_strong",
    "ec_oma_weak",
    "ergodic_strong",
    "ergodic_weak",
)

Case = tuple[PowerSplit, QosProfile, SnrPoint]


def estimate_cases(
    pair: UserPairSpec,
    cases: list[Case],
    plan: SimPlan,
    quantities: tuple[str, ...] = QUANTITIES,
) -> list[dict[str, Estimate]]:
    """Monte Carlo ``quantities`` of ``pair`` for each (split, qos, snr)
    case, from one pass over the batches.

    The channel law does not depend on the case, so each batch is drawn
    and combined once and every case's functionals read it.  This is the
    only code that turns a pair's draws into estimates; ``ec_oma_*``
    equals ``estimate_ec_oma`` of that user's spec.  Returns one
    {quantity: Estimate} dict per case, in QUANTITIES order.
    """
    unknown = set(quantities) - set(QUANTITIES)
    if unknown:
        raise ValueError(f"unknown quantities {sorted(unknown)}; expected {QUANTITIES}")
    wanted = [q for q in QUANTITIES if q in quantities]
    # only the weak user's NOMA quantities read the weak block and g_min
    weak = "ec_weak" in wanted or "ergodic_weak" in wanted
    accs = [{q: _MeanAccumulator() for q in wanted} for _ in cases]
    for size, rng in _batches(plan):
        gs, gw, gw_first = _draw_pair(rng, size, pair, weak, "ec_oma_weak" in wanted)
        gmin = np.minimum(gs, gw) if weak else None
        for (split, qos, snr), acc in zip(cases, accs):
            a_s, rho = split.a_s, snr.rho
            # the strong user decodes after interference removal; the weak
            # user's SINR is limited by g_min
            sinr = split.a_w * rho * gmin / (a_s * rho * gmin + 1.0) if weak else None
            terms = {
                "ec_strong": lambda: (1.0 + a_s * rho * gs) ** -qos.nu,
                "ec_weak": lambda: (1.0 + sinr) ** -qos.nu,
                "ec_oma_strong": lambda: _oma_ec_term(gs, qos, snr),
                "ec_oma_weak": lambda: _oma_ec_term(gw_first, qos, snr),
                "ergodic_strong": lambda: np.log2(1.0 + a_s * rho * gs),
                "ergodic_weak": lambda: np.log2(1.0 + sinr),
            }
            for q, a in acc.items():
                a.add(terms[q]())
    return [
        {
            q: _ec_estimate(a, qos.nu)
            if q.startswith("ec_")
            else Estimate(a.mean, a.se_mean, a.count)
            for q, a in acc.items()
        }
        for (_, qos, _), acc in zip(cases, accs)
    ]
