"""Monte Carlo oracle for the analytic effective-capacity evaluators.

Samples Rayleigh branch powers, applies GSC selection/combining and the
NOMA power-domain SINR model, and turns per-sample functionals into
estimates with standard errors.  A ``SimPlan`` is (samples, seed): batch
b holds ``BATCH`` samples (the last one fewer) drawn from the
counter-based stream ``Philox(key=[seed, b])``, so an estimate depends
only on the seed and the sample count.  Accumulators keep a running sum
for the mean and each batch's centred second moment for the standard
error, merged in fixed batch order for bit-identical repeats.

Stream contract: a batch's stream holds the strong user's branch powers
first and the weak user's after them; one user alone
(``estimate_ec_oma``, ``sample_gsc_power``) is read from the start of
the stream.  ``estimate_cases`` is the one pass that turns a pair's
draws into estimates: it draws each batch once and evaluates every
requested quantity of every (split, qos, snr) case on it.
``estimate_ec_strong``, ``estimate_ec_weak`` and ``estimate_ergodic``
are that pass with one case.

The quantities, their SINRs and term keys are ``capacity``'s model
(``QUANTITIES``, ``sinr``, ``term_key``), the one ``capacity.exact_cases``
integrates.  Per batch the pass forms 1 + signal once per
(a_s, rho, signal) and adds the terms of every accumulator that reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .capacity import QUANTITIES, Case, PowerSplit, QosProfile, SnrPoint, requested, sinr, term_key
from .distributions import GscSpec, UserPairSpec

BATCH = 1 << 18  # samples per batch; batch b draws from Philox(seed, b)


@dataclass(frozen=True)
class SimPlan:
    samples: int = 10**6
    seed: int = 0

    def __post_init__(self):
        for name in ("samples", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if not 0 <= self.seed < 2**64:  # one Philox key word
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class Estimate:
    value: float
    std_error: float
    samples_used: int


def _batches(plan: SimPlan) -> Iterator[tuple[int, np.random.Generator]]:
    """(size, stream) per batch, in batch order; batch ``index`` draws from
    its own ``Philox(seed, index)`` stream."""
    for index, done in enumerate(range(0, plan.samples, BATCH)):
        size = min(BATCH, plan.samples - done)
        yield size, np.random.Generator(np.random.Philox(key=[plan.seed, index]))


# Rows of fewer branches than this are combined column by column.  numpy
# sums fewer than 8 terms left to right and 8 or more pairwise, so only
# below 8 do column adds equal the row sum bit for bit.  That, not speed,
# sets the threshold: the column path stays faster up to N = 12 and loses
# only at N = 16, n >= 8.
_COLUMN_WISE_BELOW = 8
# Rows per column block: N < 8 columns of this many doubles stay in cache.
_CHUNK_ROWS = 8192


def _combined(spec: GscSpec, unit: np.ndarray, size: int) -> np.ndarray:
    """Combined powers: sum of the n largest of N exponential branch powers.

    ``unit`` holds ``size * N`` standard exponentials in stream order;
    scaled by omega they are bit for bit the ``rng.exponential(spec.omega,
    (size, N))`` draw at that stream position.  ``unit`` may be
    overwritten.  Every result equals the row-wise one bit for bit: the
    maximum for n = 1, the row sum for n = N, and otherwise the row sum of
    the n largest that ``np.partition`` leaves (in ascending order).
    """
    N, n = spec.antennas, spec.combined
    branches = unit.reshape(size, N)
    if N >= _COLUMN_WISE_BELOW:
        # in place: no batch-sized copy is made
        branches *= spec.omega
        if n == N:
            return branches.sum(axis=1)
        if n == 1:
            return branches.max(axis=1)
        branches.partition(N - n, axis=1)
        return branches[:, N - n :].sum(axis=1)
    # A row reduction over a few branches costs per row, not per element:
    # scale each chunk of rows into contiguous columns and combine those.
    # One column at a time, because numpy may buffer a whole transposed
    # chunk.
    out = np.empty(size)
    block = np.empty((N, min(size, _CHUNK_ROWS)))
    spare = np.empty(block.shape[1])
    for lo in range(0, size, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, size)
        cols = list(block[:, : hi - lo])
        for col, drawn in zip(cols, branches[lo:hi].T):
            np.multiply(drawn, spec.omega, out=col)
        _combine_columns(cols, n, spare[: hi - lo], out[lo:hi])
    return out


def _combine_columns(cols: list[np.ndarray], n: int, spare: np.ndarray, out: np.ndarray):
    """Write to ``out`` the sum of the n largest of ``cols`` per element.

    Adds run left to right, over the columns as drawn for n = N and in
    ascending order otherwise, as the row-wise sum does.  ``cols`` and
    ``spare`` are overwritten.
    """
    N = len(cols)
    if n == N:
        np.copyto(out, cols[0])
        for col in cols[1:]:
            out += col
        return
    # n - 1 bubble passes of compare-exchanges carry the n - 1 largest to
    # the top columns in ascending order; the n-th largest is the maximum
    # of the columns left below them
    for top in range(N - 1, N - n, -1):
        for i in range(top):
            np.minimum(cols[i], cols[i + 1], out=spare)
            np.maximum(cols[i], cols[i + 1], out=cols[i + 1])
            cols[i], spare = spare, cols[i]
    np.maximum(cols[0], cols[1], out=out)
    for col in cols[2 : N - n + 1]:
        np.maximum(out, col, out=out)
    for col in cols[N - n + 1 :]:
        out += col


def _draw_pair(
    rng: np.random.Generator,
    size: int,
    pair: UserPairSpec,
    weak_block: bool,
    weak_first: bool,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """(g_s, g_min, g_w_first) of one batch.

    g_s is the strong user's combined power and g_min its minimum with
    the weak user's (drawn next).  Without ``weak_block``, g_min is None:
    the weak block is not combined, and not drawn unless g_w_first reads
    it.  With ``weak_first``, g_w_first is the weak spec read from the
    start of the stream instead, as an estimator of the weak user alone
    draws it; it reuses the values already drawn.
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
        # only the row-wise combine writes to its input; the strong user
        # reads this block next
        in_place = weak.antennas >= _COLUMN_WISE_BELOW
        gw_first = _combined(weak, first[:head].copy() if in_place else first[:head], size)
    gs = _combined(strong, first, size)
    del first  # free it before the second block is drawn
    if not weak_block:
        return gs, None, gw_first
    if second is None:
        second = rng.standard_exponential(head)
    gw = _combined(weak, second, size)
    return gs, np.minimum(gs, gw, out=gw), gw_first


def sample_gsc_power(spec: GscSpec, plan: SimPlan) -> Iterator[np.ndarray]:
    """Stream of combined-power sample batches (deterministic given seed);
    each batch reads ``spec`` from the start of its stream."""
    for size, rng in _batches(plan):
        yield _combined(spec, rng.standard_exponential(size * spec.antennas), size)


# Terms are >= 0.  From a batch mean of this size up, every nonzero
# deviation is at least ~2**-453 and its square stays normal; below it,
# each deviation is under n times the mean and its square may underflow.
_TINY = 2.0**-400


class _MeanAccumulator:
    """Streaming mean and centred second moment, merged batch by batch in
    fixed order by Chan, Golub & LeVeque (1979).

    The mean is the running sum over the count.  The second moment about
    the mean is held as ``m2 * 4**scale``: a batch whose mean is below
    ``_TINY`` is squared in units of its largest deviation, so neither
    cancellation nor underflow can read a spread as 0.
    """

    def __init__(self):
        self.s1 = 0.0
        self.m2 = 0.0
        self.scale = 0
        self.count = 0

    def add(self, values: np.ndarray):
        """Merge one batch of terms; ``values`` is overwritten."""
        size = values.size
        total = float(values.sum())
        deviation = np.subtract(values, total / size, out=values)
        scale = 0
        if total / size < _TINY:
            scale = math.frexp(max(deviation.max(), -deviation.min()))[1]
            np.ldexp(deviation, -scale, out=deviation)
        m2 = float(np.square(deviation, out=deviation).sum())
        parts = [(self.m2, self.scale), (m2, scale)]
        if self.count:
            # the spread of the two means, (shift * 2**exp)**2 * n_a * n_b / n
            shift, exp = math.frexp(total / size - self.s1 / self.count)
            parts.append((shift * shift * self.count * size / (self.count + size), exp))
        parts = [(m, s) for m, s in parts if m != 0.0]
        self.scale = max((s for _, s in parts), default=0)
        self.m2 = math.fsum(math.ldexp(m, 2 * (s - self.scale)) for m, s in parts)
        self.s1 += total
        self.count += size

    @property
    def mean(self) -> float:
        return self.s1 / self.count

    @property
    def se_mean(self) -> float:
        if self.count < 2:
            return math.inf
        n = self.count
        return math.ldexp(math.sqrt(self.m2 / ((n - 1) * n)), self.scale)


def _term(base: np.ndarray, exponent: float | None) -> np.ndarray:
    """Per-sample term of a quantity: base^-exponent, or log2(base) for a
    rate (exponent None)."""
    return np.log2(base) if exponent is None else base**-exponent


def _finish(quantity: str, qos: QosProfile, acc: _MeanAccumulator) -> Estimate:
    """The mean for a rate; for an EC, -(1/nu)log2(mean) with the
    delta-method standard error, or in the ergodic limit the share times
    the mean (the average rate over the user's share of the resources).

    Raises FloatingPointError (a numerical failure, not bad input) when
    every EC term underflowed, so that the mean is 0.
    """
    share = QUANTITIES[quantity][1]
    if share is None:
        return Estimate(acc.mean, acc.se_mean, acc.count)
    if qos.is_ergodic_limit:
        return Estimate(share * acc.mean, share * acc.se_mean, acc.count)
    if acc.mean == 0.0:
        raise FloatingPointError("Monte Carlo EC mean out of range: 0.0 (every term underflowed)")
    value = -math.log2(acc.mean) / qos.nu
    std_error = acc.se_mean / (qos.nu * math.log(2) * acc.mean)
    return Estimate(value, std_error, acc.count)


def _one_case(pair: UserPairSpec, case: Case, plan: SimPlan, quantities) -> dict[str, Estimate]:
    (est,) = estimate_cases(pair, [case], plan, quantities)
    if isinstance(est, Exception):
        raise est
    return est


def estimate_ec_strong(
    pair: UserPairSpec,
    split: PowerSplit,
    qos: QosProfile,
    snr: SnrPoint,
    plan: SimPlan,
) -> Estimate:
    """Monte Carlo EC of the strong user's symbol."""
    return _one_case(pair, (split, qos, snr), plan, ("ec_strong",))["ec_strong"]


def estimate_ec_weak(
    pair: UserPairSpec,
    split: PowerSplit,
    qos: QosProfile,
    snr: SnrPoint,
    plan: SimPlan,
) -> Estimate:
    """Monte Carlo EC of the weak user's symbol (SINR through g_min)."""
    return _one_case(pair, (split, qos, snr), plan, ("ec_weak",))["ec_weak"]


def estimate_ergodic(
    pair: UserPairSpec, split: PowerSplit, snr: SnrPoint, plan: SimPlan
) -> tuple[Estimate, Estimate]:
    """Monte Carlo average achievable rates (strong, weak)."""
    # the rates do not depend on theta
    est = _one_case(pair, (split, QosProfile(0.0), snr), plan, ("ergodic_strong", "ergodic_weak"))
    return est["ergodic_strong"], est["ergodic_weak"]


def estimate_ec_oma(
    spec: GscSpec, qos: QosProfile, snr: SnrPoint, plan: SimPlan
) -> Estimate:
    """Monte Carlo EC of one OMA user (full power, half rate)."""
    acc = _MeanAccumulator()
    (a_s, rho, signal), exponent = term_key("ec_oma_strong", None, qos, snr)
    for g in sample_gsc_power(spec, plan):
        acc.add(_term(1.0 + sinr(signal, a_s, rho, g), exponent))
    return _finish("ec_oma_strong", qos, acc)


def estimate_cases(
    pair: UserPairSpec,
    cases: list[Case],
    plan: SimPlan,
    quantities=tuple(QUANTITIES),
) -> list[dict[str, Estimate] | ArithmeticError]:
    """Monte Carlo ``quantities`` of ``pair`` for each (split, qos, snr)
    case, from one pass over the batches.

    The channel law does not depend on the case, so each batch is drawn
    and combined once and every case's terms read it.  Cases that agree on
    what a term reads share its running sums, so each distinct term is
    evaluated once per batch.  This is the only code that turns a pair's
    draws into estimates; ``ec_oma_*`` equals ``estimate_ec_oma`` of that
    user's spec.  Returns one {quantity: Estimate} dict per case, in
    QUANTITIES order; a case whose estimate fails (every EC term
    underflowed) gets the ArithmeticError instead, and the other cases
    keep their estimates.
    """
    wanted = requested(quantities)
    # only the weak user's NOMA quantities read the weak block and g_min
    weak = "ec_weak" in wanted or "ergodic_weak" in wanted
    # (a_s, rho, signal) -> {exponent: accumulator}
    groups: dict[tuple, dict] = {}
    case_accs = []
    for case in cases:
        accs = {}
        for q in wanted:
            group, exponent = term_key(q, *case)
            accs[q] = groups.setdefault(group, {}).setdefault(exponent, _MeanAccumulator())
        case_accs.append(accs)
    # in (a_s, rho) order, so that one weak SINR array is alive at a time
    ordered = sorted(groups.items())
    for size, rng in _batches(plan):
        gs, gmin, gw_first = _draw_pair(rng, size, pair, weak, "ec_oma_weak" in wanted)
        powers = {"strong": gs, "weak": gmin, "oma_strong": gs, "oma_weak": gw_first}
        for (a_s, rho, signal), accs in ordered:
            base = None  # free the last one first
            base = 1.0 + sinr(signal, a_s, rho, powers[signal])
            for exponent, acc in accs.items():
                acc.add(_term(base, exponent))
    results = []
    for (_, qos, _), acc in zip(cases, case_accs):
        try:
            results.append({q: _finish(q, qos, a) for q, a in acc.items()})
        except ArithmeticError as exc:
            results.append(exc)
    return results
