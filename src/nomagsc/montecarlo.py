"""Monte Carlo oracle for the analytic effective-capacity evaluators.

Samples Rayleigh branch powers, applies GSC selection/combining and the
NOMA power-domain SINR model, and turns per-sample functionals into
estimates with standard errors.  A ``SimPlan`` is (samples, seed): batch
b holds ``BATCH`` samples (the last one fewer) drawn from the
counter-based stream ``Philox(key=[seed, b])``, so an estimate depends
only on the seed and the sample count.  Accumulators keep a running sum
for the mean and each batch's centred second moment for the standard
error, merged in fixed batch order for bit-identical repeats.

Stream contract: block 0 of a batch's stream holds the strong user's
branch powers and block 1 the weak user's; each user's quantities read
that user's block, and one user alone (``estimate_ec_oma``,
``sample_gsc_power``) reads its spec from the start of the stream.
``estimate_pairs`` is the one pass that turns draws into estimates: it
draws each batch once and evaluates every requested quantity of every
(split, qos, snr) case on it.  Pairs with the same antenna counts read
the same stream, so one pass serves them all and only the combine step
is per pair, as for a sweep's n values.  ``estimate_cases`` is that pass
for one pair, and ``estimate_ec_strong``, ``estimate_ec_weak`` and
``estimate_ergodic`` are it with one case.

The quantities, their SINRs and term keys are ``capacity``'s model
(``QUANTITIES``, ``sinr``, ``term_key``), the one ``capacity.exact_cases``
integrates.  Per batch the pass forms 1 + signal once per
(a_s, rho, signal) and adds the terms of every accumulator that reads it.

Block 1 is drawn on one drawing thread (``_DRAWS``, a ``WorkerThread``)
while the pass adds the terms that read block 0: numpy fills a stream
without holding the GIL, and the pass waits for the fill before it reads
the stream again, so the draws are the same bits in the same order.
Nothing on a worker thread may call a function that perfbench traces:
the tracer's span stack belongs to one thread.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import Future, ThreadPoolExecutor, wait
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
        if self.samples < 2:  # one sample has no standard error
            raise ValueError(f"samples must be >= 2, got {self.samples}")
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


# Rows per chunk: the combine's scratch is N + 1 columns of this many
# doubles (64 kB each), so for a few branches a chunk stays in cache.
_CHUNK_ROWS = 8192


def _combined(spec: GscSpec, unit: np.ndarray, size: int) -> np.ndarray:
    """Combined powers: sum of the n largest of N exponential branch powers.

    ``unit`` holds ``size * N`` standard exponentials in stream order;
    scaled by omega they are bit for bit the ``rng.exponential(spec.omega,
    (size, N))`` draw at that stream position.  ``unit`` is only read:
    each chunk of rows is scaled into N chunk-sized columns and combined
    there, one column at a time because numpy may buffer a whole
    transposed chunk.  A combined power is the maximum for n = 1, the sum
    left to right over the branches as drawn for n = N, and otherwise the
    sum of the n largest in ascending order, left to right.
    """
    N, n = spec.antennas, spec.combined
    branches = unit.reshape(size, N)
    out = np.empty(size)
    rows = min(size, _CHUNK_ROWS)
    scratch = np.empty((N, rows))
    spare = np.empty(rows)
    for lo in range(0, size, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, size)
        cols = list(scratch[:, : hi - lo])
        for col, drawn in zip(cols, branches[lo:hi].T):
            np.multiply(drawn, spec.omega, out=col)
        _combine_columns(cols, n, spare[: hi - lo], out[lo:hi])
    return out


def _combine_columns(cols: list[np.ndarray], n: int, spare: np.ndarray, out: np.ndarray):
    """Write to ``out`` the sum of the n largest of ``cols`` per element.

    Adds run left to right, over the columns as drawn for n = N and in
    ascending order otherwise.  ``cols`` and ``spare`` are overwritten.
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
    every EC term underflowed, so that the mean is 0, or when the value or
    its standard error is not finite, as after a term overflowed.
    """
    share = QUANTITIES[quantity][1]
    value, std_error = acc.mean, acc.se_mean
    if share is not None and qos.is_ergodic_limit:
        value, std_error = share * value, share * std_error
    elif share is not None:
        if value == 0.0:
            raise FloatingPointError("Monte Carlo EC mean out of range: 0.0 (every term underflowed)")
        value, std_error = -math.log2(value) / qos.nu, std_error / (qos.nu * math.log(2) * value)
    if not math.isfinite(value) or not math.isfinite(std_error):
        raise FloatingPointError(f"Monte Carlo {quantity} not finite: {value}, std error {std_error}")
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


@np.errstate(over="ignore", invalid="ignore")  # as _run_batch
def estimate_ec_oma(
    spec: GscSpec, qos: QosProfile, snr: SnrPoint, plan: SimPlan
) -> Estimate:
    """Monte Carlo EC of one OMA user (full power, half rate)."""
    acc = _MeanAccumulator()
    (a_s, rho, signal), exponent = term_key("ec_oma_strong", None, qos, snr)
    for g in sample_gsc_power(spec, plan):
        acc.add(_term(1.0 + sinr(signal, a_s, rho, g), exponent))
    return _finish("ec_oma_strong", qos, acc)


class _PairPass:
    """One pair's part of a pass: the accumulators of its cases.  Cases
    that agree on what a term reads share its accumulator, so each distinct
    term is evaluated once per batch."""

    def __init__(self, pair: UserPairSpec, cases: list[Case], wanted: list[str]):
        self.pair = pair
        self.cases = cases
        groups: dict[tuple, dict] = {}  # (a_s, rho, signal) -> {exponent: accumulator}
        self.case_accs = []
        for case in cases:
            accs = {}
            for q in wanted:
                group, exponent = term_key(q, *case)
                accs[q] = groups.setdefault(group, {}).setdefault(exponent, _MeanAccumulator())
            self.case_accs.append(accs)
        # in (a_s, rho) order, so that one weak SINR array is alive at a time
        self.groups = sorted(groups.items())

    def accumulate(self, powers: dict[str, np.ndarray]):
        """Add this batch's terms of every group whose signal is in
        ``powers``, the combined powers by signal."""
        for (a_s, rho, signal), accs in self.groups:
            if signal in powers:
                base = None  # free the last one first
                base = 1.0 + sinr(signal, a_s, rho, powers[signal])
                for exponent, acc in accs.items():
                    acc.add(_term(base, exponent))

    def results(self) -> list[dict[str, Estimate] | ArithmeticError]:
        results = []
        for (_, qos, _), accs in zip(self.cases, self.case_accs):
            try:
                results.append({q: _finish(q, qos, a) for q, a in accs.items()})
            except ArithmeticError as exc:
                results.append(exc.with_traceback(None))  # its frames hold this list
        return results


class WorkerThread:
    """One worker thread for the life of the process: a new thread per
    call faults in a new stack each time, and its malloc arena can raise
    the resident set by megabytes.  A forked child, which has no thread
    behind its parent's executor, starts its own."""

    def __init__(self, name: str):
        self.name = name
        self.start()
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self.start)

    def start(self):
        self.executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix=self.name)

    def submit(self, fn, /, *args, **kwargs) -> Future:
        return self.executor.submit(fn, *args, **kwargs)


# Draws block 1 of each batch (see the module docstring).  A pass must not
# run on this thread: it would wait on its own draw.
_DRAWS = WorkerThread("nomagsc-draw")


# An overflow leaves inf or NaN in its case's sums, and _finish fails that
# case alone; numpy's warning, an error under -W error, would fail the pass.
@np.errstate(over="ignore", invalid="ignore")
def _run_batch(passes: list[_PairPass], rng: np.random.Generator, size: int, weak: set[str]):
    """One batch of a pass over pairs with the same antenna counts.

    The stream is drawn once per block, in stream order, and every pair
    reads the same block: combining only reads it.  Block 0 (the strong
    user's N_s branch powers per sample) is combined for every pair into
    g_s.  Block 1 (the weak user's N_w) is drawn only if the pass reads a
    signal of it, the set ``weak``: its draw goes to the drawing thread,
    into block 0's array (a new one only if N_w > N_s), while this thread
    adds the terms that read g_s, and this thread waits for it even if a
    term fails.  Then each pair combines block 1 into g_w and writes
    min(g_s, g_w) over g_s, keeping g_w only for "oma_weak" terms; the
    block is freed, and the weak user's terms are added.
    """
    n_strong, n_weak = passes[0].pair.strong.antennas, passes[0].pair.weak.antennas
    first = rng.standard_exponential(size * n_strong)
    g_s = [_combined(p.pair.strong, first, size) for p in passes]
    if weak:
        # no pair reads block 0 any more
        second = first[: size * n_weak] if n_weak <= n_strong else np.empty(size * n_weak)
        drawn = _DRAWS.submit(rng.standard_exponential, out=second)
    del first  # freed here when block 1 has its own array
    try:
        for p, g in zip(passes, g_s):
            p.accumulate({"strong": g, "oma_strong": g})
    finally:
        if weak:
            wait([drawn])
    if weak:
        second = drawn.result()  # the same array; a failed draw raises here
        del drawn  # it holds block 1 too, which goes before the weak terms
        powers = []
        for p, g in zip(passes, g_s):
            g_w = _combined(p.pair.weak, second, size)
            # g_min = min(g_s, g_w), written over g_s: the terms that read g_s are added by now
            read = {"weak": np.minimum(g, g_w, out=g), "oma_weak": g_w}
            powers.append({signal: read[signal] for signal in weak})
            del g_w, read  # an unread g_w goes before the next pair's combine
        del second
        for p, got in zip(passes, powers):
            p.accumulate(got)


def estimate_pairs(
    work: list[tuple[UserPairSpec, list[Case]]],
    plan: SimPlan,
    quantities=tuple(QUANTITIES),
) -> list[list[dict[str, Estimate] | ArithmeticError]]:
    """Monte Carlo ``quantities`` of every (pair, cases) of ``work``, from
    one pass over the batches.

    The pairs must have the same antenna counts (N_s, N_w), as the pairs
    of one sweep do: its n changes only how many branches are combined.
    Batch b's stream then holds the same unit exponentials for every
    pair, so each block is drawn once per batch and combined once per
    pair.  Per pair, returns what ``estimate_cases`` returns for that pair
    alone, bit for bit.  A case whose estimate fails gets its
    ArithmeticError, which carries no traceback; any other exception
    fails the pass and raises.
    Nothing is drawn when no pair has a case or no quantity is asked.
    """
    wanted = requested(quantities)
    if len({(pair.strong.antennas, pair.weak.antennas) for pair, _ in work}) > 1:
        raise ValueError("the pairs of one pass must have the same antenna counts")
    passes = [_PairPass(pair, cases, wanted) for pair, cases in work]
    live = [p for p in passes if p.groups]
    if live:
        # the weak user's quantities read block 1: its NOMA ones through g_min
        weak = {QUANTITIES[q][0] for q in wanted} & {"weak", "oma_weak"}
        for size, rng in _batches(plan):
            _run_batch(live, rng, size, weak)
    return [p.results() for p in passes]


def estimate_cases(
    pair: UserPairSpec,
    cases: list[Case],
    plan: SimPlan,
    quantities=tuple(QUANTITIES),
) -> list[dict[str, Estimate] | ArithmeticError]:
    """Monte Carlo ``quantities`` of ``pair`` for each (split, qos, snr)
    case, from one pass over the batches (``estimate_pairs`` with one
    pair).

    The channel law does not depend on the case, so each batch is drawn
    and combined once and every case's terms read it.  ``ec_oma_strong``
    equals ``estimate_ec_oma`` of the strong spec.  Returns one
    {quantity: Estimate} dict per case, in QUANTITIES order; a case whose
    estimate fails (every EC term underflowed, or it is not finite) gets
    the ArithmeticError instead, and the other cases keep their estimates.
    Any other exception fails the pass and raises.
    """
    return estimate_pairs([(pair, cases)], plan, quantities)[0]
