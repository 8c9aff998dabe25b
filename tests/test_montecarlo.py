import itertools
import math
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from nomagsc.capacity import (
    PowerSplit,
    QosProfile,
    SnrPoint,
    ec_oma,
    ec_strong,
    ec_weak,
    ergodic_rate,
    ergodic_rate_oma,
)
from nomagsc import capacity, montecarlo, numerics, validate
from nomagsc.distributions import GscSpec, UserPairSpec
from nomagsc.montecarlo import (
    QUANTITIES,
    Estimate,
    SimPlan,
    estimate_cases,
    estimate_ec_oma,
    estimate_ec_strong,
    estimate_ec_weak,
    estimate_ergodic,
    estimate_pairs,
    sample_gsc_power,
)

PAIR_SC = UserPairSpec(GscSpec(4, 1, 1.0), GscSpec(4, 1, 0.1))
PAIR_MRC = UserPairSpec(GscSpec(4, 4, 1.0), GscSpec(4, 4, 0.1))
QOS = QosProfile(1.0)
SPLIT = PowerSplit(0.24)
SNR = SnrPoint.from_db(10)
PLAN = SimPlan(samples=10**6, seed=99)


def all_samples(spec, plan):
    return np.concatenate(list(sample_gsc_power(spec, plan)))


def peak_bytes(call) -> int:
    """Peak bytes that ``call()`` allocates, as tracemalloc counts them."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def row_wise(spec, unit, size):
    """Reference combining, one row per sample: the maximum for n = 1, the
    sum left to right over the branches as drawn for n = N, and otherwise
    the sum of the n largest in ascending order, left to right."""
    N, n = spec.antennas, spec.combined
    branches = unit.reshape(size, N) * spec.omega
    if n == 1:
        return branches.max(axis=1)
    if n < N:
        branches = np.sort(branches, axis=1)[:, N - n :]
    return np.cumsum(branches, axis=1)[:, -1]


class TestSampling:
    def test_plan_validation(self):
        for samples in (0, 1):  # one sample has no standard error
            with pytest.raises(ValueError, match="samples must be >= 2"):
                SimPlan(samples=samples)
        for seed in (-1, 2**64):  # one Philox key word
            with pytest.raises(ValueError):
                SimPlan(seed=seed)
        assert SimPlan(seed=2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize(
        "fields",
        [{"seed": 1.5}, {"seed": 2.0}, {"seed": False}, {"samples": 2.5},
         {"samples": 1e3}, {"samples": True}, {"seed": "1"}],
    )
    def test_plan_takes_integers_only(self, fields):
        # seed 1.5 would draw seed 1's stream, and samples 2.5 would fail
        # inside the batch loop
        with pytest.raises(ValueError, match=f"{next(iter(fields))} must be an int"):
            SimPlan(**fields)

    def test_exponential_mean(self):
        g = all_samples(GscSpec(1, 1, 1.0), PLAN)
        assert g.mean() == pytest.approx(1.0, abs=0.003)

    def test_full_combining_mean(self):
        g = all_samples(GscSpec(4, 4, 1.0), PLAN)
        assert g.mean() == pytest.approx(4.0, abs=0.006)

    def test_partial_selection_mean(self):
        g = all_samples(GscSpec(4, 2, 1.0), PLAN)
        se = g.std() / math.sqrt(g.size)
        assert g.mean() == pytest.approx(19 / 6, abs=3 * se)

    def test_batching_does_not_change_draws(self, monkeypatch):
        # batch b's rows depend on (seed, b) only: a longer plan repeats a
        # shorter one's batches before its own
        monkeypatch.setattr(montecarlo, "BATCH", 400)
        spec = GscSpec(4, 2, 1.0)
        short = all_samples(spec, SimPlan(samples=800, seed=5))
        long = all_samples(spec, SimPlan(samples=1000, seed=5))
        assert np.array_equal(long[:800], short)
        assert np.array_equal(long, all_samples(spec, SimPlan(samples=1000, seed=5)))


class TestCombining:
    @pytest.mark.parametrize("N", range(1, 17))
    def test_equals_row_wise(self, N):
        # every combined power equals the row-wise one bit for bit, across
        # chunk boundaries too, and the drawn block is left as it was:
        # every pair of a pass reads it
        rng = np.random.default_rng(N)
        for size in (1, montecarlo._CHUNK_ROWS + 1, 20_001):
            unit = rng.standard_exponential(size * N)
            drawn = unit.copy()
            for n in range(1, N + 1):
                for omega in (0.1, 1.0, 3.7):
                    spec = GscSpec(N, n, omega)
                    combined = montecarlo._combined(spec, unit, size)
                    assert np.array_equal(unit, drawn), (n, omega, size)
                    assert np.array_equal(combined, row_wise(spec, drawn, size)), (
                        n, omega, size,
                    )

    @pytest.mark.parametrize("N", range(8, 17))
    def test_close_to_numpy_row_sum(self, N):
        # from 8 terms on numpy sums a row pairwise, not left to right: the
        # two orders differ by rounding only
        size = 20_001
        unit = np.random.default_rng(N).standard_exponential(size * N)
        branches = unit.reshape(size, N)
        for n in range(2, N + 1):
            spec = GscSpec(N, n, 1.0)
            numpy_sum = np.sort(branches, axis=1)[:, N - n :].sum(axis=1)
            combined = montecarlo._combined(spec, unit, size)
            np.testing.assert_allclose(combined, numpy_sum, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("N", [4, 12, 16])
    def test_memory_stays_chunk_sized(self, N):
        # the output, N + 1 chunk-sized columns and a few small objects; one
        # more batch-sized column would add 800 kB
        spec, size = GscSpec(N, N // 2, 1.0), 100_000
        unit = np.random.default_rng(0).standard_exponential(size * spec.antennas)
        peak = peak_bytes(lambda: montecarlo._combined(spec, unit, size))
        chunk = (spec.antennas + 1) * montecarlo._CHUNK_ROWS * 8
        assert peak <= size * 8 + chunk + 16_384


class TestEcEstimates:
    def test_deterministic(self):
        a = estimate_ec_strong(PAIR_SC, SPLIT, QOS, SNR, PLAN)
        b = estimate_ec_strong(PAIR_SC, SPLIT, QOS, SNR, PLAN)
        assert a == b

    def test_strong_matches_analytic(self):
        pair = UserPairSpec(GscSpec(1, 1, 1.0), GscSpec(1, 1, 0.1))
        est = estimate_ec_strong(pair, SPLIT, QOS, SNR, PLAN)
        assert est.value == pytest.approx(
            ec_strong(pair, SPLIT, QOS, SNR), abs=3 * est.std_error
        )

    def test_strong_vanishing_power(self):
        est = estimate_ec_strong(PAIR_SC, PowerSplit(1e-12), QOS, SNR, PLAN)
        assert est.value < 1e-8

    def test_weak_matches_analytic(self):
        est = estimate_ec_weak(PAIR_SC, SPLIT, QOS, SNR, PLAN)
        assert est.value == pytest.approx(
            ec_weak(PAIR_SC, SPLIT, QOS, SNR), abs=3 * est.std_error
        )

    def test_weak_saturation(self):
        # finite-SNR bias of order 1/(rho*g) dominates the sampling error here
        est = estimate_ec_weak(PAIR_SC, PowerSplit(0.2), QOS, SnrPoint(1e6), PLAN)
        assert est.value == pytest.approx(math.log2(5), abs=1e-3)

    def test_oma_matches_analytic(self):
        spec = GscSpec(4, 2, 1.0)
        est = estimate_ec_oma(spec, QOS, SNR, PLAN)
        assert est.value == pytest.approx(ec_oma(spec, QOS, SNR), abs=3 * est.std_error)

    def test_oma_theta_to_zero_is_half_rate(self):
        spec = GscSpec(4, 4, 1.0)
        est = estimate_ec_oma(spec, QosProfile(1e-6), SNR, PLAN)
        assert est.value == pytest.approx(
            0.5 * ergodic_rate_oma(spec, SNR), abs=max(3 * est.std_error, 1e-3)
        )

    def test_underflowed_mean_is_a_numerical_error(self):
        # every term (1 + a_s rho g)^-nu underflows to 0.0, so -log2(mean)
        # has no value: a numerical failure (exit 2), not bad input
        for qos, snr in (
            (QosProfile(1e4), SnrPoint.from_db(40)),
            (QOS, SnrPoint.from_db(3000)),
        ):
            with pytest.raises(FloatingPointError, match="out of range: 0.0") as info:
                estimate_ec_strong(PAIR_MRC, SPLIT, qos, snr, SimPlan(samples=1_000))
            assert isinstance(info.value, ArithmeticError)
            assert not isinstance(info.value, ValueError)

    def test_std_error_of_tiny_terms(self):
        (est,) = estimate_cases(
            PAIR_MRC,
            [(SPLIT, QosProfile(50), SnrPoint.from_db(40))],
            SimPlan(samples=1_000, seed=0),
        )
        # a log-domain delta-method estimate from the same draws
        assert est["ec_strong"].std_error == pytest.approx(0.0200, rel=1e-3)

    def test_std_error_near_the_ergodic_cutoff(self):
        pair = UserPairSpec(GscSpec(4, 2, 1.0), GscSpec(4, 2, 0.1))
        near, limit = estimate_cases(
            pair,
            [(SPLIT, QosProfile(1e-9), SNR), (SPLIT, QosProfile(0.0), SNR)],
            SimPlan(samples=2_000, seed=0),
        )
        # as theta -> 0 the EC's delta-method error tends to the ergodic
        # rate's, from the same draws
        for user in ("ec_strong", "ec_weak"):
            assert near[user].std_error == pytest.approx(limit[user].std_error, rel=1e-3)


class TestErgodicEstimates:
    def test_near_zero_snr(self):
        es, ew = estimate_ergodic(PAIR_SC, SPLIT, SnrPoint(1e-9), PLAN)
        assert es.value < 1e-6 and ew.value < 1e-6

    def test_matches_quadrature(self):
        es, ew = estimate_ergodic(PAIR_MRC, SPLIT, SNR, PLAN)
        rep = ergodic_rate(PAIR_MRC, SPLIT, SNR)
        assert es.value == pytest.approx(rep.e_strong, abs=3 * es.std_error)
        assert ew.value == pytest.approx(rep.e_weak, abs=3 * ew.std_error)

    def test_strong_exceeds_weak(self):
        es, ew = estimate_ergodic(PAIR_MRC, SPLIT, SNR, PLAN)
        assert es.value > ew.value


class TestErrorScaling:
    def test_std_error_scales_inverse_sqrt(self):
        small = estimate_ec_strong(
            PAIR_MRC, SPLIT, QOS, SNR, SimPlan(samples=50_000, seed=1)
        )
        large = estimate_ec_strong(
            PAIR_MRC, SPLIT, QOS, SNR, SimPlan(samples=200_000, seed=2)
        )
        ratio = small.std_error / large.std_error
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_disjoint_seeds_are_independent(self):
        plan = lambda s: SimPlan(samples=2_000, seed=s)
        a = [
            estimate_ec_strong(PAIR_SC, SPLIT, QOS, SNR, plan(s)).value
            for s in range(100)
        ]
        b = [
            estimate_ec_strong(PAIR_SC, SPLIT, QOS, SNR, plan(s + 10_000)).value
            for s in range(100)
        ]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.3  # 100 trials: null sd ~ 0.1


class TestEstimateInvariants:
    def test_samples_used(self):
        est = estimate_ec_strong(PAIR_SC, SPLIT, QOS, SNR, SimPlan(samples=12_345))
        assert est.samples_used == 12_345

    def test_std_error_nonnegative(self):
        est = estimate_ec_weak(PAIR_SC, SPLIT, QOS, SNR, SimPlan(samples=1_000))
        assert est.std_error >= 0

    @pytest.mark.parametrize(
        "scales", [(1.0, 1.0, 1.0), (1e-200, 1e-190, 1e-200), (1.0, 1e-200), (1e-320, 1e-300)]
    )
    def test_std_error_merges_batches(self, scales):
        # merged batch by batch, the standard error is the sample one of all
        # the terms at once, also for batches whose squares underflow
        rng = np.random.default_rng(0)
        batches = [scale * rng.standard_exponential(1000) for scale in scales]
        acc = montecarlo._MeanAccumulator()
        for batch in batches:
            acc.add(batch.copy())
        unit = 1.0 / max(scales)
        scaled = np.concatenate(batches) * unit
        expected = scaled.std(ddof=1) / math.sqrt(scaled.size)
        assert acc.se_mean * unit == pytest.approx(expected, rel=1e-12)


class TestSharedDraw:
    """estimate_cases is the one pass over a pair's draws.  Its estimates
    must match the pair stream drawn with numpy directly, and many cases in
    one pass must equal one case at a time (and the strong user's OMA loop)
    exactly, not approximately."""

    PAIRS = [
        UserPairSpec(GscSpec(4, 2, 1.0), GscSpec(4, 2, 0.1)),
        UserPairSpec(GscSpec(3, 2, 1.0), GscSpec(5, 3, 0.1)),  # N_s < N_w
        UserPairSpec(GscSpec(6, 1, 1.0), GscSpec(2, 2, 0.1)),  # N_s > N_w
        UserPairSpec(GscSpec(4, 4, 1.0), GscSpec(3, 3, 0.1)),  # n = N
    ]
    CASES = [
        (PowerSplit(0.1), QosProfile(0.5), SnrPoint.from_db(0)),
        (PowerSplit(0.24), QosProfile(1.0), SnrPoint.from_db(20)),
        (PowerSplit(0.4), QosProfile(2.0), SnrPoint.from_db(40)),
    ]
    # (plan, batch size): one batch, and three with a short last one
    PLANS = [
        pytest.param(SimPlan(samples=20_000, seed=11), montecarlo.BATCH, id="plan0"),
        pytest.param(SimPlan(samples=10_001, seed=3), 4096, id="plan1"),
    ]

    @pytest.mark.parametrize("plan, batch", PLANS)
    @pytest.mark.parametrize("pair", PAIRS)
    def test_fused_equals_separate_estimators(self, pair, plan, batch, monkeypatch):
        monkeypatch.setattr(montecarlo, "BATCH", batch)
        fused = estimate_cases(pair, self.CASES, plan)
        assert len(fused) == len(self.CASES)
        for (split, qos, snr), est in zip(self.CASES, fused):
            erg_s, erg_w = estimate_ergodic(pair, split, snr, plan)
            separate = {
                "ec_strong": estimate_ec_strong(pair, split, qos, snr, plan),
                "ec_weak": estimate_ec_weak(pair, split, qos, snr, plan),
                "ec_oma_strong": estimate_ec_oma(pair.strong, qos, snr, plan),
                "ergodic_strong": erg_s,
                "ergodic_weak": erg_w,
            }
            assert list(est) == list(QUANTITIES)
            # the weak user's OMA estimate reads block 1, the weak user alone
            # the start of the stream
            assert {q: e for q, e in est.items() if q != "ec_oma_weak"} == separate
            assert est["ec_strong"].samples_used == plan.samples

    def test_pair_stream_matches_numpy(self, monkeypatch):
        # reference: batch b is a fresh Philox(seed, b) stream holding the
        # strong user's exponential block, then the weak user's; each user's
        # NOMA and OMA quantities read that user's block.  Each user sums
        # its n largest branches, found here by a full sort.
        pair = self.PAIRS[1]  # N_s < N_w
        monkeypatch.setattr(montecarlo, "BATCH", 4096)
        plan = SimPlan(samples=6_000, seed=5)  # 4096 + a short 1904

        def stream(index):
            return np.random.Generator(np.random.Philox(key=[plan.seed, index]))

        def combined(rng, spec, size):
            branches = rng.exponential(spec.omega, size=(size, spec.antennas))
            return np.sort(branches, axis=1)[:, -spec.combined :].sum(axis=1)

        gs, gw = [], []
        for index, size in enumerate((4096, 1904)):
            rng = stream(index)
            gs.append(combined(rng, pair.strong, size))
            gw.append(combined(rng, pair.weak, size))
        gs, gw = np.concatenate(gs), np.concatenate(gw)
        gmin = np.minimum(gs, gw)
        fused = estimate_cases(pair, self.CASES, plan)
        for (split, qos, snr), est in zip(self.CASES, fused):
            rho, nu = snr.rho, qos.nu
            sinr_s = split.a_s * rho * gs
            sinr_w = split.a_w * rho * gmin / (split.a_s * rho * gmin + 1.0)
            expected = {
                "ec_strong": -np.log2(np.mean((1 + sinr_s) ** -nu)) / nu,
                "ec_weak": -np.log2(np.mean((1 + sinr_w) ** -nu)) / nu,
                "ec_oma_strong": -np.log2(np.mean((1 + rho * gs) ** (-nu / 2))) / nu,
                "ec_oma_weak": -np.log2(np.mean((1 + rho * gw) ** (-nu / 2))) / nu,
                "ergodic_strong": np.mean(np.log2(1 + sinr_s)),
                "ergodic_weak": np.mean(np.log2(1 + sinr_w)),
            }
            assert list(est) == list(expected)
            for q, value in expected.items():
                assert est[q].value == pytest.approx(value, rel=1e-12), q
                assert est[q].samples_used == plan.samples

    def test_numpy_stream_identities(self):
        # The shared draw rests on two properties of numpy's Generator: an
        # exponential draw is omega times the standard one, element by
        # element, and consecutive draws equal one larger draw, split.
        def rng():
            return np.random.Generator(np.random.Philox(key=[7, 2]))

        stream = rng()
        first = stream.exponential(0.1, size=(1000, 3))
        second = stream.exponential(2.5, size=(1000, 5))
        unit = rng().standard_exponential(1000 * 8)
        assert np.array_equal(first, 0.1 * unit[:3000].reshape(1000, 3))
        assert np.array_equal(second, 2.5 * unit[3000:].reshape(1000, 5))

    def test_sampler_matches_direct_draw(self, monkeypatch):
        # reference: batch b is a fresh Philox(seed, b) exponential draw,
        # combined by partial selection
        monkeypatch.setattr(montecarlo, "BATCH", 4096)
        spec, plan = GscSpec(5, 3, 0.7), SimPlan(samples=10_001, seed=3)
        for index, batch in enumerate(sample_gsc_power(spec, plan)):
            rng = np.random.Generator(np.random.Philox(key=[plan.seed, index]))
            branches = rng.exponential(spec.omega, size=(batch.size, 5))
            expected = np.partition(branches, 2, axis=1)[:, 2:].sum(axis=1)
            assert np.array_equal(batch, expected)

    def test_strong_only_skips_the_weak_block(self, monkeypatch):
        # the weak block follows the strong one in each batch's stream, so
        # a strong-only estimate combines one block per batch
        combined = montecarlo._combined
        specs = []

        def counting(spec, unit, size):
            specs.append(spec)
            return combined(spec, unit, size)

        monkeypatch.setattr(montecarlo, "_combined", counting)
        monkeypatch.setattr(montecarlo, "BATCH", 4096)
        pair, plan = self.PAIRS[1], SimPlan(samples=10_001, seed=3)  # three batches
        estimate_ec_strong(pair, *self.CASES[1], plan)
        assert specs == [pair.strong] * 3

    def test_whole_grid_validation_equals_per_point(self, tmp_path, monkeypatch):
        grid = {"snr_db": (0.0, 30.0), "theta": (0.5, 1.0), "n": (2, 4), "a_s": (0.1, 0.24)}
        monkeypatch.setattr(montecarlo, "BATCH", 2048)
        plan = SimPlan(samples=5_000, seed=8)
        per_point = []
        for rho_db in grid["snr_db"]:
            for theta in grid["theta"]:
                for n in grid["n"]:
                    for a_s in grid["a_s"]:
                        point = {"snr_db": (rho_db,), "theta": (theta,), "n": (n,), "a_s": (a_s,)}
                        per_point += validate.run_validation(plan, point)
        whole, joined = tmp_path / "whole.csv", tmp_path / "joined.csv"
        validate.write_csv(validate.run_validation(plan, grid), str(whole))
        validate.write_csv(per_point, str(joined))
        assert whole.read_bytes() == joined.read_bytes()

    def test_validation_draws_each_n_and_batch_once(self, monkeypatch):
        keys = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            keys.append(tuple(kwargs["key"]))
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        validate.run_validation(SimPlan(samples=100_000, seed=0))
        # one batch of 1e5 samples per n = 1..4
        assert keys == [(0, 0)] * 4

    def test_validation_evaluates_each_functional_once(self, monkeypatch):
        # ec_* read (a_s, nu, rho), ec_oma_* (nu, rho) and ergodic_* (a_s,
        # rho): on DEFAULT_GRID, 20 + 20 + 10 + 10 + 10 + 10 = 80 distinct
        # functionals per (n, batch) instead of 6 for each of 20 cases
        calls = []
        add = montecarlo._MeanAccumulator.add

        def counting(acc, values):
            calls.append(values.size)
            add(acc, values)

        monkeypatch.setattr(montecarlo._MeanAccumulator, "add", counting)
        monkeypatch.setattr(montecarlo, "BATCH", 1_000)
        validate.run_validation(SimPlan(samples=3_000, seed=0))
        assert len(calls) == 80 * len(validate.DEFAULT_GRID["n"]) * 3

    def test_validation_integrates_each_exact_term_once(self, quadratures):
        # per n: 20 ec_strong and 20 ec_weak (a_s, theta, rho), 10 + 10 OMA
        # (theta, rho) and 10 + 10 ergodic (a_s, rho) terms
        rows = validate.run_validation(SimPlan(samples=1_000, seed=0))
        assert len(quadratures) == 80 * len(validate.DEFAULT_GRID["n"]) == 320
        assert len(rows) == 5 * 2 * 4 * 2 * len(montecarlo.QUANTITIES)

    def test_validation_evaluates_oma_once_per_point(self, quadratures):
        # OMA does not depend on a_s: one term per (rho, theta, n) and user,
        # 4 + 4 NOMA ECs, 2 + 2 OMA ECs and 4 + 4 rates
        grid = {"snr_db": (0.0, 30.0), "theta": (1.0,), "n": (2,), "a_s": (0.1, 0.24)}
        rows = validate.run_validation(SimPlan(samples=1_000, seed=0), grid)
        assert len(quadratures) == 20
        assert len(rows) == 4 * len(montecarlo.QUANTITIES)

    def test_validation_evaluates_ergodic_once_per_point(self, quadratures):
        # the rates do not depend on theta: one term per (rho, n, a_s) and
        # user, 8 + 8 NOMA ECs, 4 + 4 OMA ECs and 4 + 4 rates
        grid = {"snr_db": (0.0, 30.0), "theta": (0.5, 1.0), "n": (2,), "a_s": (0.1, 0.24)}
        rows = validate.run_validation(SimPlan(samples=1_000, seed=0), grid)
        assert len(quadratures) == 32
        assert len(rows) == 8 * len(montecarlo.QUANTITIES)

    def test_zero_spread_check_passes_only_on_equality(self):
        # at -400 dB every term is exactly 1 (an EC) or 0 (a rate), so every
        # standard error is 0: z is 0 on equality and inf otherwise
        grid = {"snr_db": (-400.0,), "theta": (1.0,), "n": (2,), "a_s": (0.24,)}
        rows = validate.run_validation(SimPlan(samples=1_000, seed=0), grid)
        assert {r.std_error for r in rows} == {0.0}
        for r in rows:
            assert (r.z, r.passed) == ((0.0, True) if r.analytic == r.estimate else (math.inf, False))
        assert [r.passed for r in rows if r.quantity in ("ec_strong", "ec_weak")] == [True, True]

    def test_z_summary_describes_the_finite_z(self):
        # on the -400 dB grid the OMA EC's rounding error (about 1e-15 on a
        # true 1e-41) against an exact Monte Carlo 0 gives z = inf; the
        # finite z, all 0 there, are summarized and the infinite counted
        grid = {"snr_db": (-400.0,), "theta": (1.0,), "n": (2,), "a_s": (0.24,)}
        rows = validate.run_validation(SimPlan(samples=1_000, seed=0), grid)
        infinite = sum(math.isinf(r.z) for r in rows)
        assert infinite
        assert validate.z_summary(rows) == (
            f"z: max |z|=0.00 mean=0.000 sd=0.000 |z|>2: {infinite}/6 |z|=inf: {infinite}"
        )
        # finite z of 1 and -3 beside one infinite z
        point = (0.0, 1.0, 2, 0.24, "ec_strong")
        mixed = [validate.ValidationRow(*point, a, 0.0, s) for a, s in ((1.0, 1.0), (-3.0, 1.0), (1.0, 0.0))]
        assert validate.z_summary(mixed) == "z: max |z|=3.00 mean=-1.000 sd=2.828 |z|>2: 2/3 |z|=inf: 1"

    @pytest.mark.parametrize(
        "pair",
        [
            UserPairSpec(GscSpec(4, 2, 1.0), GscSpec(4, 3, 0.1)),
            UserPairSpec(GscSpec(4, 2, 1.0), GscSpec(12, 7, 0.1)),  # weak row-wise
            UserPairSpec(GscSpec(12, 5, 1.0), GscSpec(12, 12, 0.1)),  # both row-wise
        ],
        ids=["4-4", "4-12", "12-12"],
    )
    def test_every_subset_equals_the_full_pass(self, pair, monkeypatch):
        # the subset decides whether the weak block is read and whether g_w
        # outlives its combine; neither may change any estimate
        cases = [
            (PowerSplit(a_s), QosProfile(theta), SnrPoint.from_db(rho_db))
            for a_s in (0.1, 0.24)
            for rho_db in (0, 30)
            for theta in (0.0, 0.5, 1.0)
        ]
        monkeypatch.setattr(montecarlo, "BATCH", 2048)
        plan = SimPlan(samples=3_000, seed=6)
        full = estimate_cases(pair, cases, plan)
        for k in range(1, len(QUANTITIES) + 1):
            for subset in itertools.combinations(QUANTITIES, k):
                got = estimate_cases(pair, cases, plan, subset[::-1])
                for est, ref in zip(got, full):
                    assert est == {q: ref[q] for q in subset}, subset


class TestOverlap:
    """A pass's block 1 is drawn on montecarlo's drawing thread while the
    terms that read g_s are added, and ``run_validation`` runs its passes
    on a thread of its own while it integrates the exact values; neither
    may change a value or the order in which errors are raised."""

    GRID = {"snr_db": (10.0,), "theta": (1.0,), "n": (1, 2), "a_s": (0.24,)}
    PLAN = SimPlan(samples=2_000, seed=0)

    def test_validation_equals_serial_passes_and_exact_values(self):
        plan, grid = SimPlan(samples=20_000, seed=1), validate.DEFAULT_GRID
        points = list(itertools.product(grid["snr_db"], grid["theta"], grid["a_s"]))
        cases = [
            (PowerSplit(a_s), QosProfile(theta), SnrPoint.from_db(rho_db))
            for rho_db, theta, a_s in points
        ]
        serial = {}
        for n in grid["n"]:
            pair = validate._pair(n)
            estimates, exact = estimate_cases(pair, cases, plan), capacity.exact_cases(pair, cases)
            for (rho_db, theta, a_s), est, analytic in zip(points, estimates, exact):
                serial[rho_db, theta, n, a_s] = est, analytic
        expected = [
            validate.ValidationRow(*point, q, analytic[q], est[q].value, est[q].std_error)
            for point in itertools.product(grid["snr_db"], grid["theta"], grid["n"], grid["a_s"])
            for est, analytic in [serial[point]]
            for q in QUANTITIES
        ]
        assert validate.run_validation(plan) == expected

    @pytest.fixture
    def failing(self, monkeypatch):
        """``failing(pass_n, case_n, exact_n)``: the Monte Carlo pass
        raises at ``pass_n``, its one case fails at ``case_n`` and the exact
        values raise at ``exact_n`` (None: never)."""
        estimate, exact = montecarlo.estimate_cases, capacity.exact_cases

        def setup(pass_n, case_n, exact_n):
            def estimate_cases(pair, cases, plan):
                n = pair.strong.combined
                if n == pass_n:
                    raise RuntimeError(f"pass failed at n={n}")
                if n == case_n:
                    return [FloatingPointError(f"case failed at n={n}")]
                return estimate(pair, cases, plan)

            def exact_cases(pair, cases):
                if pair.strong.combined == exact_n:
                    raise numerics.IntegrationError(f"exact failed at n={exact_n}")
                return exact(pair, cases)

            monkeypatch.setattr(montecarlo, "estimate_cases", estimate_cases)
            monkeypatch.setattr(capacity, "exact_cases", exact_cases)

        return setup

    @pytest.mark.parametrize(
        "pass_n, case_n, exact_n, error, message",
        [
            (2, None, 2, RuntimeError, "pass failed at n=2"),
            (None, 2, 2, FloatingPointError, "case failed at n=2"),
            (2, None, 1, numerics.IntegrationError, "exact failed at n=1"),
            (None, 2, 1, numerics.IntegrationError, "exact failed at n=1"),
            (1, None, 2, RuntimeError, "pass failed at n=1"),
        ],
        ids=["pass-and-exact", "case-and-exact", "exact-before-pass", "exact-before-case", "pass-first"],
    )
    def test_errors_keep_the_serial_order(self, failing, pass_n, case_n, exact_n, error, message):
        # per n: the pass's error, then a failed case's, then the exact
        # values', and an earlier n's error before a later n's
        failing(pass_n, case_n, exact_n)
        with pytest.raises(error, match=message):
            validate.run_validation(self.PLAN, self.GRID)

    def test_concurrent_callers_get_their_own_values(self):
        # more callers than cores share the drawing and validation threads;
        # with a short switch interval every result still equals the one
        # computed alone, as a draw read by the wrong pass would not
        grids = [{**self.GRID, "n": (n,), "snr_db": (rho_db,)} for n in (1, 2, 4) for rho_db in (0.0, 30.0)]
        pairs = TestSharedPairs.pairs(4, 4, (1, 2, 4))
        cases = TestSharedPairs.CASES[:4]
        alone = [validate.run_validation(self.PLAN, g) for g in grids]
        work = [(pair, cases) for pair in pairs]
        alone_pairs = estimate_pairs(work, self.PLAN)
        results, errors = {}, []

        def caller(index):
            try:
                for _ in range(3):
                    results.setdefault(index, []).append(
                        [validate.run_validation(self.PLAN, g) for g in grids]
                        if index % 2 else estimate_pairs(work, self.PLAN)
                    )
            except BaseException as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for index in range(6):
            expected = alone if index % 2 else alone_pairs
            assert results[index] == [expected] * 3, index

    def test_grid_without_n_has_no_rows(self):
        # no pass is submitted, so none is waited for
        assert validate.run_validation(self.PLAN, {**self.GRID, "n": ()}) == []

    def test_failed_strong_terms_leave_no_draw_running(self, monkeypatch, no_garbage):
        # the terms that read g_s fail while block 1 is drawn: the pass
        # waits for the draw, leaves no garbage, and the next pass works
        pair, case = PAIR_MRC, (SPLIT, QOS, SNR)
        expected = estimate_cases(pair, [case], self.PLAN)
        draws = montecarlo._DRAWS
        started = []

        class Slow:
            def submit(self, fn, **kwargs):
                def slow():
                    time.sleep(0.05)
                    return fn(**kwargs)

                started.append(draws.submit(slow))
                return started[-1]

        accumulate = montecarlo._PairPass.accumulate

        def failing(pass_, powers):
            if "strong" in powers:
                raise RuntimeError("terms failed")
            accumulate(pass_, powers)

        def failed_pass():
            try:
                estimate_cases(pair, [case], self.PLAN)
            except RuntimeError as exc:
                return str(exc)

        monkeypatch.setattr(montecarlo, "_DRAWS", Slow())
        monkeypatch.setattr(montecarlo._PairPass, "accumulate", failing)
        assert no_garbage(failed_pass) == "terms failed"
        assert len(started) == 1 and started[0].done()
        monkeypatch.setattr(montecarlo._PairPass, "accumulate", accumulate)
        assert estimate_cases(pair, [case], self.PLAN) == expected
        assert len(started) == 2

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_its_own_threads(self):
        # a child forked after a validation has no thread behind the
        # parent's executors; without its own its first pass would hang
        expected = validate.run_validation(self.PLAN, self.GRID)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # a fork beside threads
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if validate.run_validation(self.PLAN, self.GRID) == expected else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        if status[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's pass hung")
        assert os.waitstatus_to_exitcode(status[1]) == 0


def outcomes(results):
    """A pair's case results, estimates as they are and exceptions as
    (type, message): comparable with ==."""
    return [(type(r), str(r)) if isinstance(r, Exception) else r for r in results]


class TestSharedPairs:
    """estimate_pairs draws each batch once for pairs with the same antenna
    counts; every pair's estimates and failed cases equal those of one
    estimate_cases call per pair.  A failed case fails alone, and any other
    error fails the pass."""

    CASES = [
        (PowerSplit(a_s), QosProfile(theta), SnrPoint.from_db(rho_db))
        for a_s in (0.1, 0.24)
        for rho_db in (0, 30)
        for theta in (0.0, 0.5, 1.0)
    ]
    PLAN = SimPlan(samples=5_000, seed=8)  # three batches of 2048 at most

    @staticmethod
    def pairs(N_s, N_w, n_values):
        return [UserPairSpec(GscSpec(N_s, min(n, N_s), 1.0), GscSpec(N_w, min(n, N_w), 0.1))
                for n in n_values]

    def check(self, work, quantities=tuple(QUANTITIES)):
        shared = estimate_pairs(work, self.PLAN, quantities)
        separate = [estimate_cases(pair, cases, self.PLAN, quantities) for pair, cases in work]
        assert [outcomes(r) for r in shared] == [outcomes(r) for r in separate]
        return shared

    @pytest.fixture(autouse=True)
    def small_batches(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "BATCH", 2048)

    def test_sweep_quantities(self, stream_fills):
        work = [(pair, self.CASES) for pair in self.pairs(4, 4, (1, 2, 3, 4))]
        stream_fills.clear()
        shared = estimate_pairs(work, self.PLAN, ("ec_strong", "ec_weak"))
        # two blocks per batch, not two per batch and pair
        assert [count for _, count in stream_fills] == [4 * 2048, 4 * 2048] * 2 + [4 * 904] * 2
        assert all(isinstance(est, dict) for results in shared for est in results)
        self.check(work, ("ec_strong", "ec_weak"))

    @pytest.mark.parametrize("N", [12, 9])
    def test_pairs_of_eight_or_more_branches_read_one_block(self, N):
        # from 8 branches on too, every pair combines the one drawn block,
        # so the shared pass equals a pass per pair
        work = [(pair, self.CASES) for pair in self.pairs(N, N, (1, 3, 6, N))]
        self.check(work)

    def test_pass_holds_one_block(self, monkeypatch):
        # every pair combines the one drawn block: no copy of it is made
        N, size = 12, 1 << 16
        monkeypatch.setattr(montecarlo, "BATCH", size)
        work = [(pair, self.CASES[:1]) for pair in self.pairs(N, N, (1, 6, 12))]
        plan = SimPlan(samples=size, seed=8)  # one batch
        peak = peak_bytes(lambda: estimate_pairs(work, plan, ("ec_strong", "ec_weak")))
        block = size * N * 8
        # each pair's g_s, the weak power being combined, one chunk's scratch
        combined = (len(work) + 1) * size * 8
        scratch = (N + 1) * montecarlo._CHUNK_ROWS * 8
        assert peak <= block + combined + scratch + 262_144
        # the weak user's OMA terms keep each pair's g_w until they are added
        peak = peak_bytes(lambda: estimate_pairs(work, plan))
        assert peak <= block + combined + len(work) * size * 8 + scratch + 262_144

    @pytest.mark.parametrize("N_s, N_w", [(3, 5), (9, 12), (5, 3), (12, 9)])
    def test_unequal_antenna_counts(self, N_s, N_w):
        # block 1 starts after N_s branch powers per sample and holds N_w
        work = [(pair, self.CASES) for pair in self.pairs(N_s, N_w, (1, 2, max(N_s, N_w)))]
        self.check(work)
        self.check(work, ("ec_oma_weak",))
        self.check(work, ("ec_strong", "ec_oma_weak"))

    def test_underflow_fails_only_its_pair(self):
        # every EC term underflows at theta = 1e4, 40 dB, but not at theta = 1
        ok, underflow = ((SPLIT, QosProfile(theta), SnrPoint.from_db(40)) for theta in (1.0, 1e4))
        pairs = self.pairs(4, 4, (1, 2, 4))
        shared = self.check([(pairs[0], [ok]), (pairs[1], [underflow]), (pairs[2], [ok, underflow])])
        assert isinstance(shared[0][0], dict) and isinstance(shared[2][0], dict)
        assert isinstance(shared[1][0], FloatingPointError)
        assert isinstance(shared[2][1], FloatingPointError)

    @pytest.mark.parametrize("block", ["strong", "weak"])
    def test_combine_error_fails_the_pass(self, block, monkeypatch):
        combined = montecarlo._combined
        pairs = self.pairs(4, 4, (1, 2, 4))
        failing_spec = getattr(pairs[1], block)

        def failing(spec, unit, size):
            if spec == failing_spec:
                raise RuntimeError("combine failed")
            return combined(spec, unit, size)

        monkeypatch.setattr(montecarlo, "_combined", failing)
        with pytest.raises(RuntimeError, match="combine failed"):
            estimate_pairs([(pair, self.CASES) for pair in pairs], self.PLAN)

    def test_pairs_must_share_antenna_counts(self):
        work = [(pair, self.CASES) for pair in self.pairs(4, 4, (1,)) + self.pairs(4, 3, (1,))]
        with pytest.raises(ValueError, match="antenna counts"):
            estimate_pairs(work, self.PLAN)

    def test_nothing_asked_draws_nothing(self, stream_fills):
        pair = PAIR_SC
        assert estimate_cases(pair, [], self.PLAN) == []
        assert estimate_cases(pair, self.CASES[:2], self.PLAN, ()) == [{}, {}]
        assert estimate_pairs([(pair, []), (PAIR_MRC, [])], self.PLAN) == [[], []]
        assert stream_fills == []
        with pytest.raises(ValueError, match="unknown quantities"):
            estimate_cases(pair, [], self.PLAN, ("ec_nope",))

    def test_pair_without_cases_is_skipped(self, monkeypatch, stream_fills):
        specs = []
        combined = montecarlo._combined

        def counting(spec, unit, size):
            specs.append(spec)
            return combined(spec, unit, size)

        monkeypatch.setattr(montecarlo, "_combined", counting)
        shared = estimate_pairs([(PAIR_SC, []), (PAIR_MRC, self.CASES)], self.PLAN, ("ec_weak",))
        assert shared[0] == []
        assert specs == [PAIR_MRC.strong, PAIR_MRC.weak] * 3
        assert len(stream_fills) == 2 * 3


class TestWeakOmaBlock:
    """The weak user's OMA estimate reads block 1, the weak user's own
    block, as its NOMA estimates do; the strong user's estimates read
    block 0, the start of the stream, as one user alone does."""

    PAIRS = {
        (4, 4): UserPairSpec(GscSpec(4, 2, 1.0), GscSpec(4, 3, 0.1)),
        (4, 12): UserPairSpec(GscSpec(4, 2, 1.0), GscSpec(12, 7, 0.1)),
        (12, 4): UserPairSpec(GscSpec(12, 7, 1.0), GscSpec(4, 2, 0.1)),
        (12, 12): UserPairSpec(GscSpec(12, 5, 1.0), GscSpec(12, 12, 0.1)),
        (9, 8): UserPairSpec(GscSpec(9, 4, 1.0), GscSpec(8, 1, 0.1)),
    }
    # QUANTITIES values of each pair
    FROZEN = {
        (4, 4): (5.751862001432506, 1.9106173578068386, 3.9822413438580506,
                 2.47106410896387, 6.084281215104746, 1.9140266930975103),
        (4, 12): (5.751862001432506, 2.0121688859154068, 3.9822413438580506,
                  3.318767282192393, 6.084281215104746, 2.012287279732072),
        (12, 4): (7.8387157276849075, 1.8878839329754866, 4.970469017346638,
                  2.3613029694651453, 7.933411701272738, 1.8921108667726443),
        (12, 12): (7.614601301952471, 2.0187776495982157, 4.85924964744135,
                   3.414883075487675, 7.714288203487612, 2.018852476130716),
        (9, 8): (7.17603756059919, 1.877510756658865, 4.647484537070058,
                 2.3037163619748218, 7.309491355277867, 1.8803595482807778),
    }
    CASE = (PowerSplit(0.24), QosProfile(1.0), SnrPoint.from_db(20))
    PLAN = SimPlan(samples=5_000, seed=21)  # three batches of 2048 at most

    @pytest.mark.parametrize("sizes", list(PAIRS), ids=[f"{s}-{w}" for s, w in PAIRS])
    def test_estimates_unchanged(self, sizes, monkeypatch):
        monkeypatch.setattr(montecarlo, "BATCH", 2048)
        pair = self.PAIRS[sizes]
        (est,) = estimate_cases(pair, [self.CASE], self.PLAN)
        assert tuple(e.value for e in est.values()) == self.FROZEN[sizes]
        # neither of these passes draws block 1
        assert est["ec_strong"] == estimate_ec_strong(pair, *self.CASE, self.PLAN)
        assert est["ec_oma_strong"] == estimate_ec_oma(pair.strong, *self.CASE[1:], self.PLAN)


class TestCaseErrors:
    def test_failed_case_leaves_the_others(self):
        # every EC term underflows at theta = 1e4, 40 dB; theta = 1 does not
        plan = SimPlan(samples=1_000, seed=0)
        ok, underflow = (
            (SPLIT, QosProfile(theta), SnrPoint.from_db(40)) for theta in (1.0, 1e4)
        )
        first, second = estimate_cases(PAIR_MRC, [ok, underflow], plan)
        assert first == estimate_cases(PAIR_MRC, [ok], plan)[0]
        assert isinstance(second, FloatingPointError)
        assert str(second).startswith("Monte Carlo EC mean out of range: 0.0")

    def test_non_finite_estimate_is_a_numerical_error(self):
        # at 3080 dB and theta = 0 (the ergodic limit) log2(1 + SINR)
        # overflows to inf; the 10 dB case of the same pass keeps its estimate
        plan = SimPlan(samples=1_000, seed=0)
        overflow, finite = (
            (SPLIT, QosProfile(0.0), SnrPoint.from_db(rho_db)) for rho_db in (3080, 10)
        )
        failed, kept = estimate_cases(PAIR_MRC, [overflow, finite], plan)
        assert isinstance(failed, FloatingPointError)
        assert str(failed) == "Monte Carlo ec_strong not finite: inf, std error nan"
        assert kept == estimate_cases(PAIR_MRC, [finite], plan)[0]
        with pytest.raises(FloatingPointError, match="ec_oma_strong not finite: inf"):
            estimate_ec_oma(PAIR_MRC.strong, *overflow[1:], plan)

    def test_one_weak_sinr_alive_at_a_time(self):
        # ten distinct (a_s, rho): terms run in (a_s, rho) order, so the
        # peak is the one-case peak plus at most one batch-sized array
        plan = SimPlan(samples=100_000, seed=0)
        cases = [
            (PowerSplit(a_s), QOS, SnrPoint.from_db(rho_db))
            for a_s in (0.1, 0.24)
            for rho_db in (0, 10, 20, 30, 40)
        ]

        def peak(cases):
            quantities = ("ec_strong", "ec_weak", "ergodic_weak")
            return peak_bytes(lambda: estimate_cases(PAIR_SC, cases, plan, quantities))

        assert peak(cases) <= peak(cases[:1]) + plan.samples * 8


class TestErgodicLimit:
    """Below the delay-exponent cutoff the EC is its theta -> 0 limit, the
    average rate (halved for OMA), as on the analytic side."""

    PAIR = UserPairSpec(GscSpec(4, 2, 1.0), GscSpec(4, 2, 0.1))
    PLAN = SimPlan(samples=20_000, seed=21)  # three batches of 8192 at most

    @pytest.mark.parametrize("theta", [0.0, 1e-12])
    def test_ec_is_the_average_rate(self, theta, monkeypatch):
        monkeypatch.setattr(montecarlo, "BATCH", 8192)
        qos = QosProfile(theta)
        (est,) = estimate_cases(self.PAIR, [(SPLIT, qos, SNR)], self.PLAN)
        assert est["ec_strong"] == est["ergodic_strong"]
        assert est["ec_weak"] == est["ergodic_weak"]
        for user, q in ((self.PAIR.strong, "ec_oma_strong"), (self.PAIR.weak, "ec_oma_weak")):
            assert est[q].value == pytest.approx(
                ec_oma(user, qos, SNR), abs=3 * est[q].std_error
            )
        assert est["ec_oma_strong"] == estimate_ec_oma(self.PAIR.strong, qos, SNR, self.PLAN)

    def test_cutoff_keeps_the_ec_route(self, monkeypatch):
        # theta = 1e-9 is not in the limit: these are the values of the
        # -(1/nu) log2(mean) route
        monkeypatch.setattr(montecarlo, "BATCH", 2048)
        (est,) = estimate_cases(
            self.PAIR, [(SPLIT, QosProfile(1e-9), SNR)], SimPlan(samples=5_000, seed=21)
        )
        assert {q: e.value for q, e in est.items()} == {
            "ec_strong": 2.9644685639127437,
            "ec_weak": 1.1693277464261846,
            "ec_oma_strong": 2.4276534145763993,
            "ec_oma_weak": 0.9753817758234125,
            "ergodic_strong": 2.9644686209781073,
            "ergodic_weak": 1.169327669002138,
        }
