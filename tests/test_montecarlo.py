import math

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
from nomagsc import validate
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


class TestSampling:
    def test_plan_validation(self):
        with pytest.raises(ValueError):
            SimPlan(samples=0)
        with pytest.raises(ValueError):
            SimPlan(batch=0)

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

    def test_batching_does_not_change_draws(self):
        a = all_samples(GscSpec(4, 2, 1.0), SimPlan(samples=1000, seed=5, batch=1000))
        b = all_samples(GscSpec(4, 2, 1.0), SimPlan(samples=1000, seed=5, batch=1000))
        assert np.array_equal(a, b)


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


class TestSharedDraw:
    """estimate_cases is the one pass over a pair's draws.  Its estimates
    must match the pair stream drawn with numpy directly, and many cases in
    one pass must equal one case at a time (and the OMA loop) exactly, not
    approximately."""

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
    PLANS = [
        SimPlan(samples=20_000, seed=11),
        SimPlan(samples=10_001, seed=3, batch=4096),  # short last batch
    ]

    @pytest.mark.parametrize("plan", PLANS)
    @pytest.mark.parametrize("pair", PAIRS)
    def test_fused_equals_separate_estimators(self, pair, plan):
        fused = estimate_cases(pair, self.CASES, plan)
        assert len(fused) == len(self.CASES)
        for (split, qos, snr), est in zip(self.CASES, fused):
            erg_s, erg_w = estimate_ergodic(pair, split, snr, plan)
            separate = {
                "ec_strong": estimate_ec_strong(pair, split, qos, snr, plan),
                "ec_weak": estimate_ec_weak(pair, split, qos, snr, plan),
                "ec_oma_strong": estimate_ec_oma(pair.strong, qos, snr, plan),
                "ec_oma_weak": estimate_ec_oma(pair.weak, qos, snr, plan),
                "ergodic_strong": erg_s,
                "ergodic_weak": erg_w,
            }
            assert list(est) == list(QUANTITIES)
            assert est == separate
            assert est["ec_strong"].samples_used == plan.samples

    def test_pair_stream_matches_numpy(self):
        # reference: batch b is a fresh Philox(seed, b) stream holding the
        # strong user's exponential block, then the weak user's; the weak
        # user alone (OMA) reads its block from the start of the stream.
        # Each user sums its n largest branches, found here by a full sort.
        pair = self.PAIRS[1]  # N_s < N_w
        plan = SimPlan(samples=6_000, seed=5, batch=4096)  # 4096 + a short 1904

        def stream(index):
            return np.random.Generator(np.random.Philox(key=[plan.seed, index]))

        def combined(rng, spec, size):
            branches = rng.exponential(spec.omega, size=(size, spec.antennas))
            return np.sort(branches, axis=1)[:, -spec.combined :].sum(axis=1)

        gs, gw, gw_first = [], [], []
        for index, size in enumerate((4096, 1904)):
            rng = stream(index)
            gs.append(combined(rng, pair.strong, size))
            gw.append(combined(rng, pair.weak, size))
            gw_first.append(combined(stream(index), pair.weak, size))
        gs, gw, gw_first = (np.concatenate(g) for g in (gs, gw, gw_first))
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
                "ec_oma_weak": -np.log2(np.mean((1 + rho * gw_first) ** (-nu / 2))) / nu,
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

    def test_sampler_matches_direct_draw(self):
        # reference: batch b is a fresh Philox(seed, b) exponential draw,
        # combined by partial selection
        spec, plan = GscSpec(5, 3, 0.7), SimPlan(samples=10_001, seed=3, batch=4096)
        for index, batch in enumerate(sample_gsc_power(spec, plan)):
            rng = np.random.Generator(np.random.Philox(key=[plan.seed, index]))
            branches = rng.exponential(spec.omega, size=(batch.size, 5))
            expected = np.partition(branches, 2, axis=1)[:, 2:].sum(axis=1)
            assert np.array_equal(batch, expected)

    def test_whole_grid_validation_equals_per_point(self, tmp_path):
        grid = {"snr_db": (0.0, 30.0), "theta": (0.5, 1.0), "n": (2, 4), "a_s": (0.1, 0.24)}
        plan = SimPlan(samples=5_000, seed=8, batch=2048)
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
