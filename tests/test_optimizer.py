import pytest

from nomagsc import capacity, distributions, numerics
from nomagsc.capacity import PowerSplit, QosProfile, SnrPoint
from nomagsc.distributions import GscSpec, UserPairSpec
from nomagsc.numerics import IntegrationError
from nomagsc.optimizer import MAX_SPLITS, SearchError, SearchSpec, optimize_power

PAIR = UserPairSpec(GscSpec(4, 4, 1.0), GscSpec(4, 4, 0.1))
QOS = QosProfile(1.0)
SNR = SnrPoint.from_db(20)


class TestSearchSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchSpec(a_min=0.0)
        with pytest.raises(ValueError):
            SearchSpec(a_min=0.3, a_max=0.2)
        with pytest.raises(ValueError):
            SearchSpec(a_max=0.6)
        with pytest.raises(ValueError):
            SearchSpec(step=0.0)
        with pytest.raises(ValueError):
            # 0.01 + k * 1e-300 == 0.01 for every k: a grid without end
            SearchSpec(step=1e-300)
        with pytest.raises(ValueError):
            SearchSpec(objective="profit")

    def test_default_grid(self):
        grid = SearchSpec().grid()
        assert len(grid) == 24
        assert grid[0] == pytest.approx(0.01)
        assert grid[-1] == pytest.approx(0.24)

    def test_split_limit(self):
        # 0.23 / (MAX_SPLITS - 1) spans [0.01, 0.24] in exactly MAX_SPLITS splits
        assert len(SearchSpec(step=0.23 / (MAX_SPLITS - 1)).grid()) == MAX_SPLITS
        with pytest.raises(ValueError):
            SearchSpec(step=0.23 / MAX_SPLITS)

    def test_single_point_grid(self):
        grid = SearchSpec(a_min=0.2, a_max=0.2000000001, step=0.05).grid()
        assert len(grid) == 1


class TestOptimizePower:
    def test_boundary_optimum(self):
        # with a heavily favoured strong user the sum objective grows in
        # a_s across the whole admissible range, so the search lands on
        # the upper bound
        res = optimize_power(PAIR, QOS, SNR)
        assert res.a_star == pytest.approx(0.24)
        objectives = [v for _, v in res.grid]
        assert all(b > a for a, b in zip(objectives, objectives[1:]))

    def test_argmax_consistency(self):
        res = optimize_power(PAIR, QOS, SNR, SearchSpec(a_min=0.05, a_max=0.45, step=0.05))
        best_a, best_v = max(res.grid, key=lambda t: (t[1], t[0]))
        assert res.a_star == best_a
        assert res.report.e_sum == pytest.approx(best_v)

    def test_single_point(self):
        res = optimize_power(PAIR, QOS, SNR, SearchSpec(a_min=0.2, a_max=0.2001, step=0.1))
        assert res.a_star == pytest.approx(0.2)
        assert len(res.grid) == 1

    def test_refinement_never_worse(self):
        coarse = optimize_power(PAIR, QOS, SNR, SearchSpec(step=0.04))
        fine = optimize_power(PAIR, QOS, SNR, SearchSpec(step=0.01))
        assert fine.report.e_sum >= coarse.report.e_sum - 1e-12

    def test_sum_rate_objective(self):
        res = optimize_power(PAIR, QOS, SNR, SearchSpec(objective="sum_rate"))
        assert res.report.method == "ergodic_bound"
        assert res.a_star == pytest.approx(0.24)

    def test_failure_names_grid_point(self):
        # at rho = 1e308 the strong user's inner EC expectation underflows
        # to 0 on the first split; the search fails there and keeps the cause
        bad = UserPairSpec(GscSpec(4, 2, 1.0), GscSpec(4, 2, 0.1))
        with pytest.raises(SearchError, match="a_s=0.01") as info:
            optimize_power(bad, QOS, SnrPoint(1e308), SearchSpec(step=0.5))
        assert isinstance(info.value.__cause__, IntegrationError)


def pair44(n):
    return UserPairSpec(GscSpec(4, n, 1.0), GscSpec(4, n, 0.1))


# N = 12 rounding noise makes every law's values its own: a value read
# for the wrong law or function would change the result
PAIR_12_6 = UserPairSpec(GscSpec(12, 6, 1.0), GscSpec(12, 6, 0.1))


def separate_search(pair, qos, snr, search):
    """(a*, report, grid) from one fresh evaluation per split."""
    best, grid = None, []
    for a in search.grid():
        if search.objective == "sum_rate":
            report = capacity.ergodic_rate(pair, PowerSplit(a), snr)
        else:
            report = capacity.evaluate_noma(pair, PowerSplit(a), qos, snr)
        grid.append((a, report.e_sum))
        if best is None or report.e_sum >= best[1].e_sum:
            best = (a, report)
    return best[0], best[1], grid


class TestReusedDensities:
    @pytest.mark.parametrize(
        "pair, qos, snr, search",
        [
            pytest.param(
                pair44(n), QosProfile(theta), SnrPoint.from_db(rho_db), SearchSpec(objective=objective),
                id=f"n{n}-{objective}",
            )
            for n in (1, 2, 3, 4)
            for theta, rho_db, objective in ((1.0, 20.0, "sum_ec"), (0.5, 0.0, "sum_rate"))
        ]
        + [
            # the (12, 6) laws integrate only on part of the range
            pytest.param(
                PAIR_12_6, QosProfile(0.25), SnrPoint.from_db(30), SearchSpec(0.2, 0.24, 0.04),
                id="12-6-sum_ec",
            ),
            pytest.param(
                PAIR_12_6, QosProfile(1.0), SnrPoint.from_db(10), SearchSpec(0.04, 0.24, 0.04, "sum_rate"),
                id="12-6-sum_rate",
            ),
        ],
    )
    def test_equals_separate_evaluations(self, pair, qos, snr, search):
        res = optimize_power(pair, qos, snr, search)
        assert (res.a_star, res.report, res.grid) == separate_search(pair, qos, snr, search)

    def test_store_ends_with_the_call(self, monkeypatch):
        computed = []
        density = distributions._density

        def counted(terms, x):
            computed.append(x)
            return density(terms, x)

        monkeypatch.setattr(distributions, "_density", counted)
        counts = []
        for _ in range(2):
            optimize_power(pair44(2), QOS, SNR, SearchSpec(step=0.05))
            assert numerics._DENSITIES.get() is None
            counts.append(len(computed))
            computed.clear()
        # nothing carries over: the second search computes every value again
        assert counts[0] == counts[1] > 0
        with pytest.raises(SearchError):
            optimize_power(pair44(2), QOS, SnrPoint(1e308), SearchSpec(step=0.5))
        assert numerics._DENSITIES.get() is None
