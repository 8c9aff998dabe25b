import pytest

from nomagsc.capacity import QosProfile, SnrPoint
from nomagsc.distributions import GscSpec, UserPairSpec
from nomagsc.numerics import IntegrationError
from nomagsc.optimizer import SearchError, SearchSpec, optimize_power

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
            SearchSpec(objective="profit")

    def test_default_grid(self):
        grid = SearchSpec().grid()
        assert len(grid) == 24
        assert grid[0] == pytest.approx(0.01)
        assert grid[-1] == pytest.approx(0.24)

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
