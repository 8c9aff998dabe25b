import math

import mp_oracle
import pytest

from nomagsc import capacity, distributions
from nomagsc.capacity import (
    EcReport,
    PowerSplit,
    QosProfile,
    SnrPoint,
    ValidityError,
    ec_high_snr,
    ec_low_snr,
    ec_oma,
    ec_strong,
    ec_weak,
    ergodic_rate,
    ergodic_rate_oma,
    evaluate_noma,
    evaluate_oma,
)
from nomagsc.distributions import GscSpec, UserPairSpec
from nomagsc.numerics import IntegrationError


def pair44(n):
    return UserPairSpec(GscSpec(4, n, 1.0), GscSpec(4, n, 0.1))


QOS1 = QosProfile(theta=1.0)  # T*B = 1 -> nu = 1/ln2
QOS05 = QosProfile(theta=0.5)
SPLIT = PowerSplit(0.24)
SNR10 = SnrPoint.from_db(10)
SNR20 = SnrPoint.from_db(20)
SNR40 = SnrPoint.from_db(40)


class TestDomainTypes:
    def test_nu_definition(self):
        assert QOS1.nu == pytest.approx(1 / math.log(2))
        assert QosProfile(0.5, 2e-5, 1e5).nu == pytest.approx(1 / math.log(2))

    def test_qos_validation(self):
        for bad in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                QosProfile(bad)
        with pytest.raises(ValueError):
            QosProfile(1.0, block_length=0.0)

    def test_power_split(self):
        assert PowerSplit(0.24).a_w == pytest.approx(0.76)
        for bad in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ValueError):
                PowerSplit(bad)

    def test_snr_conversion(self):
        assert SnrPoint.from_db(10).rho == pytest.approx(10.0)
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                SnrPoint(bad)
        # 1e4 dB overflows the dB-to-linear conversion
        for bad_db in (math.inf, -math.inf, math.nan, 1e4):
            with pytest.raises(ValueError):
                SnrPoint.from_db(bad_db)

    def test_report_sum(self):
        rep = EcReport(1.5, 0.5, method="exact")
        assert rep.e_sum == 2.0


class TestEcStrong:
    def test_vanishing_power(self):
        assert ec_strong(pair44(1), PowerSplit(1e-12), QOS1, SNR10) < 1e-10

    def test_theta_to_zero_matches_ergodic(self):
        pair = UserPairSpec(GscSpec(1, 1, 1.0), GscSpec(1, 1, 0.1))
        qos = QosProfile(1e-6)
        value = ec_strong(pair, PowerSplit(0.24), qos, SnrPoint(10.0))
        # 1e7-sample MC estimate of E[log2(1 + 2.4 g)]: 1.47758 +- 0.00028
        assert value == pytest.approx(1.47758, abs=1e-3)
        erg = ergodic_rate(pair, PowerSplit(0.24), SnrPoint(10.0)).e_strong
        assert value == pytest.approx(erg, abs=1e-4)

    def test_frozen_monte_carlo_value(self):
        # 1e7-sample estimate of -(1/nu)log2 E[(1+0.24*10*g)^-nu], MRC N=4
        value = ec_strong(pair44(4), SPLIT, QOS1, SNR10)
        assert value == pytest.approx(3.021576, abs=3 * 0.000261)

    def test_series_cross_path(self):
        # 30-digit mpmath quadrature over the series summed in mpmath
        for n in (1, 2, 3, 4):
            a = ec_strong(pair44(n), SPLIT, QOS1, SNR10)
            b = mp_oracle.ec_strong(pair44(n), SPLIT, QOS1, SNR10)
            assert b == pytest.approx(a, rel=1e-9)

    @pytest.mark.xfail(
        strict=True,
        reason="the inner expectation is 2.8e-11, so ABS_TOL = 1e-12 ends the "
        "quadrature after one subdivision: 12.1552485 against 12.1553688",
    )
    def test_matches_oracle_at_high_snr_and_theta(self):
        qos = QosProfile(2.0)
        a = ec_strong(pair44(4), SPLIT, qos, SNR40)
        b = mp_oracle.ec_strong(pair44(4), SPLIT, qos, SNR40)
        assert b == pytest.approx(a, rel=1e-9)


def ec_weak_by(law, monkeypatch, *args):
    """ec_weak with the minimum's law forced to ``law``."""
    with monkeypatch.context() as m:
        m.setattr(distributions, "min_law", lambda pair: law)
        return ec_weak(*args)


class TestEcWeak:
    def test_vanishing_power(self):
        # a_w -> 0 is a_s -> 1; closest admissible split still shows decay
        near_half = PowerSplit(0.499999999999)
        pair = pair44(1)
        full = ec_weak(pair, PowerSplit(0.25), QOS1, SNR10)
        assert ec_weak(pair, near_half, QOS1, SNR10) < full

    def test_high_snr_saturation(self):
        split = PowerSplit(0.2)
        limit = math.log2(5)
        value = ec_weak(pair44(1), split, QOS1, SnrPoint(1e6))
        assert value == pytest.approx(limit, rel=0.01)

    def test_sc_frozen_monte_carlo_value(self):
        value = ec_weak(pair44(1), SPLIT, QOS1, SNR10)
        assert value == pytest.approx(0.930428, abs=3 * 8.8e-5)

    def test_mrc_frozen_monte_carlo_value(self):
        value = ec_weak(pair44(4), SPLIT, QOS1, SNR20)
        assert value == pytest.approx(1.919332, abs=3 * 2.8e-5)

    def test_general_frozen_monte_carlo_value(self):
        value = ec_weak(pair44(2), SPLIT, QOS1, SnrPoint.from_db(15))
        assert value == pytest.approx(1.607868, abs=3 * 6.9e-5)

    def test_mrc_equals_sc_single_antenna(self, monkeypatch):
        pair = UserPairSpec(GscSpec(1, 1, 1.0), GscSpec(1, 1, 0.1))
        a = ec_weak_by("sc", monkeypatch, pair, SPLIT, QOS1, SNR10)
        b = ec_weak_by("mrc", monkeypatch, pair, SPLIT, QOS1, SNR10)
        assert b == pytest.approx(a, rel=1e-9)

    def test_general_reduces_to_sc_and_mrc(self, monkeypatch):
        a = ec_weak(pair44(1), SPLIT, QOS1, SNR10)
        b = ec_weak_by("general", monkeypatch, pair44(1), SPLIT, QOS1, SNR10)
        assert b == pytest.approx(a, rel=1e-8)
        a = ec_weak(pair44(4), SPLIT, QOS1, SNR10)
        b = ec_weak_by("general", monkeypatch, pair44(4), SPLIT, QOS1, SNR10)
        assert b == pytest.approx(a, rel=1e-8)

    def test_precondition_enforcement(self, monkeypatch):
        # the SC and MRC closed forms refuse a GSC pair even when forced
        with pytest.raises(ValueError):
            ec_weak_by("sc", monkeypatch, pair44(2), SPLIT, QOS1, SNR10)
        with pytest.raises(ValueError):
            ec_weak_by("mrc", monkeypatch, pair44(2), SPLIT, QOS1, SNR10)

    def test_sinr_saturation_bound(self):
        # the SINR never exceeds a_w/a_s, so neither does the weak EC's cap
        cap = math.log2(1 + SPLIT.a_w / SPLIT.a_s)
        for n in (1, 2, 4):
            for snr in (SNR10, SNR40, SnrPoint(1e6)):
                assert ec_weak(pair44(n), SPLIT, QOS1, snr) <= cap + 1e-9


class TestEcOma:
    def test_vanishing_snr(self):
        spec = GscSpec(4, 4, 1.0)
        assert ec_oma(spec, QOS1, SnrPoint(1e-12)) < 1e-10

    def test_theta_to_zero_half_rate(self):
        spec = GscSpec(4, 4, 1.0)
        value = ec_oma(spec, QosProfile(1e-6), SNR10)
        half = 0.5 * ergodic_rate_oma(spec, SNR10)
        assert value == pytest.approx(half, abs=1e-4)

    def test_frozen_monte_carlo_value(self):
        value = ec_oma(GscSpec(4, 4, 1.0), QOS1, SNR10)
        assert value == pytest.approx(2.517945, abs=3 * 0.000134)


class TestHighSnr:
    def test_weak_value(self):
        rep = ec_high_snr(pair44(2), PowerSplit(0.2), QOS05, SNR40)
        assert rep.e_weak == pytest.approx(math.log2(5), rel=1e-12)

    def test_validity_error(self):
        with pytest.raises(ValidityError, match="nu < 1"):
            ec_high_snr(pair44(2), SPLIT, QosProfile(1.2), SNR40)

    def test_two_percent_at_40db(self):
        for n in (1, 2, 3, 4):
            hi = ec_high_snr(pair44(n), SPLIT, QOS05, SNR40)
            ex = evaluate_noma(pair44(n), SPLIT, QOS05, SNR40)
            assert abs(hi.e_sum - ex.e_sum) / ex.e_sum <= 0.02


class TestLowSnr:
    def test_zero_at_zero_snr(self):
        rep = ec_low_snr(pair44(1), SPLIT, QOS05, SnrPoint(1e-300))
        assert rep.e_strong == pytest.approx(0.0, abs=1e-290)
        assert rep.e_weak == pytest.approx(0.0, abs=1e-290)

    def test_slope(self):
        from nomagsc.distributions import gsc_moments

        pair = pair44(2)
        rho = 1e-4
        slope = ec_strong(pair, SPLIT, QOS05, SnrPoint(rho)) / rho
        expected = math.log2(math.e) * SPLIT.a_s * gsc_moments(pair.strong)[0]
        assert slope == pytest.approx(expected, rel=0.01)

    def test_five_percent_below_minus_ten_db(self):
        for n in (1, 4):
            prev = None
            for db in (-10, -20, -30):
                snr = SnrPoint.from_db(db)
                lo = ec_low_snr(pair44(n), SPLIT, QOS05, snr)
                ex = evaluate_noma(pair44(n), SPLIT, QOS05, snr)
                rel = abs(lo.e_sum - ex.e_sum) / ex.e_sum
                assert rel <= 0.05
                if prev is not None:
                    assert rel < prev
                prev = rel


class TestErgodicBound:
    def test_vanishing_snr(self):
        rep = ergodic_rate(pair44(2), SPLIT, SnrPoint(1e-12))
        assert rep.e_sum < 1e-10

    def test_weak_saturation(self):
        rep = ergodic_rate(pair44(2), PowerSplit(0.2), SnrPoint(1e6))
        assert rep.e_weak == pytest.approx(math.log2(5), rel=0.01)

    def test_frozen_monte_carlo_values(self):
        rep = ergodic_rate(pair44(2), SPLIT, SNR20)
        assert rep.e_strong == pytest.approx(6.074665, abs=3 * 0.000245)
        assert rep.e_weak == pytest.approx(1.889074, abs=3 * 3.1e-5)

    def test_jensen_dominance(self):
        for n in (1, 2, 4):
            for theta in (0.5, 1.0, 2.0):
                qos = QosProfile(theta)
                rep = evaluate_noma(pair44(n), SPLIT, qos, SNR20)
                erg = ergodic_rate(pair44(n), SPLIT, SNR20)
                assert rep.e_strong <= erg.e_strong + 1e-9
                assert rep.e_weak <= erg.e_weak + 1e-9

    def test_delay_monotonicity(self):
        for n in (1, 2, 4):
            values = [
                evaluate_noma(pair44(n), SPLIT, QosProfile(theta), SNR20).e_sum
                for theta in (0.1, 0.5, 1.0, 2.0, 5.0)
            ]
            assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


class TestCombinedEvaluators:
    def test_method_routing(self):
        assert evaluate_noma(pair44(1), SPLIT, QOS1, SNR10).method == "sc_closed"
        assert evaluate_noma(pair44(4), SPLIT, QOS1, SNR10).method == "mrc_closed"
        assert (
            evaluate_noma(pair44(2), SPLIT, QOS1, SNR10).method
            == "general_quadrature"
        )

    def test_ergodic_limit_is_the_ergodic_report(self, monkeypatch):
        calls = []
        original = capacity.ergodic_rate

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(capacity, "ergodic_rate", counted)
        rep = evaluate_noma(pair44(1), SPLIT, QosProfile(1e-12), SNR10)
        assert len(calls) == 1
        assert rep == original(pair44(1), SPLIT, SNR10)

    def test_underflow_is_integration_error(self):
        # every input is valid; the strong user's inner expectation
        # underflows to 0, which is a numerical failure, not bad input
        with pytest.raises(IntegrationError, match="out of range: 0.0") as info:
            evaluate_noma(pair44(4), SPLIT, QosProfile(1e4), SNR40)
        assert not isinstance(info.value, ValueError)

    def test_combining_monotonicity(self):
        sums = [evaluate_noma(pair44(n), SPLIT, QOS1, SNR20).e_sum for n in (1, 2, 3, 4)]
        increments = [b - a for a, b in zip(sums, sums[1:])]
        assert all(d > 0 for d in increments)
        assert all(b < a for a, b in zip(increments, increments[1:]))

    def test_oma_sum(self):
        rep = evaluate_oma(pair44(2), QOS1, SNR10)
        assert rep.e_sum == pytest.approx(
            ec_oma(GscSpec(4, 2, 1.0), QOS1, SNR10)
            + ec_oma(GscSpec(4, 2, 0.1), QOS1, SNR10)
        )
