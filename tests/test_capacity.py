import collections
import itertools
import math
import sys

import mpmath as mp
import numpy as np
import pytest

import mp_oracle
from nomagsc import capacity, distributions, montecarlo, numerics, validate
from nomagsc.capacity import (
    QUANTITIES,
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
    exact_cases,
)
from nomagsc.distributions import GscSpec, UserPairSpec
from nomagsc.numerics import IntegrationError, integrate_semi_infinite, reuse_densities


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
        for kwargs in ({"block_length": math.inf}, {"bandwidth": math.inf}, {"bandwidth": math.nan}):
            with pytest.raises(ValueError, match="finite"):
                QosProfile(1.0, **kwargs)
        # a finite theta, T and B whose product overflows
        with pytest.raises(ValueError, match="nu"):
            QosProfile(1e308, block_length=1.0)

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


def ec_weak_by(law, monkeypatch, *args):
    """ec_weak with the minimum's law forced to ``law``."""
    with monkeypatch.context() as m:
        m.setattr(distributions, "min_density", lambda pair: getattr(distributions, f"min_pdf_{law}"))
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

    @pytest.mark.parametrize("theta", [0.0, 1e-12])
    def test_ergodic_limit_is_invalid(self, theta):
        # at theta = 0 the form divides by nu = 0; below the ergodic cutoff
        # every EC is the ergodic rate
        with pytest.raises(ValidityError, match="theta >= 1e-09"):
            ec_high_snr(pair44(2), SPLIT, QosProfile(theta), SNR40)

    def test_two_percent_at_40db(self):
        for n in (1, 2, 3, 4):
            hi = ec_high_snr(pair44(n), SPLIT, QOS05, SNR40)
            ex = evaluate_noma(pair44(n), SPLIT, QOS05, SNR40)
            assert abs(hi.e_sum - ex.e_sum) / ex.e_sum <= 0.02

    @pytest.mark.parametrize("theta", [1e-9, 1e-8, 1e-6, 1e-4])
    def test_full_digits_above_the_ergodic_cutoff(self, theta):
        # ln E[g^-nu] is O(nu), and dividing a rounded ln E[g^-nu] by nu
        # lost up to 6.2e-8 at theta = 1e-9; 40 digits of E[g^-nu] leave
        # about 1e-31 after that division
        qos = QosProfile(theta)
        with mp.workdps(40):
            inner = mp_oracle.negative_moment(pair44(2).strong, qos.nu)
            ref = mp.log(SPLIT.a_s * SNR20.rho, 2) - mp.log(inner, 2) / qos.nu
        rep = ec_high_snr(pair44(2), SPLIT, qos, SNR20)
        assert rep.e_strong == pytest.approx(float(ref), rel=1e-12, abs=0)

    def test_strong_value_at_sixteen_antennas(self):
        # log2(a_s rho) - log2(E[g^-nu])/nu, E[g^-nu] from the 40-digit
        # Laplace route; the alternating series made E[g^-nu] negative here
        pair = UserPairSpec(GscSpec(16, 15, 1.0), GscSpec(16, 15, 0.1))
        snr = SnrPoint.from_db(30)
        with mp.workdps(40):
            inner = mp_oracle.negative_moment(pair.strong, QOS05.nu)
            ref = mp.log(SPLIT.a_s * snr.rho, 2) - mp.log(inner, 2) / QOS05.nu
        rep = ec_high_snr(pair, SPLIT, QOS05, snr)
        assert rep.e_strong == pytest.approx(float(ref), rel=1e-12)


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

    def test_overflow_is_validity_error(self):
        # nu = 1.44e308 is finite, but nu * E[g]^2 overflows and the
        # second-order term would be inf - inf
        with pytest.raises(ValidityError, match="not finite"):
            ec_low_snr(pair44(2), SPLIT, QosProfile(1e308), SnrPoint.from_db(-10))

    def test_huge_snr_is_validity_error(self):
        # rho = 1e160 is finite, but rho^2 overflows to inf
        with pytest.raises(ValidityError, match="not finite"):
            ec_low_snr(pair44(2), SPLIT, QOS05, SnrPoint.from_db(1600))

    @pytest.mark.parametrize("n", [1, 2, 4], ids=["sc", "general", "mrc"])
    def test_min_moments_compute_each_node_once(self, monkeypatch, n):
        # the two moments integrate over one law in one reuse_densities block
        pair, computed = pair44(n), collections.Counter()
        real = distributions.min_density(pair)

        def counted(law, x):
            computed.update(np.atleast_1d(x).tolist())
            return real(law, x)

        monkeypatch.setattr(distributions, real.__name__, counted)
        report = ec_low_snr(pair, SPLIT, QOS05, SnrPoint(0.1))
        assert computed and max(computed.values()) == 1
        monkeypatch.undo()
        assert ec_low_snr(pair, SPLIT, QOS05, SnrPoint(0.1)) == report

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


def _small_theta(cases):
    """(theta, user) params; a case with a measured miss is a strict xfail."""
    reason = "the EC's precision falls as nu does"
    marks = lambda miss: [pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"{reason}: {miss}")]
    return [pytest.param(theta, user, marks=marks(miss) if miss else []) for theta, user, miss in cases]


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

    # Just above the ergodic cutoff an EC divides the rounding of
    # E[(1 + SINR)^-nu], near 1, by nu: at theta = 1e-9 it is known to
    # about 1e-7, far more than its gap below the rate (Jensen's)
    @pytest.mark.parametrize("theta, user", _small_theta([
        (1e-9, "strong", "EC 2.9e-8 above the rate"),
        (1e-9, "weak", "EC 5.6e-8 above the rate"),
        (1e-8, "strong", None),
        (1e-8, "weak", "EC 6.5e-9 above the rate"),
    ]))
    def test_ec_below_the_rate_just_above_the_cutoff(self, theta, user):
        ec, rate = f"ec_{user}", f"ergodic_{user}"
        (values,) = exact_cases(pair44(2), [(SPLIT, QosProfile(theta), SNR10)], (ec, rate))
        assert values[ec] <= values[rate]

    @pytest.mark.parametrize("theta, user", _small_theta([
        (1e-9, "strong", "seed 0: EC 1.4e-7 above the rate"),
        (1e-9, "weak", "seed 1: EC 7.2e-9 above the rate"),
        (1e-8, "strong", "seed 1: EC 2.5e-9 above the rate"),
        (1e-8, "weak", "seed 0: EC 1.1e-8 above the rate"),
    ]))
    def test_monte_carlo_ec_below_its_rate_on_the_same_draws(self, theta, user):
        # Jensen's inequality holds over any sample, so for every seed
        ec, rate = f"ec_{user}", f"ergodic_{user}"
        for seed in range(10):
            plan = montecarlo.SimPlan(20_000, seed)
            (est,) = montecarlo.estimate_cases(pair44(2), [(SPLIT, QosProfile(theta), SNR10)], plan, (ec, rate))
            assert est[ec].value <= est[rate].value, seed


class TestCombinedEvaluators:
    def test_method_routing(self):
        # every law of the minimum is integrated the same way
        for n in (1, 2, 4):
            assert evaluate_noma(pair44(n), SPLIT, QOS1, SNR10).method == "exact"
        assert evaluate_noma(pair44(2), SPLIT, QosProfile(1e-12), SNR10).method == "ergodic_bound"

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


def report_values(report: EcReport) -> tuple:
    return report.e_strong, report.e_weak


def outcome(fn, *args):
    """fn(*args), or the type and message of the IntegrationError it raised."""
    try:
        return fn(*args)
    except IntegrationError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestExactCases:
    """exact_cases is the one exact model: every public evaluator is a view
    of it, and a case's values do not depend on what else is asked."""

    PAIRS = {
        "sc": pair44(1),
        "mrc": pair44(4),
        "general": pair44(2),
        "12-6": UserPairSpec(GscSpec(12, 6, 1.0), GscSpec(12, 6, 0.1)),
    }
    # theta 0 and 1e-12 are in the ergodic limit
    CASES = [
        (PowerSplit(a_s), QosProfile(theta), SnrPoint.from_db(rho_db))
        for theta in (0.0, 1e-12, 0.5, 2.0)
        for a_s in (0.1, 0.24)
        for rho_db in (0.0, 20.0, 40.0)
    ]
    # the quantities of each public evaluator and its values, as a tuple
    VIEWS = {
        ("ec_strong",): lambda pair, split, qos, snr: (ec_strong(pair, split, qos, snr),),
        ("ec_weak",): lambda pair, split, qos, snr: (ec_weak(pair, split, qos, snr),),
        ("ec_oma_strong",): lambda pair, split, qos, snr: (ec_oma(pair.strong, qos, snr),),
        ("ec_oma_weak",): lambda pair, split, qos, snr: (ec_oma(pair.weak, qos, snr),),
        ("ec_strong", "ec_weak"): lambda pair, split, qos, snr: report_values(
            evaluate_noma(pair, split, qos, snr)
        ),
        ("ec_oma_strong", "ec_oma_weak"): lambda pair, split, qos, snr: report_values(
            evaluate_oma(pair, qos, snr)
        ),
        ("ergodic_strong", "ergodic_weak"): lambda pair, split, qos, snr: report_values(
            ergodic_rate(pair, split, snr)
        ),
    }

    @pytest.mark.parametrize("pair", PAIRS.values(), ids=PAIRS.keys())
    def test_views_equal_the_model(self, pair):
        # (12, 6) misses the quadrature contract at some cases: exact_cases
        # raises the error of the first failing case, as its view does
        for quantities, view in self.VIEWS.items():
            want = []
            for case in self.CASES:
                want.append(outcome(view, pair, *case))
                if isinstance(want[-1], str):
                    want = want[-1]
                    break
            got = outcome(
                lambda: [tuple(v.values()) for v in exact_cases(pair, self.CASES, quantities)]
            )
            assert got == want, quantities

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_validate_grid_equals_per_case_calls(self, n):
        # one call shares density values across its cases; each value is
        # the one a call of its own case gives
        grid = validate.DEFAULT_GRID
        points = itertools.product(grid["snr_db"], grid["theta"], grid["a_s"])
        cases = [
            (PowerSplit(a_s), QosProfile(theta), SnrPoint.from_db(rho_db))
            for rho_db, theta, a_s in points
        ]
        pair = validate._pair(n)
        assert exact_cases(pair, cases) == [exact_cases(pair, [case])[0] for case in cases]

    @pytest.mark.parametrize("pair", [pair44(1), pair44(4), pair44(2)], ids=["sc", "mrc", "general"])
    def test_every_subset_equals_the_full_call(self, pair):
        # the ergodic-limit ECs share the rates' terms
        cases = [c for c in self.CASES if c[0].a_s == 0.24 and c[2].rho > 1.0]
        full = exact_cases(pair, cases)
        assert [list(v) for v in full] == [list(QUANTITIES)] * len(cases)
        for k in range(1, len(QUANTITIES) + 1):
            for subset in itertools.combinations(QUANTITIES, k):
                got = exact_cases(pair, cases, subset[::-1])
                assert [list(v.items()) for v in got] == [
                    [(q, v[q]) for q in subset] for v in full
                ], subset

    def test_unknown_quantity(self):
        with pytest.raises(ValueError, match="unknown quantities"):
            exact_cases(pair44(2), self.CASES[:1], ("ec_sum",))

    def test_ergodic_limit_integrates_its_own_half(self, quadratures):
        value = ec_strong(pair44(2), SPLIT, QosProfile(1e-12), SNR10)
        assert len(quadratures) == 1
        assert value == ergodic_rate(pair44(2), SPLIT, SNR10).e_strong


def python_calls(f, x) -> int:
    """The number of Python frames that f(x) runs."""
    events = []
    sys.setprofile(lambda frame, event, arg: events.append(event))
    try:
        f(x)
    finally:
        sys.setprofile(None)
    return events.count("call")


class TestIntegrands:
    """Each term is integrated through one function with the SINR's
    coefficients and the exponent bound in: it computes the floats of the
    term of ``sinr`` times the density, in one Python frame per node."""

    PAIRS = {
        f"{N}-{n}": UserPairSpec(GscSpec(N, n, 1.0), GscSpec(N, n, 0.1))
        for N, n in ((4, 1), (4, 2), (4, 4), (8, 3))
    }
    # theta 0 is the ergodic limit
    CASES = [
        (SPLIT, QosProfile(theta), SnrPoint.from_db(rho_db))
        for theta in (0.0, 0.5, 2.0)
        for rho_db in (10.0, 40.0)
    ]

    @staticmethod
    def direct(pair, quantity, case):
        """``quantity`` from the integral of its term of ``sinr`` times the
        density, each node calling both."""
        key = capacity.term_key(quantity, *case)
        (a_s, rho, signal), exponent = key
        density, law = capacity._law(pair, key)
        if exponent is None:
            term = lambda s: math.log2(1.0 + s)
        else:
            term = lambda s: (1.0 + s) ** -exponent
        result = integrate_semi_infinite(
            lambda x: term(capacity.sinr(signal, a_s, rho, x)) * density(law, x)
        )
        return capacity._finish(quantity, case[1], result)

    @pytest.mark.parametrize("pair", PAIRS.values(), ids=PAIRS.keys())
    def test_values_equal_the_direct_integral(self, pair):
        want = [{q: self.direct(pair, q, case) for q in QUANTITIES} for case in self.CASES]
        # outside a block: one exact_cases call per case and quantity
        for case, values in zip(self.CASES, want):
            for q, value in values.items():
                assert exact_cases(pair, [case], (q,))[0][q] == value, (case, q)
        # inside one: the cases share their terms' stored density values
        with reuse_densities():
            assert exact_cases(pair, self.CASES) == want
            assert exact_cases(pair, self.CASES[::-1]) == want[::-1]

    @pytest.mark.parametrize(
        "quantity", ["ec_strong", "ergodic_strong", "ec_weak", "ergodic_weak", "ec_oma_weak"]
    )
    def test_one_python_frame_at_a_stored_node(self, quadratures, quantity):
        # the four shapes: a power or log2 of the linear or the weak SINR
        pair, case = pair44(2), (SPLIT, QOS1, SNR10)
        key = capacity.term_key(quantity, *case)
        with reuse_densities():
            exact_cases(pair, [case], (quantity,))
            (integrand,) = quadratures
            x = next(iter(numerics._DENSITIES.get()[capacity._law(pair, key)]))
            assert python_calls(integrand, x) == 1

    @pytest.mark.parametrize("pair", [pair44(1), pair44(4), pair44(2)], ids=["sc", "mrc", "general"])
    def test_min_moments_run_one_python_frame_at_a_stored_node(self, quadratures, pair):
        with reuse_densities():
            distributions.min_moments(pair)
            x = next(iter(numerics._DENSITIES.get()[distributions.min_density(pair), pair]))
            assert len(quadratures) == 2
            assert [python_calls(integrand, x) for integrand in quadratures] == [1, 1]
