import math
import sys
import types
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy import special

import mp_oracle
from nomagsc import distributions, numerics
from nomagsc.distributions import (
    MAX_ANTENNAS,
    GscSpec,
    UserPairSpec,
    gsc_cdf,
    gsc_mellin,
    gsc_moments,
    gsc_pdf,
    min_density,
    min_moments,
    min_pdf_general,
    min_pdf_mrc,
    min_pdf_sc,
)
from nomagsc.numerics import DomainError, integrate_semi_infinite


def pair44(n, omega_s=1.0, omega_w=0.1):
    return UserPairSpec(GscSpec(4, n, omega_s), GscSpec(4, n, omega_w))


PAIR_SC = pair44(1)
PAIR_MRC = pair44(4)
PAIR_GSC = pair44(2)


class TestSpecValidation:
    def test_combined_range(self):
        with pytest.raises(ValueError):
            GscSpec(2, 3, 1.0)
        with pytest.raises(ValueError):
            GscSpec(2, 0, 1.0)

    @pytest.mark.parametrize(
        "counts",
        [{"combined": 2.5}, {"antennas": 4.0}, {"combined": 2.0}, {"antennas": True},
         {"combined": True}, {"antennas": "4"}],
    )
    def test_spec_takes_integers_only(self, counts):
        # a float count would pass the range checks and fail later, inside
        # the densities, with an untyped TypeError
        fields = {"antennas": 4, "combined": 2, "omega": 1.0, **counts}
        with pytest.raises(ValueError, match=f"{next(iter(counts))} must be an int"):
            GscSpec(**fields)

    def test_antenna_cap(self):
        with pytest.raises(ValueError):
            GscSpec(17, 1, 1.0)

    def test_omega_ordering(self):
        with pytest.raises(ValueError):
            UserPairSpec(GscSpec(2, 1, 0.1), GscSpec(2, 1, 1.0))

    @pytest.mark.parametrize("omega", [math.inf, math.nan, 0.0, -1.0])
    def test_omega_finite_and_positive(self, omega):
        with pytest.raises(ValueError, match="finite"):
            GscSpec(4, 2, omega)


class TestGscPdf:
    def test_single_antenna_at_origin(self):
        assert gsc_pdf(GscSpec(1, 1, 1.0), 0.0) == pytest.approx(1.0)

    def test_max_of_two_exponentials(self):
        expected = 2 * math.exp(-1) * (1 - math.exp(-1))
        assert gsc_pdf(GscSpec(2, 1, 1.0), 1.0) == pytest.approx(expected, rel=1e-12)

    def test_frozen_monte_carlo_value(self):
        # finite difference of the empirical CDF of the 2-largest-of-4 sum,
        # 1e7 samples, window +-0.02
        assert gsc_pdf(GscSpec(4, 2, 1.0), 1.0) == pytest.approx(0.1284, abs=2e-3)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            gsc_pdf(GscSpec(2, 1, 1.0), -0.1)

    def test_selection_reduction(self):
        # n=1 must equal the max order statistic density
        spec = GscSpec(5, 1, 2.0)
        # rel tolerance where the value is O(1); abs floor covers the
        # small-x region where the alternating series is ill-conditioned
        for x in (0.05, 0.5, 2.0, 8.0):
            ref = 5 / 2.0 * math.exp(-x / 2) * (1 - math.exp(-x / 2)) ** 4
            assert gsc_pdf(spec, x) == pytest.approx(ref, rel=1e-10, abs=1e-13)

    def test_full_combining_reduction(self):
        # n=N must equal the gamma density
        spec = GscSpec(4, 4, 0.5)
        for x in (0.1, 1.0, 3.0):
            ref = x**3 * math.exp(-x / 0.5) / (math.gamma(4) * 0.5**4)
            assert gsc_pdf(spec, x) == pytest.approx(ref, rel=1e-10)

    def test_normalization_all_configs(self):
        # by Renyi, g = omega * sum_i c_i E_i, c_i = 1 for i <= n and n/i above
        for N in range(1, MAX_ANTENNAS + 1):
            for n in range(1, N + 1):
                c = [Fraction(1)] * n + [Fraction(n, i) for i in range(n + 1, N + 1)]
                for omega in (0.1, 1.0, 10.0):
                    spec = GscSpec(N, n, omega)
                    mass = numerics.expectation(lambda v: lambda x: v[x], gsc_pdf, spec).value
                    mean = numerics.expectation(lambda v: lambda x: x * v[x], gsc_pdf, spec).value
                    assert abs(mass - 1) <= 1e-12, (N, n, omega)
                    assert abs(mean / (omega * float(sum(c))) - 1) <= 1e-12, (N, n, omega)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            N = rng.integers(1, 7)
            n = rng.integers(1, N + 1)
            spec = GscSpec(int(N), int(n), float(rng.uniform(0.05, 10)))
            x = float(10 ** rng.uniform(-4, 1.5))
            assert gsc_pdf(spec, x) >= -1e-12


class TestGscCdf:
    def test_zero_at_origin(self):
        assert gsc_cdf(GscSpec(4, 2, 1.0), 0.0) == 0.0

    def test_exponential_median(self):
        assert gsc_cdf(GscSpec(1, 1, 1.0), math.log(2)) == pytest.approx(0.5, rel=1e-12)

    def test_frozen_monte_carlo_value(self):
        # empirical CDF at x=2 from 1e7 samples: 0.25804 +- 0.00014
        assert gsc_cdf(GscSpec(4, 2, 1.0), 2.0) == pytest.approx(0.25804, abs=4.2e-4)

    def test_matches_pdf_derivative(self):
        spec = GscSpec(5, 3, 0.7)
        h = 1e-6
        for x in (0.3, 1.0, 2.5):
            deriv = (gsc_cdf(spec, x + h) - gsc_cdf(spec, x - h)) / (2 * h)
            assert deriv == pytest.approx(gsc_pdf(spec, x), abs=1e-6)

    def test_monotone_and_limits(self):
        spec = GscSpec(6, 2, 1.0)
        grid = np.linspace(0, 30, 200)
        values = [gsc_cdf(spec, float(x)) for x in grid]
        assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-9)

    def test_stochastic_dominance_in_n(self):
        # combining one more path can only increase the power
        for N in (4, 6):
            for n in range(1, N):
                lo, hi = GscSpec(N, n, 1.0), GscSpec(N, n + 1, 1.0)
                for x in (0.1, 0.5, 1.0, 3.0, 8.0):
                    assert gsc_cdf(hi, x) <= gsc_cdf(lo, x) + 1e-12


def _per_term_density(terms, x):
    return math.fsum(a * x**m * math.exp(-lam * x) for a, m, lam in terms)


KERNEL_XS = (0.0, 1e-300, 1e-3, 0.7, 30.0, 700.0, 1e4)


def _series_terms(N, n):
    """Terms in the (N, n) law's order-statistics series."""
    return 1 + (N - n) * n


class TestKernelGroups:
    """The series' values are those of the term-by-term formulas, bit for
    bit, and ``gsc_pdf`` returns them for every law whose series is
    short.  Longer laws read the mixture, checked against the 40-digit
    series, and so does the distribution function."""

    def test_gsc_laws_equal_per_term_formulas(self):
        for N in range(1, 17):
            for n in range(1, N + 1):
                for omega in (0.1, 1.0, 3.7):
                    spec = GscSpec(N, n, omega)
                    table = distributions._gsc_terms(spec)
                    for x in KERNEL_XS:
                        pdf = math.comb(N, n) * _per_term_density(table[1], x)
                        assert distributions._density(table, x) == pdf, (spec, x)
                        if _series_terms(N, n) <= distributions._SERIES_TERMS_MAX:
                            assert gsc_pdf(spec, x) == pdf, (spec, x)

    def test_short_laws_are_zero_far_in_the_tail(self):
        # every kernel's exp(-lam * x) underflows there; x**m would overflow
        # (1e200) or make inf * 0 = nan (the largest float) if formed
        tail = (1e200, sys.float_info.max)
        for N in range(1, 17):
            for n in range(1, N + 1):
                if _series_terms(N, n) > distributions._SERIES_TERMS_MAX:
                    continue
                for omega in (0.1, 1.0, 3.7):
                    spec = GscSpec(N, n, omega)
                    for x in tail:
                        value = gsc_pdf(spec, x)
                        assert type(value) is float and value == 0.0, (spec, x)
                    assert np.array_equal(gsc_pdf(spec, np.array(tail)), [0.0, 0.0]), spec

    @pytest.mark.parametrize("N, omega, x", [(16, 1e20, 1e22), (4, 1e110, 1e111)])
    def test_overflowing_series_reads_the_mixture(self, N, omega, x):
        # omega**N overflows as the terms are formed, but the n = N law is
        # Gamma(N, omega), whose density there is finite and not 0
        spec = GscSpec(N, N, omega)
        log_gamma = (N - 1) * math.log(x) - x / omega - N * math.log(omega) - math.lgamma(N)
        value = gsc_pdf(spec, x)
        assert type(value) is float and value > 0.0
        assert math.log(value) == pytest.approx(log_gamma, rel=0, abs=1e-12)
        assert gsc_pdf(spec, np.array([x])).tolist() == [value]

    def test_short_series_covers_every_four_antenna_law(self):
        # the laws of the paper's figures keep the series' values
        short = {(N, n) for N in range(1, 17) for n in range(1, N + 1)
                 if _series_terms(N, n) <= distributions._SERIES_TERMS_MAX}
        assert short == {(N, n) for N in range(1, 5) for n in range(1, N + 1)} | {
            (N, N) for N in range(5, 17)} | {(5, 1), (5, 4)}

    def test_long_laws_match_40_digits(self):
        # positive terms, each a few ulps off; the mixture leaves out at
        # most _MIXTURE_TAIL of weight, the highest shapes, so the far tail
        # misses by up to 5e-9 relative but only 7e-19/omega absolutely;
        # at x = 0 and 1e-301 the oracle reads the series' leading term
        for N in range(5, 17):
            for n in range(1, N + 1):
                if _series_terms(N, n) <= distributions._SERIES_TERMS_MAX:
                    continue
                spec = GscSpec(N, n, (0.1, 1.0, 3.7)[(N + n) % 3])
                assert gsc_pdf(spec, 0.0) == 0.0
                for x in [0.0, 1e-301] + [u * spec.omega for u in (1e-3, 0.7, 3.0, 8.0, 30.0, 700.0)]:
                    ref = mp_oracle.density(spec, x)
                    bound = 1e-14 * ref + distributions._MIXTURE_TAIL / spec.omega
                    assert abs(gsc_pdf(spec, x) - ref) <= bound, (spec, x)

    def test_gsc_cdf_matches_40_digits(self):
        # a sum of positive terms, each a few ulps off, and the mixture
        # leaves out at most 1e-17 of weight
        for N in (2, 3, 4, 8, 12, 16):
            for n in range(1, N + 1):
                spec = GscSpec(N, n, (0.1, 1.0, 3.7)[n % 3])
                assert gsc_cdf(spec, 0.0) == 0.0
                for x in (u * spec.omega for u in (1e-3, 0.7, 30.0, 700.0)):
                    ref = mp_oracle.distribution(spec, x)
                    assert abs(gsc_cdf(spec, x) - ref) <= 1e-14 * ref + 1e-17, (spec, x)

    def test_one_evaluation_per_distinct_kernel(self, monkeypatch):
        # the distribution is one vectorized incomplete gamma over the
        # mixture, with no exp
        calls = {"exp": 0, "gammainc": 0}

        def counted(name, fn):
            def counting(*args):
                calls[name] += 1
                return fn(*args)

            return counting

        fake_math = types.SimpleNamespace(**vars(math))
        fake_math.exp = counted("exp", math.exp)
        monkeypatch.setattr(distributions, "math", fake_math)
        monkeypatch.setattr(
            distributions, "special", types.SimpleNamespace(gammainc=counted("gammainc", special.gammainc))
        )
        long = GscSpec(12, 6, 1.0)
        for x in (0.3, 2.0):
            calls.update(exp=0, gammainc=0)
            gsc_cdf(long, x)
            assert calls == {"exp": 0, "gammainc": 1}


class TestMixture:
    """One receiver's law as Moschopoulos' positive gamma mixture."""

    def test_weights_are_a_law_with_renyis_mean(self):
        # g = sum_k w_k Gamma(N + k, omega * n/N) has mean omega * sum c
        for N in range(2, MAX_ANTENNAS + 1):
            for n in range(2, N + 1):
                w = distributions._mixture(N, n).weights
                k = np.arange(len(w))
                c = [Fraction(1)] * n + [Fraction(n, i) for i in range(n + 1, N + 1)]
                assert (w > 0).all()
                assert abs(math.fsum(w) - 1) <= 1e-15, (N, n)
                mean = n / N * math.fsum(w * (N + k))
                assert mean == pytest.approx(float(sum(c)), rel=1e-14, abs=0), (N, n)

    def test_terms_past_the_underflow_are_negligible(self):
        # _receiver gives a node (0, 0) once exp(-y) underflows (y > 745);
        # there the largest Poisson term it would sum, j = N + K - 2, is tiny
        for N in range(2, MAX_ANTENNAS + 1):
            for n in range(2, N + 1):
                j = len(distributions._mixture(N, n).divisors) - 1
                assert -745 + j * math.log(745) - math.lgamma(j + 1) < math.log(1e-50), (N, n)
        f, s = distributions._receiver(16, 2, 1.0, np.array([750 / 8, 740 / 8]))
        assert (f[0], s[0]) == (0.0, 0.0) and f[1] > 0 and s[1] > 0


class TestDensityBlocks:
    """Each density block forms only what its caller reads, and a pair of
    receivers with the same (N, n) shares one array; every node's value
    stays the one its own receiver call gives (==)."""

    LAWS = [(N, n) for N in range(1, MAX_ANTENNAS + 1) for n in range(1, N + 1)]
    # unequal receivers: every n of 12 antennas against 9 antennas, and
    # equal antenna counts with different n
    UNEQUAL = [((12, ns), (9, nw)) for ns in range(1, 13) for nw in (1, 4, 9)] + [
        ((N, n), (N, N + 1 - n)) for N in (4, 8, 16) for n in range(1, N + 1) if 2 * n != N + 1
    ]

    @staticmethod
    def nodes(omega):
        """A 15-node quadrature block, x = 0, and nodes past the underflow
        of exp(-y) (y = x/scale > 745 for every law) as arrays, and the
        floats of the first block."""
        block = numerics._kronrod_block(3.0)
        blocks = [np.array(block), np.array([0.0]), np.array([0.0, 800.0 * omega, 2e4 * omega, 0.5])]
        return blocks, block[:4] + [0.0, 800.0 * omega]

    def test_gsc_pdf_is_the_receivers_density(self):
        for N, n in self.LAWS:
            spec = GscSpec(N, n, 0.37)
            blocks, floats = self.nodes(spec.omega)
            for xs in blocks:
                density, survival = distributions._receiver(N, n, spec.omega, xs, survival=False)
                assert survival is None
                assert density.tolist() == distributions._receiver(N, n, spec.omega, xs)[0].tolist()
                if _series_terms(N, n) > distributions._SERIES_TERMS_MAX:
                    assert gsc_pdf(spec, xs).tolist() == density.tolist(), (N, n)
            if _series_terms(N, n) > distributions._SERIES_TERMS_MAX:
                for x in floats:
                    assert gsc_pdf(spec, x) == distributions._receiver(N, n, spec.omega, np.array([x]))[0][0]

    @staticmethod
    def two_calls(pair, xs):
        s, w = pair.strong, pair.weak
        f_s, s_s = distributions._receiver(s.antennas, s.combined, s.omega, xs)
        f_w, s_w = distributions._receiver(w.antennas, w.combined, w.omega, xs)
        return f_s * s_w + f_w * s_s

    def test_min_pdfs_are_two_receiver_calls(self):
        pairs = [(law, law) for law in self.LAWS] + self.UNEQUAL
        for strong, weak in pairs:
            pair = UserPairSpec(GscSpec(*strong, 1.0), GscSpec(*weak, 0.1))
            blocks, floats = self.nodes(pair.strong.omega)
            for density in {min_density(pair), min_pdf_general}:
                for xs in blocks:
                    assert density(pair, xs).tolist() == self.two_calls(pair, xs).tolist(), pair
                for x in floats:
                    assert density(pair, x) == self.two_calls(pair, np.array([x]))[0], (pair, x)


class TestMinPdfs:
    def test_sc_rate_sum_at_origin(self):
        pair = UserPairSpec(GscSpec(1, 1, 1.0), GscSpec(1, 1, 0.1))
        assert min_pdf_sc(pair, 0.0) == pytest.approx(11.0, rel=1e-12)

    def test_sc_exponential_min_density(self):
        pair = UserPairSpec(GscSpec(1, 1, 1.0), GscSpec(1, 1, 0.1))
        assert min_pdf_sc(pair, 0.1) == pytest.approx(11 * math.exp(-1.1), rel=1e-12)

    def test_sc_law_matches_40_digits(self):
        # f_s * S_w + f_w * S_s against the oracle's closed best-of-N law,
        # whose survival is -expm1(N * log1p(-e)) (1 - (1 - e)**N loses it
        # in the tail).  The bound is a few ulps times the law's condition:
        # an argument rounded by half an ulp moves exp(-x/omega) by x/omega
        # half-ulps, and (1 - e)**(N-1) multiplies the error of 1 - e by N - 1.
        xs = [1e-3, 1e-2] + [k * 0.5 for k in range(121)]
        for ns in (1, 2, 4, 12, 16):
            for nw in (1, 2, 4, 12, 16):
                for omega_s, omega_w in ((1.0, 0.1), (3.7, 1.0)):
                    pair = UserPairSpec(GscSpec(ns, 1, omega_s), GscSpec(nw, 1, omega_w))
                    for x in (u * omega_s for u in xs):
                        with mp.workdps(40):
                            (f_s, s_s), (f_w, s_w) = (
                                mp_oracle.closed_law(spec, mp.mpf(x)) for spec in (pair.strong, pair.weak)
                            )
                            ref = f_s * s_w + f_w * s_s
                        tol = 3 * 2.0**-52 * (max(ns, nw) + x / omega_w)
                        assert abs(min_pdf_sc(pair, x) - ref) <= tol * ref, (pair, x)

    def test_mrc_law_matches_40_digits(self):
        # f_s * S_w + f_w * S_s against the oracle's closed gamma law.  The
        # Poisson terms are positive; exp(-x/omega) carries x/omega
        # half-ulps of its argument's rounding (up to 300 here).  Below
        # 1e-300 the float value underflows, so it is compared absolutely.
        sizes = tuple(range(1, 7)) + (12, 16)
        xs = (0.0, 1e-300, 1e-3, 0.01, 0.1, 0.7, 2.0, 5.0, 10.0, 30.0, 700.0, 1e4)
        for ns in sizes:
            for nw in sizes:
                for omega_s, omega_w in ((1.0, 0.1), (3.7, 1.0)):
                    pair = UserPairSpec(GscSpec(ns, ns, omega_s), GscSpec(nw, nw, omega_w))
                    for x in xs:
                        with mp.workdps(40):
                            (f_s, s_s), (f_w, s_w) = (
                                mp_oracle.closed_law(spec, mp.mpf(x)) for spec in (pair.strong, pair.weak)
                            )
                            ref = f_s * s_w + f_w * s_s
                        assert abs(min_pdf_mrc(pair, x) - ref) <= 1e-13 * ref + 1e-300, (pair, x)

    def test_sc_frozen_monte_carlo_value(self):
        # empirical density of min of two 4-branch maxima, 1e7 samples
        assert min_pdf_sc(PAIR_SC, 0.05) == pytest.approx(1.488, abs=0.02)

    def test_mrc_single_antenna_at_origin(self):
        pair = UserPairSpec(GscSpec(1, 1, 1.0), GscSpec(1, 1, 0.1))
        assert min_pdf_mrc(pair, 0.0) == pytest.approx(11.0, rel=1e-12)

    def test_mrc_min_of_two_unit_exponentials(self):
        pair = UserPairSpec(GscSpec(1, 1, 1.0), GscSpec(1, 1, 0.999999999))
        assert min_pdf_mrc(pair, 1.0) == pytest.approx(2 * math.exp(-2), rel=1e-6)

    def test_mrc_frozen_monte_carlo_value(self):
        # empirical density of min of two Gamma(4, .) sums, 1e7 samples
        assert min_pdf_mrc(PAIR_MRC, 0.2) == pytest.approx(1.804, abs=0.02)

    def test_general_frozen_monte_carlo_value(self):
        # empirical density of min of two GSC(4,2) sums, 1e7 samples
        assert min_pdf_general(PAIR_GSC, 0.1) == pytest.approx(1.287, abs=0.02)

    def test_general_reduces_to_sc(self):
        for x in (0.0, 0.05, 0.3, 1.0):
            assert min_pdf_general(PAIR_SC, x) == min_pdf_sc(PAIR_SC, x)

    def test_general_reduces_to_mrc(self):
        for x in (0.0, 0.05, 0.3, 1.0):
            assert min_pdf_general(PAIR_MRC, x) == min_pdf_mrc(PAIR_MRC, x)

    def test_precondition_enforcement(self):
        with pytest.raises(ValueError):
            min_pdf_sc(PAIR_MRC, 0.1)
        with pytest.raises(ValueError):
            min_pdf_mrc(PAIR_SC, 0.1)

    def test_min_density_follows_the_pairs_case(self, monkeypatch):
        # every pair of receivers with N <= 4 on both sides: selection on both
        # wins over full combining ((1, 1)/(1, 1) is both), and a mixed pair
        # such as (4, 1)/(4, 4) is general
        specs = [(N, n) for N in range(1, 5) for n in range(1, N + 1)]
        for Ns, ns in specs:
            for Nw, nw in specs:
                pair = UserPairSpec(GscSpec(Ns, ns, 1.0), GscSpec(Nw, nw, 0.1))
                if ns == nw == 1:
                    form = min_pdf_sc
                elif ns == Ns and nw == Nw:
                    form = min_pdf_mrc
                else:
                    form = min_pdf_general
                assert min_density(pair) is form, pair
        # read from the module when called, so a replacement installed there is returned
        def replacement(pair, x):
            return 0.0

        monkeypatch.setattr(distributions, "min_pdf_mrc", replacement)
        assert min_density(PAIR_MRC) is replacement

    def test_general_normalization(self):
        # the selection and full-combining pairs, and every pair of equal
        # receivers that only the general law covers
        general = [
            UserPairSpec(GscSpec(N, n, 1.0), GscSpec(N, n, 0.1))
            for N in range(3, MAX_ANTENNAS + 1)
            for n in range(2, N)
        ]
        for pair in [PAIR_SC, PAIR_MRC] + general:
            r = integrate_semi_infinite(lambda x: min_pdf_general(pair, x))
            assert r.value == pytest.approx(1.0, abs=1e-9), pair

    def test_general_law_matches_40_digits(self):
        # f_s * S_w + f_w * S_s against the oracle's series (closed
        # best-of-N law for n = 1), summed at the precision its
        # cancellation needs.  Every factor is a sum of positive terms a
        # few ulps off, and the mixture leaves out at most 1e-17 of weight.
        def law(spec, x):
            return (mp_oracle.closed_law if spec.combined == 1 else mp_oracle.series_law)(spec, x)

        sizes = ((4, 2), (4, 3), (12, 6), (12, 9), (16, 8))
        pairs = [UserPairSpec(GscSpec(N, n, 1.0), GscSpec(N, n, 0.1)) for N, n in sizes]
        pairs.append(UserPairSpec(GscSpec(4, 1, 1.0), GscSpec(12, 6, 0.1)))
        for pair in pairs:
            for x in (1e-3, 0.01, 0.05, 0.1, 0.3, 1.0, 2.0, 5.0, 10.0):
                with mp.workdps(40):
                    (f_s, s_s), (f_w, s_w) = (law(spec, mp.mpf(x)) for spec in (pair.strong, pair.weak))
                    ref = f_s * s_w + f_w * s_s
                value = min_pdf_general(pair, x)
                assert value >= 0.0
                assert abs(value - ref) <= 1e-14 * ref + 1e-17, (pair, x)


class TestArrayForm:
    """Each density takes a float or a 1-D array of nodes, and a node's
    value is the same (==) either way."""

    # x = 0, 1e-3..1e3, and past y = x/scale = 745, where exp(-y) underflows
    XS = [0.0] + np.logspace(-3, 3, 49).tolist() + [7.46e3, 1e4, 3e5]
    LAWS = [
        (N, n, omega)
        for N in (1, 2, 4, 8, 12, 16)
        for n in sorted({1, 2, N // 2, N - 1, N} & set(range(1, N + 1)))
        for omega in (0.1, 1.0)
    ]

    @staticmethod
    def assert_array_form(density, law, xs):
        block = density(law, np.array(xs))
        scalars = [density(law, x) for x in xs]
        assert isinstance(block, np.ndarray) and block.shape == (len(xs),)
        assert all(type(v) is float for v in scalars)
        assert block.tolist() == scalars, law

    def test_gsc_pdf(self):
        for N, n, omega in self.LAWS:
            self.assert_array_form(gsc_pdf, GscSpec(N, n, omega), self.XS)

    def test_min_pdfs(self):
        for N, n, omega in self.LAWS:
            if omega == 1.0:
                # the pair of (N, n) receivers with the weak one 10 times weaker
                pair = UserPairSpec(GscSpec(N, n, omega), GscSpec(N, n, 0.1 * omega))
            else:
                # a stronger (N, N) receiver against this one
                pair = UserPairSpec(GscSpec(N, N, 1.0), GscSpec(N, n, omega))
            self.assert_array_form(min_pdf_general, pair, self.XS)
            if pair.is_sc:
                self.assert_array_form(min_pdf_sc, pair, self.XS)
            if pair.is_mrc:
                self.assert_array_form(min_pdf_mrc, pair, self.XS)

    def test_a_kronrod_block(self):
        # the 15 nodes the store asks for at once
        xs = numerics._kronrod_block(3.0)
        for N, n in ((4, 1), (4, 2), (4, 4), (12, 6), (16, 15)):
            pair = UserPairSpec(GscSpec(N, n, 1.0), GscSpec(N, n, 0.1))
            self.assert_array_form(gsc_pdf, pair.strong, xs)
            self.assert_array_form(min_density(pair), pair, xs)

    def test_checks_hold_for_arrays(self):
        xs = np.array([0.1, 2.0, 30.0])
        with pytest.raises(ValueError, match="single-branch"):
            min_pdf_sc(PAIR_MRC, xs)
        with pytest.raises(ValueError, match="full combining"):
            min_pdf_mrc(PAIR_SC, xs)
        laws = [(gsc_pdf, PAIR_GSC.strong), (min_pdf_sc, PAIR_SC), (min_pdf_mrc, PAIR_MRC), (min_pdf_general, PAIR_GSC)]
        for density, law in laws:
            for i in range(len(xs)):
                bad = xs.copy()
                bad[i] = -1e-300
                with pytest.raises(DomainError):
                    density(law, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-300])
    def test_x_must_be_finite_and_non_negative(self, bad):
        # a float, and one bad node in a block of good ones
        laws = [(gsc_pdf, PAIR_GSC.strong), (gsc_pdf, PAIR_SC.strong), (min_pdf_sc, PAIR_SC),
                (min_pdf_mrc, PAIR_MRC), (min_pdf_general, PAIR_GSC)]
        for density, law in laws:
            for x in (bad, np.array([0.0, 1.0, bad, 2.0])):
                with pytest.raises(DomainError, match="finite x >= 0"):
                    density(law, x)
        for spec in (PAIR_SC.strong, PAIR_GSC.strong):
            with pytest.raises(DomainError, match="finite x >= 0"):
                gsc_cdf(spec, bad)


class TestMoments:
    def test_gamma_moments(self):
        assert gsc_moments(GscSpec(2, 2, 1.0)) == pytest.approx((2.0, 6.0), rel=1e-12)

    def test_partial_selection_mean(self):
        # order-statistics identity: mean = n + n*sum_{k=n+1..N} 1/k for omega=1
        mean, _ = gsc_moments(GscSpec(4, 2, 1.0))
        assert mean == pytest.approx(19 / 6, rel=1e-10)

    def test_scaled_selection_mean(self):
        mean, _ = gsc_moments(GscSpec(2, 1, 2.0))
        assert mean == pytest.approx(3.0, rel=1e-12)

    def test_moments_are_renyis_exact_sums(self):
        # g is a sum of exponentials of means omega * c_i, c_i = 1 for i <= n
        # and n/i above; the alternating table's moments were 200% off at
        # (16, 15)
        for N in range(1, MAX_ANTENNAS + 1):
            for n in range(1, N + 1):
                omega = 0.1
                c = [Fraction(1)] * n + [Fraction(n, i) for i in range(n + 1, N + 1)]
                mean = Fraction(omega) * sum(c)
                second = Fraction(omega) ** 2 * sum(x * x for x in c) + mean**2
                m1, m2 = gsc_moments(GscSpec(N, n, omega))
                assert m1 == pytest.approx(float(mean), rel=1e-13, abs=0), (N, n)
                assert m2 == pytest.approx(float(second), rel=1e-13, abs=0), (N, n)

    def test_moments_match_quadrature(self):
        for N, n, omega in [(4, 2, 1.0), (6, 3, 0.1), (5, 1, 2.0), (4, 4, 1.0)]:
            spec = GscSpec(N, n, omega)
            m1, m2 = gsc_moments(spec)
            q1 = integrate_semi_infinite(lambda x: x * gsc_pdf(spec, x)).value
            q2 = integrate_semi_infinite(lambda x: x * x * gsc_pdf(spec, x)).value
            assert m1 == pytest.approx(q1, rel=1e-8)
            assert m2 == pytest.approx(q2, rel=1e-8)

    def test_min_moments_exponential(self, monkeypatch):
        pair = UserPairSpec(GscSpec(1, 1, 1.0), GscSpec(1, 1, 0.1))
        assert min_density(pair) is min_pdf_sc
        m1, m2 = min_moments(pair)
        assert m1 == pytest.approx(1 / 11, rel=1e-12)
        assert m2 == pytest.approx(2 / 121, rel=1e-12)
        # one antenna per side: the MRC form applies too
        monkeypatch.setattr(distributions, "min_density", lambda pair: min_pdf_mrc)
        assert min_moments(pair) == pytest.approx((m1, m2), rel=1e-12)

    def test_min_moments_sc_frozen_monte_carlo(self):
        # 1e7-sample moment estimates: 0.207967 +- 3.8e-5, 0.057323 +- 2.3e-5
        m1, m2 = min_moments(PAIR_SC)
        assert m1 == pytest.approx(0.207967, abs=1.2e-4)
        assert m2 == pytest.approx(0.057323, abs=7e-5)

    def test_min_moments_match_quadrature(self):
        unequal = (
            UserPairSpec(GscSpec(3, 1, 1.0), GscSpec(5, 1, 0.1)),
            UserPairSpec(GscSpec(2, 2, 1.0), GscSpec(5, 5, 0.1)),
        )
        for pair in (PAIR_SC, PAIR_MRC, PAIR_GSC) + unequal:
            m1, m2 = min_moments(pair)
            q1 = integrate_semi_infinite(lambda x: x * min_pdf_general(pair, x)).value
            q2 = integrate_semi_infinite(
                lambda x: x * x * min_pdf_general(pair, x)
            ).value
            assert m1 == pytest.approx(q1, rel=1e-7)
            assert m2 == pytest.approx(q2, rel=1e-7)


class TestMellin:
    def test_moments_match_renyi_closed_forms(self):
        # Renyi: g = omega*(Gamma(n, 1) + sum_{i>n} (n/i) E_i), so
        # mean = omega*(n + sum n/i) and var = omega^2*(n + sum (n/i)^2);
        # the alternating table gave E[g^0] = -32 at (16, 15)
        for N in range(1, MAX_ANTENNAS + 1):
            for n in range(1, N + 1):
                for omega in (0.1, 1.0, 10.0):
                    spec = GscSpec(N, n, omega)
                    tail = [Fraction(n, i) for i in range(n + 1, N + 1)]
                    mean = Fraction(omega) * (n + sum(tail))
                    var = Fraction(omega) ** 2 * (n + sum(t * t for t in tail))
                    for s, ref in ((0, 1), (1, mean), (2, var + mean**2)):
                        assert gsc_mellin(spec, s) == pytest.approx(float(ref), rel=1e-13, abs=0), (spec, s)

    def test_domain_error(self):
        # E[g^s] is finite for s > -N: the density is of order x**(N-1) at
        # 0.  Under full combining, E[g^s] = Gamma(N + s)/Gamma(N) * omega**s.
        for N in range(2, MAX_ANTENNAS + 1):
            for omega in (0.1, 1.0, 3.7):
                ref = math.gamma(N - 1.5) / math.gamma(N) * omega**-1.5
                assert gsc_mellin(GscSpec(N, N, omega), -1.5) == pytest.approx(ref, rel=1e-14), (N, omega)
        for N, n in ((1, 1), (4, 2), (16, 15)):
            for s in (-N, math.nan, math.inf, -math.inf):
                with pytest.raises(DomainError):
                    gsc_mellin(GscSpec(N, n, 1.0), s)
