import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from nomagsc import capacity, distributions, numerics
from nomagsc.distributions import (
    GscSpec,
    UserPairSpec,
    _density,
    _gsc_terms,
    gsc_mellin,
    gsc_pdf,
    min_pdf_general,
    min_pdf_sc,
)
from nomagsc.numerics import (
    DomainError,
    IntegrationError,
    _kronrod_block,
    expectation,
    integrate_semi_infinite,
    reuse_densities,
)


def _series_terms(spec, x):
    """The density's float terms a * x**m * exp(-lam * x), as gsc_pdf forms
    them before summing; the caller multiplies the sum by C(N, n)."""
    return [
        a * x**m * math.exp(-lam * x) for lam, group in _gsc_terms(spec).by_rate for a, m in group
    ]


def _exact_pdf(spec, x):
    """The density as the correctly rounded sum of its float series terms."""
    with mp.workprec(2000):
        total = mp.fsum([mp.mpf(t) for t in _series_terms(spec, x)])
        return float(math.comb(spec.antennas, spec.combined) * total)


class TestAlternatingSum:
    """The order-statistics density is an alternating series; ``_density``
    sums its terms exactly (math.fsum), so it is the correctly rounded
    sum of the float terms however much they cancel.  ``gsc_pdf`` sums
    it only for short series and reads longer laws, where the correctly
    rounded sum of the rounded terms is still wrong, from the mixture."""

    def test_cancellation(self):
        # best of N at x = 0: the integer terms sum(-1)^l C(N-1, l) cancel
        for N in range(2, 17):
            assert gsc_pdf(GscSpec(N, 1, 1.0), 0.0) == 0.0

    def test_compensated_canonical_case(self):
        # best of 16 at x = 1e-3: terms up to C(15, 7) = 6435 sum to -1.4e-11;
        # a naive running sum is off by about 1e14 ulp, the exact sum by
        # none, and both are far from the true 1.6e-44 that gsc_pdf gives
        spec, x = GscSpec(16, 1, 1.0), 1e-3
        ref = _exact_pdf(spec, x)
        assert _density(_gsc_terms(spec), x) == ref
        assert 16 * sum(_series_terms(spec, x)) != ref
        true = 16 * math.exp(-x) * (-math.expm1(-x)) ** 15
        assert gsc_pdf(spec, x) == pytest.approx(true, rel=1e-14)

    def test_empty(self):
        # n = N discards no branch: the l-series is empty and only the
        # gamma-shaped head remains
        for N in (1, 3, 6):
            spec = GscSpec(N, N, 2.0)
            for x in (0.5, 3.0, 20.0):
                assert gsc_pdf(spec, x) == pytest.approx(
                    stats.gamma.pdf(x, N, scale=2.0), rel=1e-13
                )
            assert gsc_mellin(spec, -0.5) == pytest.approx(
                math.gamma(N - 0.5) * 2.0**-0.5 / math.gamma(N), rel=1e-14
            )

    def test_gsc_series_against_extended_precision(self):
        # term list of the order-statistics density for N=6, n=1 at x=0.01
        spec, x = GscSpec(6, 1, 1.0), 0.01
        with mp.workprec(200):
            ref = float(6 * mp.fsum([mp.mpf(t) for t in _series_terms(spec, x)]))
        assert gsc_pdf(spec, x) == pytest.approx(ref, rel=1e-12)

    @given(
        st.integers(min_value=1, max_value=16).flatmap(
            lambda N: st.tuples(st.just(N), st.integers(min_value=1, max_value=N))
        ),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.0, max_value=50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_within_two_ulp_of_exact_sum(self, sizes, omega, x):
        spec = GscSpec(sizes[0], sizes[1], omega)
        ref = _exact_pdf(spec, x)
        assert abs(_density(_gsc_terms(spec), x) - ref) <= 2 * math.ulp(ref)


# integrands with known values for the error-bound corpus
_CORPUS = [
    (lambda x: math.exp(-x), 1.0),
    (lambda x: x * math.exp(-x), 1.0),
    (lambda x: (1.0 + x) ** -3, 0.5),
    (lambda x: x**2 * math.exp(-x), 2.0),
    (lambda x: math.exp(-2 * x), 0.5),
    (lambda x: x**4 * math.exp(-x), 24.0),
    (lambda x: math.exp(-(x**2)), math.sqrt(math.pi) / 2),
    (lambda x: x * math.exp(-(x**2)), 0.5),
    (lambda x: 1.0 / (1.0 + x**2), math.pi / 2),
    (lambda x: math.exp(-x) * math.cos(x), 0.5),
    (lambda x: math.exp(-x) * math.sin(x), 0.5),
    (lambda x: x ** -0.5 * math.exp(-x), math.sqrt(math.pi)),
    (lambda x: x**0.5 * math.exp(-x), math.sqrt(math.pi) / 2),
    (lambda x: (1.0 + x) ** -2, 1.0),
    (lambda x: x / (1.0 + x) ** 4, 1.0 / 6.0),
    (lambda x: math.exp(-x / 10.0) / 10.0, 1.0),
    (lambda x: 20.0 * math.exp(-20.0 * x), 1.0),
    (lambda x: x**3 * math.exp(-2 * x), 6.0 / 16.0),
    (lambda x: math.log1p(x) * math.exp(-x), 0.5963473623231941),  # e*E1(1)
    (lambda x: x * math.exp(-x) * math.cos(x), 0.0),
]


class TestIntegrateSemiInfinite:
    def test_unit_exponential(self):
        r = integrate_semi_infinite(lambda x: math.exp(-x))
        assert r.value == pytest.approx(1.0, abs=1e-10)

    def test_gamma_two_mass(self):
        r = integrate_semi_infinite(lambda x: x * math.exp(-x))
        assert r.value == pytest.approx(1.0, abs=1e-10)

    def test_algebraic_decay(self):
        r = integrate_semi_infinite(lambda x: (1.0 + x) ** -3)
        assert r.value == pytest.approx(0.5, rel=1e-10)

    def test_error_estimate_bounds_true_error(self):
        for f, exact in _CORPUS:
            r = integrate_semi_infinite(f)
            assert abs(r.value - exact) <= max(r.error_estimate, 1e-13), exact

    def test_linearity(self):
        f = lambda x: math.exp(-x)
        g = lambda x: (1.0 + x) ** -3
        a, b = 2.5, -0.75
        rf = integrate_semi_infinite(f)
        rg = integrate_semi_infinite(g)
        rc = integrate_semi_infinite(lambda x: a * f(x) + b * g(x))
        tol = abs(a) * rf.error_estimate + abs(b) * rg.error_estimate + rc.error_estimate
        assert abs(rc.value - (a * rf.value + b * rg.value)) <= max(tol, 1e-12)

    def test_nan_integrand_reports_abscissa(self):
        with pytest.raises(IntegrationError, match="non-finite"):
            integrate_semi_infinite(lambda x: float("nan") if x > 1 else math.exp(-x))

    def test_nonconvergence(self):
        # misses the contract: 200 subdivisions leave an error estimate of 0.11
        with pytest.raises(IntegrationError, match="converge"):
            integrate_semi_infinite(
                lambda x: math.cos(50 * x) ** 2 * math.exp(-x / 50) / (1 + x) ** 0.5
            )


class _Counted:
    """A density that records every node it is called at, a float or each
    element of an array."""

    def __init__(self, density):
        self.density = density
        self.seen = []

    def __call__(self, law, x):
        self.seen.extend(np.atleast_1d(x).tolist())
        return self.density(law, x)


def _term(h):
    """The term builder of x -> h(x) * density."""
    return lambda values: lambda x: h(x) * values[x]


class TestExpectation:
    def test_is_the_integral_of_h_times_the_density(self):
        spec = GscSpec(4, 2, 1.0)
        h = lambda x: (1.0 + 3.0 * x) ** -0.7
        r = expectation(_term(h), gsc_pdf, spec)
        assert r == integrate_semi_infinite(lambda x: h(x) * gsc_pdf(spec, x))

    def test_quadrature_stays_behind_numerics(self):
        # the channel laws and the evaluators integrate only through
        # numerics.expectation, so the quadrature rule is chosen in one place
        for module in (capacity, distributions):
            assert not hasattr(module, "integrate_semi_infinite"), module.__name__


class TestReuseDensities:
    PAIR_SC = UserPairSpec(GscSpec(4, 1, 1.0), GscSpec(4, 1, 0.1))
    PAIR = UserPairSpec(GscSpec(6, 3, 1.0), GscSpec(6, 3, 0.1))

    def test_values_are_the_computed_ones(self):
        # min_pdf_sc and min_pdf_general give the same law in different
        # roundings, and the strong and weak GSC laws share a form: every
        # (density, law) keeps its own values
        laws = [
            (min_pdf_sc, self.PAIR_SC),
            (min_pdf_general, self.PAIR_SC),
            (gsc_pdf, self.PAIR.strong),
            (gsc_pdf, self.PAIR.weak),
            (min_pdf_general, self.PAIR),
        ]
        h = _term(lambda x: (1.0 + 3.0 * x) ** -0.7)
        g = _term(lambda x: math.log2(1.0 + 30.0 * x))
        fresh_h = [expectation(h, d, law) for d, law in laws]
        fresh_g = [expectation(g, d, law) for d, law in laws]
        counted = [_Counted(d) for d, _ in laws]
        with reuse_densities():
            first = [expectation(h, c, law) for c, (_, law) in zip(counted, laws)]
            nodes = [set(c.seen) for c in counted]
            assert all(len(n) == len(c.seen) > 0 for n, c in zip(nodes, counted))
            for c in counted:
                c.seen.clear()
            second = [expectation(h, c, law) for c, (_, law) in zip(counted, laws)]
            assert [c.seen for c in counted] == [[]] * len(laws)
            other = [expectation(g, c, law) for c, (_, law) in zip(counted, laws)]
        assert first == fresh_h and second == first and other == fresh_g
        # another h over the same law computes the density only at new nodes
        for c, n in zip(counted, nodes):
            assert not n & set(c.seen)

    def test_errors_are_not_stored(self):
        raised = []

        # the nodes of QAGI's first interval reach x = 233, the next ones
        # go beyond: the first block is stored, the second fails
        def density(law, x):
            if (np.atleast_1d(x) > 250.0).any():
                raised.append(np.atleast_1d(x).tolist())
                raise DomainError(f"no density at {x}")
            return np.exp(-x)

        with reuse_densities():
            for _ in range(2):
                with pytest.raises(DomainError):
                    expectation(_term(lambda x: 1.0), density, "law")
            stored = numerics._DENSITIES.get()[density, "law"]
            assert stored and all(x <= 250.0 for x in stored)
        # the second pass computed the failing nodes again
        assert len(raised) == 2 and raised[0] == raised[1]

    def test_nested_blocks_share_one_store(self):
        density = _Counted(lambda law, x: np.exp(-x))
        with pytest.raises(IntegrationError):
            with reuse_densities():
                outer = numerics._DENSITIES.get()
                with reuse_densities():
                    assert numerics._DENSITIES.get() is outer
                    first = expectation(_term(lambda x: x), density, "law")
                # the inner block's values outlive it
                assert numerics._DENSITIES.get() is outer and outer[density, "law"]
                density.seen.clear()
                with reuse_densities():
                    assert expectation(_term(lambda x: x), density, "law") == first
                    assert density.seen == []
                    raise IntegrationError("an inner block fails")
        assert numerics._DENSITIES.get() is None

    def test_store_ends_with_the_block(self):
        density = _Counted(lambda law, x: np.exp(-x))
        assert numerics._DENSITIES.get() is None
        with pytest.raises(IntegrationError):
            with reuse_densities():
                expectation(_term(lambda x: x), density, "law")
                assert numerics._DENSITIES.get()
                raise IntegrationError("the caller fails inside the block")
        assert numerics._DENSITIES.get() is None
        # nothing carries over to the next block
        evaluated = len(density.seen)
        with reuse_densities():
            expectation(_term(lambda x: x), density, "law")
        assert len(density.seen) == 2 * evaluated


def _requested(f):
    """Every x that scipy's quad asks ``integrate_semi_infinite`` for, in
    order, integrating f."""
    seen = []

    def recorded(x):
        seen.append(x)
        return f(x)

    integrate_semi_infinite(recorded)
    return seen


def _depth(run):
    """The bisection depth of a run's QAGI interval: its outermost nodes
    lie at t = c -/+ 0.9915 * 2**-(depth + 1)."""
    t_low, t_high = (1.0 / (1.0 + x) for x in run[1:3])
    return round(-math.log2((t_high - t_low) / (2 * numerics._XGK[0]))) - 1


class TestKronrodBlocks:
    """QUADPACK's QAGI rule asks for nodes 15 at a time, the centre of a
    dyadic t-interval first; ``_kronrod_block`` names each run from its
    first node, so a scipy that changes the order fails here."""

    INTEGRANDS = {
        "easy": lambda x: math.exp(-x),
        # a peak 1e-4 wide at x = 3 bisects 17 levels deep
        "deep": lambda x: 1.0 / (1.0 + ((x - 3.0) / 1e-4) ** 2),
        # a tail out to x = 3e7, t = 3.3e-8
        "far": lambda x: 1e5 / (1e5 + x) ** 2,
    }

    @pytest.mark.parametrize("name", INTEGRANDS)
    def test_runs_of_15_are_blocks(self, name):
        seen = _requested(self.INTEGRANDS[name])
        assert seen and len(seen) % 15 == 0
        runs = [seen[i : i + 15] for i in range(0, len(seen), 15)]
        assert all(run == _kronrod_block(run[0]) for run in runs)
        # the other 14 nodes of a run are no centres
        assert all(_kronrod_block(x) is None for run in runs for x in run[1:])
        if name == "deep":
            assert max(_depth(run) for run in runs) > 8
        if name == "far":
            assert min(1.0 / (1.0 + x) for x in seen) < 1e-7

    def test_none_off_the_centres(self):
        for x in (0.0, -1.0, 0.3, 2.5, math.pi, 1e-7, 123.456, 1e300, math.inf, math.nan):
            assert _kronrod_block(x) is None, x
        # the centres of (0, 1), (0, 1/2) and (1/2, 1)
        assert [_kronrod_block(x)[0] for x in (1.0, 3.0, 1 / 3)] == [1.0, 3.0, 1 / 3]

    @pytest.mark.parametrize("N, n", [(4, 2), (12, 6)])
    def test_exact_cases_make_no_one_node_calls(self, monkeypatch, N, n):
        pair = UserPairSpec(GscSpec(N, n, 1.0), GscSpec(N, n, 0.1))
        calls = []
        for name in ("gsc_pdf", "min_pdf_general"):
            real = getattr(distributions, name)
            monkeypatch.setattr(
                distributions, name, lambda law, x, real=real: calls.append(np.ndim(x)) or real(law, x)
            )
        cases = [
            (capacity.PowerSplit(0.24), capacity.QosProfile(theta), capacity.SnrPoint.from_db(rho_db))
            for theta in (0.0, 0.5)
            for rho_db in (0.0, 10.0, 20.0)
        ]
        capacity.exact_cases(pair, cases, ("ec_strong", "ec_weak", "ergodic_weak"))
        assert calls and set(calls) == {1}
