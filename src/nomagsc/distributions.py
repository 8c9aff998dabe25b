"""Channel-power distributions for GSC receivers over Rayleigh fading.

The combined power of the n strongest of N i.i.d. Rayleigh branches
(each branch power exponential with mean Omega) has the classical
order-statistics density, an alternating series over the discarded
branches.  Every closed-form law here is a finite signed sum of gamma
kernels a * x**m * exp(-lam * x), held once per law as a table of
(a, m, lam) terms: ``_gsc_terms`` for one receiver, ``_min_terms`` for
min(g_s, g_w) when both receivers combine all branches (MRC).  Three
evaluators read any table: the density, the distribution (incomplete
gamma functions) and the Mellin transform E[g^s] (gamma functions),
which gives the high-SNR expectation and the MRC minimum's moments; one
receiver's moments are Renyi's exact sums.  A table also holds its terms
grouped by the kernel each evaluator computes, so that one call
evaluates each distinct exp(-lam * x) and incomplete gamma once, with
the values of the term-by-term sums.  ``min_law`` picks the minimum's
law from the pair: SC (one branch on both sides: f_s * S_w + f_w * S_s
over each receiver's best-of-N law, two positive terms), MRC, otherwise
the general composition of the two GSC laws.  The SC and general laws'
moments are integrated through ``numerics.expectation``.  The density
functions are pure: callers that integrate many times over the same
laws share their values through ``numerics.reuse_densities``, and the
general minimum reads its two GSC densities through the same store.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from scipy import special

from .numerics import DomainError, density_value, expectation

# The signs in ``_gsc_terms`` alternate, and the table's sums lose roughly
# one digit per discarded branch; past this many antennas its values are
# no longer trustworthy.
MAX_ANTENNAS = 16


@dataclass(frozen=True)
class GscSpec:
    """One receiver's diversity configuration: combine the ``combined``
    strongest of ``antennas`` branches with mean branch power ``omega``."""

    antennas: int
    combined: int
    omega: float

    def __post_init__(self):
        if not 1 <= self.combined <= self.antennas:
            raise ValueError(
                f"need 1 <= combined <= antennas, got n={self.combined}, N={self.antennas}"
            )
        if self.antennas > MAX_ANTENNAS:
            raise ValueError(
                f"antennas={self.antennas} exceeds the supported maximum "
                f"{MAX_ANTENNAS} (alternating series would lose too much precision)"
            )
        if not 0 < self.omega < math.inf:
            raise ValueError(f"omega must be finite and > 0, got {self.omega}")


@dataclass(frozen=True)
class UserPairSpec:
    """Strong/weak user pairing; the weak user has the smaller mean gain."""

    strong: GscSpec
    weak: GscSpec

    def __post_init__(self):
        if not self.weak.omega < self.strong.omega:
            raise ValueError(
                f"weak user must have omega < strong user's "
                f"({self.weak.omega} >= {self.strong.omega})"
            )

    @property
    def is_sc(self) -> bool:
        return self.strong.combined == 1 and self.weak.combined == 1

    @property
    def is_mrc(self) -> bool:
        return (
            self.strong.combined == self.strong.antennas
            and self.weak.combined == self.weak.antennas
        )


# Tables are built once per spec and read on every density call; a few
# hundred covers every spec a sweep or a figure visits.
_TABLE_CACHE = 256


def _grouped(items) -> tuple:
    """(key, (value, ...)) per distinct key, in order of first appearance."""
    groups = {}
    for key, value in items:
        groups.setdefault(key, []).append(value)
    return tuple((key, tuple(values)) for key, values in groups.items())


class _Table:
    """One law as gamma kernels: density = scale * sum a * x**m * exp(-lam * x).

    It iterates as its (a, m, lam) terms, and holds them grouped by the
    kernel each evaluator computes, so that one call computes each
    distinct kernel once.  ``by_rate`` serves the density:
    (lam, ((a, m), ...)), one exp(-lam * x) per rate.  ``by_kernel`` serves
    the distribution: ((m+1, lam), (a * m!/lam**(m+1), ...)), one
    1 - exp(-lam * x) (m = 0) or incomplete gamma P(m+1, lam * x) per key.
    It is built on first use, because its coefficients can raise (lam = 0)
    where the density does not.
    """

    def __init__(self, terms, scale: float = 1.0):
        self.terms = tuple(terms)
        self.scale = scale
        self.by_rate = _grouped((lam, (a, m)) for a, m, lam in self.terms)

    def __iter__(self):
        return iter(self.terms)

    @functools.cached_property
    def by_kernel(self) -> tuple:
        return _grouped(
            ((m + 1, lam), a / lam if m == 0 else a * math.factorial(m) / lam ** (m + 1))
            for a, m, lam in self.terms
        )


@functools.lru_cache(maxsize=_TABLE_CACHE)
def _gsc_terms(spec: GscSpec) -> _Table:
    """The order-statistics density as gamma kernels, at scale C(N, n).

    The gamma-shaped head, then for each l = 1..N-n of the binomial
    expansion over the discarded branches, an exponential term at rate
    (1 + l/n)/omega and n - 1 polynomial terms at rate 1/omega, with
    alternating signs.
    """
    N, n, omega = spec.antennas, spec.combined, spec.omega
    terms = [(1.0 / (omega**n * math.factorial(n - 1)), n - 1, 1.0 / omega)]
    for l in range(1, N - n + 1):
        coeff = (-1.0) ** (n + l - 1) * math.comb(N - n, l) * (n / l) ** (n - 1) / omega
        terms.append((coeff, 0, (1.0 + l / n) / omega))
        for m in range(n - 1):
            terms.append(
                (-coeff * (-l / (n * omega)) ** m / math.factorial(m), m, 1.0 / omega)
            )
    return _Table(terms, float(math.comb(N, n)))


@functools.lru_cache(maxsize=_TABLE_CACHE)
def _min_terms(pair: UserPairSpec) -> _Table:
    """The density of min(g_s, g_w) as gamma kernels when both receivers
    combine all branches: one side's gamma density times the other
    side's gamma survival."""
    s, w = pair.strong, pair.weak
    chi = 1.0 / s.omega + 1.0 / w.omega
    return _Table(
        (
            1.0 / (math.gamma(u.antennas) * u.omega**u.antennas * math.factorial(j) * v.omega**j),
            u.antennas - 1 + j,
            chi,
        )
        for u, v in ((s, w), (w, s))
        for j in range(v.antennas)
    )


# Each term's product below is formed with the same float operations as
# a * x**m * exp(-lam * x) term by term (x**0 is exactly 1.0, and a * 1.0
# is a, so m = 0 skips both), and math.fsum rounds correctly whatever the
# order of its inputs, so grouping moves no value.


def _density(t: _Table, x: float) -> float:
    """scale * sum a * x**m * exp(-lam * x), summed exactly."""
    return t.scale * math.fsum(
        [
            a * x**m * e if m else a * e
            for lam, group in t.by_rate
            for e in (math.exp(-lam * x),)
            for a, m in group
        ]
    )


def _distribution(t: _Table, x: float) -> float:
    """Integral of the density over [0, x]: a * m!/lam**(m+1) * P(m+1, lam*x)
    per term, with P the regularized lower incomplete gamma, which is
    1 - exp(-lam*x) when m = 0."""
    return t.scale * math.fsum(
        [
            c * p
            for (k, lam), cs in t.by_kernel
            for p in (1.0 - math.exp(-lam * x) if k == 1 else special.gammainc(k, lam * x),)
            for c in cs
        ]
    )


def _mellin(t: _Table, s: float) -> float:
    """Integral of x**s times the density: a * Gamma(m+s+1)/lam**(m+s+1) per term."""
    return t.scale * math.fsum(a * math.gamma(m + s + 1) / lam ** (m + s + 1) for a, m, lam in t)


def gsc_pdf(spec: GscSpec, x: float) -> float:
    """Density of the combined channel power at ``x``."""
    if x < 0:
        raise DomainError(f"gsc_pdf requires x >= 0, got {x}")
    return _density(_gsc_terms(spec), x)


def gsc_cdf(spec: GscSpec, x: float) -> float:
    """Distribution function, by term-by-term integration of the density."""
    if x < 0:
        raise DomainError(f"gsc_cdf requires x >= 0, got {x}")
    value = _distribution(_gsc_terms(spec), x)
    return min(max(value, 0.0), 1.0)


def _best_branch(spec: GscSpec, x: float) -> tuple[float, float]:
    """(density, survival) at x of the best of N branches, e = exp(-x/omega):
    (N/omega) * e * (1 - e)**(N-1) and 1 - (1 - e)**N, without cancellation."""
    N, omega = spec.antennas, spec.omega
    e = math.exp(-x / omega)
    f = N / omega * e * (-math.expm1(-x / omega)) ** (N - 1)
    return f, -math.expm1(N * math.log1p(-e)) if e < 1.0 else 1.0


def min_pdf_sc(pair: UserPairSpec, x: float) -> float:
    """Density f_s * S_w + f_w * S_s of min(g_s, g_w) when both receivers select one branch."""
    if not pair.is_sc:
        raise ValueError("min_pdf_sc requires single-branch selection on both sides")
    if x < 0:
        raise DomainError(f"min_pdf_sc requires x >= 0, got {x}")
    (f_s, s_s), (f_w, s_w) = _best_branch(pair.strong, x), _best_branch(pair.weak, x)
    return f_s * s_w + f_w * s_s


def min_pdf_mrc(pair: UserPairSpec, x: float) -> float:
    """Density of min(g_s, g_w) when both receivers combine all branches."""
    if not pair.is_mrc:
        raise ValueError("min_pdf_mrc requires full combining on both sides")
    if x < 0:
        raise DomainError(f"min_pdf_mrc requires x >= 0, got {x}")
    return _density(_min_terms(pair), x)


def min_pdf_general(pair: UserPairSpec, x: float) -> float:
    """Density f_w * (1 - F_s) + f_s * (1 - F_w) of min(g_s, g_w) for
    arbitrary combining on either side; f_s and f_w are read through
    ``numerics.density_value``, so a block computes each once."""
    if x < 0:
        raise DomainError(f"min_pdf_general requires x >= 0, got {x}")
    s, w = pair.strong, pair.weak
    f_s, f_w = density_value(gsc_pdf, s, x), density_value(gsc_pdf, w, x)
    return f_w * (1.0 - gsc_cdf(s, x)) + f_s * (1.0 - gsc_cdf(w, x))


def min_law(pair: UserPairSpec) -> str:
    """The closed form of the law of min(g_s, g_w) that fits the pair:
    "sc" when both receivers select one branch, "mrc" when both combine
    all branches, otherwise "general" (composed from the two GSC laws)."""
    if pair.is_sc:
        return "sc"
    if pair.is_mrc:
        return "mrc"
    return "general"


def min_density(pair: UserPairSpec):
    """The density function of min(g_s, g_w) in the form ``min_law`` picks:
    ``min_pdf_sc``, ``min_pdf_mrc`` or ``min_pdf_general``, read from this
    module when called."""
    return {"sc": min_pdf_sc, "mrc": min_pdf_mrc, "general": min_pdf_general}[min_law(pair)]


def gsc_mellin(spec: GscSpec, s: float) -> float:
    """Mellin transform E[g^s] of the combined power, for real s > -1.

    s = 1 and s = 2 give the raw moments; s = -nu gives the high-SNR
    expectation E[g^-nu].
    """
    if not s > -1:
        raise DomainError(f"gsc_mellin requires s > -1, got {s}")
    return _mellin(_gsc_terms(spec), s)


def gsc_moments(spec: GscSpec) -> tuple[float, float]:
    """(mean, second raw moment) of the combined channel power.

    By Renyi's representation g is a sum of independent exponentials of
    means omega * c_i, i = 1..N, with c_i = 1 for i <= n and n/i above, so
    the mean is omega * sum c and E[g^2] = omega^2 * sum c^2 + mean^2.  The
    sums are exact fractions, free of the alternating table's cancellation.
    """
    n = spec.combined
    c = [Fraction(1)] * n + [Fraction(n, i) for i in range(n + 1, spec.antennas + 1)]
    mean = spec.omega * float(sum(c))
    return mean, spec.omega**2 * float(sum(x * x for x in c)) + mean**2


def min_moments(pair: UserPairSpec) -> tuple[float, float]:
    """(mean, second raw moment) of min(g_s, g_w): closed Mellin moments
    for the MRC law, quadrature over ``min_density`` otherwise."""
    if min_law(pair) == "mrc":
        terms = _min_terms(pair)
        return _mellin(terms, 1), _mellin(terms, 2)
    density = min_density(pair)
    return tuple(expectation(h, density, pair).value for h in (lambda x: x, lambda x: x * x))
