"""Channel-power distributions for GSC receivers over Rayleigh fading.

The combined power of the n strongest of N i.i.d. Rayleigh branches
(each branch power exponential with mean Omega) has the classical
order-statistics density built from an alternating series over the
discarded branches.  This module provides that PDF, its CDF and its
Mellin transform E[g^s] (the moments and the high-SNR expectation), and
the density and first two moments of the minimum of two independent
combined powers.  ``min_law`` is the one rule that picks the minimum's
closed form from the pair: selection (SC) or full combining (MRC) on
both sides, otherwise the general composition of the two GSC laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import special

from .numerics import DomainError, integrate_semi_infinite

# The alternating l-series loses roughly one digit per discarded branch;
# past this many antennas the closed forms are no longer trustworthy.
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
        if not self.omega > 0:
            raise ValueError(f"omega must be > 0, got {self.omega}")


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


def _chi(pair: UserPairSpec, k: int, j: int) -> float:
    return k / pair.strong.omega + j / pair.weak.omega


def _phi(spec: GscSpec, l: int) -> float:
    return (1.0 + l / spec.combined) / spec.omega


def _series_terms(spec: GscSpec, x: float):
    """Terms of the order-statistics density at x, ready for exact summation.

    Yields every term of the density including the leading gamma-shaped
    one; the caller multiplies the summed series by C(N, n).
    """
    N, n, omega = spec.antennas, spec.combined, spec.omega
    yield x ** (n - 1) * math.exp(-x / omega) / (omega**n * math.factorial(n - 1))
    for l in range(1, N - n + 1):
        sign = (-1.0) ** (n + l - 1)
        coeff = (
            sign
            * math.comb(N - n, l)
            * (n / l) ** (n - 1)
            / omega
        )
        yield coeff * math.exp(-(1.0 + l / n) * x / omega)
        e_common = math.exp(-x / omega)
        for m in range(n - 1):
            yield -coeff * e_common * (-l * x / (n * omega)) ** m / math.factorial(m)


def gsc_pdf(spec: GscSpec, x: float) -> float:
    """Density of the combined channel power at ``x``."""
    if x < 0:
        raise DomainError(f"gsc_pdf requires x >= 0, got {x}")
    if x == 0 and spec.combined > 1:
        return 0.0
    return math.comb(spec.antennas, spec.combined) * math.fsum(
        _series_terms(spec, x)
    )


def gsc_cdf(spec: GscSpec, x: float) -> float:
    """Distribution function, by term-by-term integration of the density."""
    if x < 0:
        raise DomainError(f"gsc_cdf requires x >= 0, got {x}")
    if x == 0:
        return 0.0
    N, n, omega = spec.antennas, spec.combined, spec.omega
    terms = [special.gammainc(n, x / omega)]
    for l in range(1, N - n + 1):
        sign = (-1.0) ** (n + l - 1)
        coeff = sign * math.comb(N - n, l) * (n / l) ** (n - 1)
        terms.append(coeff * (1.0 - math.exp(-_phi(spec, l) * x)) * n / (n + l))
        for m in range(n - 1):
            terms.append(
                -coeff * (-l / n) ** m * special.gammainc(m + 1, x / omega)
            )
    value = math.comb(N, n) * math.fsum(terms)
    return min(max(value, 0.0), 1.0)


def min_pdf_sc(pair: UserPairSpec, x: float) -> float:
    """Density of min(g_s, g_w) when both receivers select one branch."""
    if not pair.is_sc:
        raise ValueError("min_pdf_sc requires single-branch selection on both sides")
    if x < 0:
        raise DomainError(f"min_pdf_sc requires x >= 0, got {x}")
    Ns, Nw = pair.strong.antennas, pair.weak.antennas
    terms = []
    for k in range(1, Ns + 1):
        for j in range(1, Nw + 1):
            chi = _chi(pair, k, j)
            terms.append(
                (-1.0) ** (k + j)
                * math.comb(Ns, k)
                * math.comb(Nw, j)
                * chi
                * math.exp(-chi * x)
            )
    return math.fsum(terms)


def min_pdf_mrc(pair: UserPairSpec, x: float) -> float:
    """Density of min(g_s, g_w) when both receivers combine all branches."""
    if not pair.is_mrc:
        raise ValueError("min_pdf_mrc requires full combining on both sides")
    if x < 0:
        raise DomainError(f"min_pdf_mrc requires x >= 0, got {x}")
    Ns, Nw = pair.strong.antennas, pair.weak.antennas
    os_, ow = pair.strong.omega, pair.weak.omega
    chi = _chi(pair, 1, 1)
    e = math.exp(-chi * x)
    a = (
        x ** (Ns - 1)
        / (math.gamma(Ns) * os_**Ns)
        * e
        * sum(x**j / (math.factorial(j) * ow**j) for j in range(Nw))
    )
    b = (
        x ** (Nw - 1)
        / (math.gamma(Nw) * ow**Nw)
        * e
        * sum(x**k / (math.factorial(k) * os_**k) for k in range(Ns))
    )
    return a + b


def min_pdf_general(pair: UserPairSpec, x: float) -> float:
    """Density of min(g_s, g_w) for arbitrary combining on either side."""
    if x < 0:
        raise DomainError(f"min_pdf_general requires x >= 0, got {x}")
    s, w = pair.strong, pair.weak
    return gsc_pdf(w, x) * (1.0 - gsc_cdf(s, x)) + gsc_pdf(s, x) * (
        1.0 - gsc_cdf(w, x)
    )


def min_law(pair: UserPairSpec) -> str:
    """The closed form of the law of min(g_s, g_w) that fits the pair:
    "sc" when both receivers select one branch, "mrc" when both combine
    all branches, otherwise "general" (composed from the two GSC laws)."""
    if pair.is_sc:
        return "sc"
    if pair.is_mrc:
        return "mrc"
    return "general"


def min_pdf(pair: UserPairSpec, x: float) -> float:
    """Density of min(g_s, g_w) in the form ``min_law`` picks."""
    law = min_law(pair)
    if law == "sc":
        return min_pdf_sc(pair, x)
    if law == "mrc":
        return min_pdf_mrc(pair, x)
    return min_pdf_general(pair, x)


def gsc_mellin(spec: GscSpec, s: float) -> float:
    """Mellin transform E[g^s] of the combined power, for real s > -1.

    Integrates the order-statistics series term by term: every term is a
    gamma integral.  s = 1 and s = 2 give the raw moments; s = -nu gives
    the high-SNR expectation E[g^-nu].
    """
    if not s > -1:
        raise DomainError(f"gsc_mellin requires s > -1, got {s}")
    N, n, omega = spec.antennas, spec.combined, spec.omega
    terms = [
        math.gamma(n + s) * omega**s / math.gamma(n)  # leading gamma term
    ]
    for l in range(1, N - n + 1):
        sign = (-1.0) ** (n + l - 1)
        coeff = sign * math.comb(N - n, l) * (n / l) ** (n - 1) / omega
        terms.append(coeff * math.gamma(1 + s) / _phi(spec, l) ** (1 + s))
        for m in range(n - 1):
            terms.append(
                -coeff
                * (-l / (n * omega)) ** m
                * math.gamma(m + s + 1)
                / math.factorial(m)
                * omega ** (m + s + 1)
            )
    return math.comb(N, n) * math.fsum(terms)


def gsc_moments(spec: GscSpec) -> tuple[float, float]:
    """(mean, second raw moment) of the combined channel power."""
    return gsc_mellin(spec, 1), gsc_mellin(spec, 2)


def _min_moments_sc(pair: UserPairSpec, p: int) -> float:
    Ns, Nw = pair.strong.antennas, pair.weak.antennas
    terms = []
    for k in range(1, Ns + 1):
        for j in range(1, Nw + 1):
            chi = _chi(pair, k, j)
            terms.append(
                (-1.0) ** (k + j)
                * math.comb(Ns, k)
                * math.comb(Nw, j)
                * math.factorial(p)
                / chi**p
            )
    return math.fsum(terms)


def _min_moments_mrc(pair: UserPairSpec, p: int) -> float:
    Ns, Nw = pair.strong.antennas, pair.weak.antennas
    os_, ow = pair.strong.omega, pair.weak.omega
    chi = _chi(pair, 1, 1)
    total = 0.0
    for j in range(Nw):
        total += (
            math.factorial(Ns + j + p - 1)
            / (math.gamma(Ns) * os_**Ns * math.factorial(j) * ow**j)
            * chi ** -(Ns + j + p)
        )
    for k in range(Ns):
        total += (
            math.factorial(Nw + k + p - 1)
            / (math.gamma(Nw) * ow**Nw * math.factorial(k) * os_**k)
            * chi ** -(Nw + k + p)
        )
    return total


def min_moments(pair: UserPairSpec) -> tuple[float, float]:
    """(mean, second raw moment) of min(g_s, g_w): closed forms for the
    SC and MRC laws, quadrature over the general density otherwise."""
    law = min_law(pair)
    if law == "sc":
        return _min_moments_sc(pair, 1), _min_moments_sc(pair, 2)
    if law == "mrc":
        return _min_moments_mrc(pair, 1), _min_moments_mrc(pair, 2)
    m1 = integrate_semi_infinite(lambda x: x * min_pdf_general(pair, x)).value
    m2 = integrate_semi_infinite(lambda x: x * x * min_pdf_general(pair, x)).value
    return m1, m2
