"""Channel-power distributions for GSC receivers over Rayleigh fading.

The combined power of the n strongest of N i.i.d. Rayleigh branches
(each branch power exponential with mean Omega) has the classical
order-statistics density, an alternating series over the discarded
branches.  ``gsc_pdf`` reads it as a finite signed sum of gamma kernels
a * x**m * exp(-lam * x), held once per spec in ``_gsc_terms`` and
grouped by rate, so that one call computes each distinct exp(-lam * x)
once.  One receiver's moments are Renyi's exact sums.

By Renyi's representation, g = omega * sum_i c_i E_i is also a positive
mixture of gamma laws of one scale (Moschopoulos 1985), ``_mixture``:
no term of it cancels, at any N.  ``gsc_cdf``, the Mellin transform
E[g^s] (``gsc_mellin``, the high-SNR expectation) and the law of the
minimum read it.  The density of min(g_s, g_w) is f_s * S_w + f_w * S_s
over each receiver's (density, survival) pair, from the best-of-N law
for one branch and the mixture otherwise; ``min_law`` names the pair's
case (SC: one branch on both sides, MRC: all branches on both sides,
otherwise general), and its moments are integrated through
``numerics.expectation``.  The density functions are pure: callers that
integrate many times over the same laws share their values through
``numerics.reuse_densities``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy import special

from .numerics import DomainError, expectation

# The signs in ``_gsc_terms``, the table ``gsc_pdf`` reads, alternate, and
# its sums lose roughly one digit per discarded branch; past this many
# antennas its values are no longer trustworthy.  Only that table limits N.
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


class _Table:
    """One law as gamma kernels: density = scale * sum a * x**m * exp(-lam * x),
    held grouped by rate, (lam, ((a, m), ...)), so that one call computes
    each distinct exp(-lam * x) once."""

    def __init__(self, terms, scale: float):
        groups = {}
        for a, m, lam in terms:
            groups.setdefault(lam, []).append((a, m))
        self.by_rate = tuple((lam, tuple(group)) for lam, group in groups.items())
        self.scale = scale


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


def gsc_pdf(spec: GscSpec, x: float) -> float:
    """Density of the combined channel power at ``x``."""
    if x < 0:
        raise DomainError(f"gsc_pdf requires x >= 0, got {x}")
    return _density(_gsc_terms(spec), x)


def _best_branch(spec: GscSpec, x: float) -> tuple[float, float]:
    """(density, survival) at x of the best of N branches, e = exp(-x/omega):
    (N/omega) * e * (1 - e)**(N-1) and 1 - (1 - e)**N, without cancellation."""
    N, omega = spec.antennas, spec.omega
    e = math.exp(-x / omega)
    f = N / omega * e * (-math.expm1(-x / omega)) ** (N - 1)
    return f, -math.expm1(N * math.log1p(-e)) if e < 1.0 else 1.0


class _Mixture(NamedTuple):
    """One receiver's law as a positive gamma mixture: g has the law of
    sum_k weights[k] * Gamma(N + k, scale), scale = omega * n/N."""

    weights: np.ndarray
    # survival[j] = sum of weights[k] over k > j - N, for j < N + K - 1
    survival: np.ndarray
    # 1, 1, 2, ..., N + K - 2: t_j = t_(j-1) * y/j builds the Poisson terms
    divisors: np.ndarray


# weight the mixture may leave out
_MIXTURE_TAIL = 1e-17


@functools.lru_cache(maxsize=_TABLE_CACHE)
def _mixture(antennas: int, combined: int) -> _Mixture:
    """Moschopoulos' (1985) gamma mixture of the law of the n strongest of N.

    By Renyi, g = omega * sum_i c_i E_i with c_i = 1 for i <= n and n/i
    above.  Against the smallest scale omega * n/N each term is a
    geometric mixture of gamma laws, so g is a mixture of
    Gamma(N + k, omega * n/N) whose weights are the law of a sum of
    independent geometric counts of ratios r_i = 1 - n/N (n of them) and
    1 - i/N (i = n+1..N-1; r_N = 0):
    w_0 = prod(1 - r_i), w_k = (1/k) sum_(i=1..k) (sum r^i) w_(k-i).
    Every term is positive.  The weights are log-concave, so once they
    fall the ratio w_k/w_(k-1) only decreases, and w_k * ratio/(1 - ratio)
    bounds the weight left out; the table stops when that is at most
    _MIXTURE_TAIL.  The weights depend on (N, n) only, not on omega.
    """
    N, n = antennas, combined
    # N * r_i: w_0 and the power sums are ratios of integers, each rounded
    # once (a rounded r_i would carry its error k-fold into r_i**k)
    numerators = [N - n] * n + [N - i for i in range(n + 1, N)]
    weights, power_sums = [n**n * math.prod(range(n + 1, N)) / N ** len(numerators)], []
    while n < N:
        k = len(weights)
        power_sums.append(sum(m**k for m in numerators) / N**k)
        weights.append(float(np.dot(power_sums, weights[::-1])) / k)
        ratio = weights[-1] / weights[-2]
        if ratio < 1 and weights[-1] * ratio / (1 - ratio) <= _MIXTURE_TAIL:
            break
    w = np.array(weights)
    tails = np.cumsum(w[::-1])[::-1]
    divisors = np.arange(N + len(w) - 1, dtype=float)
    divisors[0] = 1.0
    survival = np.concatenate([np.full(N - 1, tails[0]), tails])
    return _Mixture(w, survival, divisors)


def _receiver(spec: GscSpec, x: float) -> tuple[float, float]:
    """(density, survival) of one receiver's combined power at x, as sums
    of positive terms: the best-of-N law for n = 1, the mixture otherwise.

    With y = x/scale and the Poisson terms t_j = exp(-y) * y**j/j!, the
    mixture's density is sum_k w_k * t_(N-1+k)/scale and its survival
    sum_k w_k * sum_(j<N+k) t_j = sum_j survival[j] * t_j.
    """
    N, n = spec.antennas, spec.combined
    if n == 1:
        return _best_branch(spec, x)
    m = _mixture(N, n)
    scale = spec.omega * n / N
    y = x / scale
    e = math.exp(-y)
    # past y = 745 exp(-y) underflows; there every t_j with j < N + K
    # (K <= 343 terms for N <= 16) is below 1e-55, far under the weight
    # the mixture leaves out, and the far tail costs no array work
    if e == 0.0:
        return 0.0, 0.0
    t = y / m.divisors
    t[0] = e
    t.cumprod(out=t)
    return float(m.weights.dot(t[N - 1 :])) / scale, float(m.survival.dot(t))


def gsc_cdf(spec: GscSpec, x: float) -> float:
    """Distribution function: (1 - exp(-x/omega))**N for n = 1, otherwise
    the mixture's sum_k w_k * P(N + k, x/scale) with P the regularized
    lower incomplete gamma; a sum of positive terms either way."""
    if x < 0:
        raise DomainError(f"gsc_cdf requires x >= 0, got {x}")
    N, n = spec.antennas, spec.combined
    if n == 1:
        return (-math.expm1(-x / spec.omega)) ** N
    m = _mixture(N, n)
    shapes = N + np.arange(len(m.weights))
    return float(m.weights.dot(special.gammainc(shapes, x / (spec.omega * n / N))))


def _min_pdf(pair: UserPairSpec, x: float) -> float:
    """Density f_s * S_w + f_w * S_s of min(g_s, g_w) over each receiver's
    (density, survival) from ``_receiver``: positive terms, free of
    cancellation at any N."""
    (f_s, s_s), (f_w, s_w) = _receiver(pair.strong, x), _receiver(pair.weak, x)
    return f_s * s_w + f_w * s_s


def min_pdf_sc(pair: UserPairSpec, x: float) -> float:
    """Density of min(g_s, g_w) when both receivers select one branch."""
    if not pair.is_sc:
        raise ValueError("min_pdf_sc requires single-branch selection on both sides")
    if x < 0:
        raise DomainError(f"min_pdf_sc requires x >= 0, got {x}")
    return _min_pdf(pair, x)


def min_pdf_mrc(pair: UserPairSpec, x: float) -> float:
    """Density of min(g_s, g_w) when both receivers combine all branches."""
    if not pair.is_mrc:
        raise ValueError("min_pdf_mrc requires full combining on both sides")
    if x < 0:
        raise DomainError(f"min_pdf_mrc requires x >= 0, got {x}")
    return _min_pdf(pair, x)


def min_pdf_general(pair: UserPairSpec, x: float) -> float:
    """Density of min(g_s, g_w) for arbitrary combining on either side."""
    if x < 0:
        raise DomainError(f"min_pdf_general requires x >= 0, got {x}")
    return _min_pdf(pair, x)


def min_law(pair: UserPairSpec) -> str:
    """The pair's case of min(g_s, g_w): "sc" when both receivers select
    one branch, "mrc" when both combine all branches, otherwise "general".
    Each case has its own density name; all three compute ``_min_pdf``."""
    if pair.is_sc:
        return "sc"
    if pair.is_mrc:
        return "mrc"
    return "general"


def min_density(pair: UserPairSpec):
    """The density function of min(g_s, g_w) for the case ``min_law``
    names: ``min_pdf_sc``, ``min_pdf_mrc`` or ``min_pdf_general``, read
    from this module when called."""
    return {"sc": min_pdf_sc, "mrc": min_pdf_mrc, "general": min_pdf_general}[min_law(pair)]


def gsc_mellin(spec: GscSpec, s: float) -> float:
    """Mellin transform E[g^s] of the combined power, for real s > -N.

    s = 1 and s = 2 give the raw moments; s = -nu gives the high-SNR
    expectation E[g^-nu].  Over the mixture it is
    scale**s * sum_k w_k * Gamma(N + k + s)/Gamma(N + k), a sum of
    positive terms, finite wherever E[g^s] is: the density is of order
    x**(N-1) at 0.
    """
    N, n = spec.antennas, spec.combined
    if not s > -N:
        raise DomainError(f"gsc_mellin requires s > -N = {-N}, got {s}")
    w = _mixture(N, n).weights
    return (spec.omega * n / N) ** s * float(w.dot(special.poch(N + np.arange(len(w)), s)))


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
    """(mean, second raw moment) of min(g_s, g_w), by quadrature over
    ``min_density``."""
    density = min_density(pair)
    return tuple(expectation(h, density, pair).value for h in (lambda x: x, lambda x: x * x))
