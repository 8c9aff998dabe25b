"""Channel-power distributions for GSC receivers over Rayleigh fading.

The combined power of the n strongest of N i.i.d. Rayleigh branches
(each branch power exponential with mean Omega) has the classical
order-statistics density, an alternating series over the discarded
branches: a finite signed sum of 1 + (N - n) * n gamma kernels
a * x**m * exp(-lam * x), held once per spec as a flat term list in
``_gsc_terms``.  ``gsc_pdf`` sums it only for the short laws, of at most
``_SERIES_TERMS_MAX`` terms: every N <= 4 law, every n = N law, (5, 1)
and (5, 4).  The series stays only to hold the values of the N = 4 laws
that the frozen benchmark references were computed from.

By Renyi's representation, g = omega * sum_i c_i E_i is also a positive
mixture of gamma laws of one scale (Moschopoulos 1985), ``_mixture``:
no term of it cancels, at any N.  ``gsc_cdf``, the Mellin transform
E[g^s] (``gsc_mellin``: at s = 1, 2 the moments ``gsc_moments``), its
logarithm ``_log_mellin`` (the high-SNR expectation) and the law of the
minimum read it.  ``_receiver`` evaluates a receiver's law at a node
array: the best-of-N law for one branch and the mixture otherwise, and
it forms only what its caller reads.  ``gsc_pdf`` reads the density
alone, for every law whose series is longer.  The density of
min(g_s, g_w) is f_s * S_w + f_w * S_s, so ``_min_pdf`` reads both
receivers' density and survival; when the two receivers have the same
(N, n), as in every pair of the paper, both are rows of one array.
``min_density`` picks the pair's case (SC: one branch on both sides,
MRC: all branches on both sides, otherwise general), and its moments are
integrated through ``numerics.expectation``.  The density functions are
pure: callers that integrate many times over the same laws share their
values through ``numerics.reuse_densities``.  ``gsc_pdf`` and the
``min_pdf_*`` take x as a float, giving a float, or as a 1-D array of
nodes, giving an array, as ``numerics.expectation`` asks for a
quadrature interval's 15 nodes at once; a node's value is the same (==)
either way, and whichever receiver shares its array, because each
node's row of terms is formed and summed on its own.  Every x must be
finite and >= 0.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special

from .numerics import DomainError, expectation, reuse_densities

# No density cancels at any N (``gsc_pdf`` sums only short series); N
# stops where the laws are checked: the mixture's size (up to 343
# weights), ``_receiver``'s underflow bound and the 40-digit gate rows.
MAX_ANTENNAS = 16


@dataclass(frozen=True)
class GscSpec:
    """One receiver's diversity configuration: combine the ``combined``
    strongest of ``antennas`` branches with mean branch power ``omega``."""

    antennas: int
    combined: int
    omega: float

    def __post_init__(self):
        for name in ("antennas", "combined"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if not 1 <= self.combined <= self.antennas:
            raise ValueError(
                f"need 1 <= combined <= antennas, got n={self.combined}, N={self.antennas}"
            )
        if self.antennas > MAX_ANTENNAS:
            raise ValueError(
                f"antennas={self.antennas} exceeds the supported maximum "
                f"{MAX_ANTENNAS} (the largest N its laws are checked at)"
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


# Term lists are built once per spec and read on every density call; a
# few hundred covers every spec a sweep or a figure visits.
_TABLE_CACHE = 256


@functools.lru_cache(maxsize=_TABLE_CACHE)
def _gsc_terms(spec: GscSpec) -> tuple[float, tuple]:
    """The order-statistics density as gamma kernels, (scale, ((a, m, lam),
    ...)) with density = scale * sum a * x**m * exp(-lam * x), scale C(N, n).

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
            terms.append((-coeff * (-l / (n * omega)) ** m / math.factorial(m), m, 1.0 / omega))
    return float(math.comb(N, n)), tuple(terms)


def _density(terms: tuple[float, tuple], x: float) -> float:
    """scale * sum a * x**m * exp(-lam * x), summed exactly (math.fsum).
    x**0 is exactly 1.0 and a * 1.0 is a, so m = 0 skips both; a term
    whose exp(-lam * x) underflows is 0 and is skipped before x**m can
    overflow."""
    scale, kernels = terms
    return scale * math.fsum(
        [a * x**m * e if m else a * e for a, m, lam in kernels for e in (math.exp(-lam * x),) if e]
    )


def _pointwise(name: str, x, values):
    """``values(nodes)`` over ``x``, a float or a 1-D array: a float for a
    float, an array for an array.  DomainError unless every x is finite
    and >= 0 (a NaN fails both comparisons)."""
    nodes = np.asarray(x, dtype=float)
    if not (0 <= nodes.min(initial=math.inf) and nodes.max(initial=0.0) < math.inf):
        raise DomainError(f"{name} requires finite x >= 0, got {x}")
    if nodes.ndim:
        return values(nodes)
    return float(values(nodes.reshape(1))[0])


# ``gsc_pdf`` sums the series of a law with at most this many terms,
# 1 + (N - n) * n, and reads every longer law from ``_receiver``: the
# series grows with its terms and cancels, the mixture does neither.  The
# cut keeps every N <= 4 law, every law of the paper's figures, on the
# series, with the values the frozen benchmark references hold.
_SERIES_TERMS_MAX = 5


def gsc_pdf(spec: GscSpec, x):
    """Density of the combined channel power at ``x`` (a float or a 1-D
    array): ``_density`` at each node for a short law (every N <= 4 law,
    every n = N law, (5, 1) and (5, 4)), otherwise ``_receiver``'s
    density alone, which no cancellation reaches.  Far in the tail, where
    every kernel's exp(-lam * x) underflows, it is 0.  A short law's node
    where the series overflows, in omega**n as its terms are formed or in
    x**m, reads ``_receiver``, which forms neither."""
    N, n = spec.antennas, spec.combined

    def mixture(xs):
        return _receiver(N, n, spec.omega, xs, survival=False)[0]

    if 1 + (N - n) * n > _SERIES_TERMS_MAX:
        return _pointwise("gsc_pdf", x, mixture)

    def node(v):
        try:
            return _density(_gsc_terms(spec), v)
        except OverflowError:
            return float(mixture(np.array([v]))[0])

    def series(xs):
        nodes = xs.tolist()
        try:
            t = _gsc_terms(spec)
            return np.array([_density(t, v) for v in nodes])
        except OverflowError:
            return np.array([node(v) for v in nodes])

    return _pointwise("gsc_pdf", x, series)


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


def _receiver(antennas: int, combined: int, omega, x: np.ndarray, survival: bool = True):
    """(density, survival) of the n strongest of N branches at the nodes
    ``x``, free of cancellation; the survival is None unless asked for.
    ``omega`` is a float, or a column of omegas that broadcasts against
    ``x`` to one row of nodes per receiver, so that one call serves
    receivers of the same (N, n).  For n = 1, with
    e = exp(-x/omega), the best-of-N law: (N/omega) * e * (1 - e)**(N-1)
    and 1 - (1 - e)**N = -expm1(N * log1p(-e)), which is 1 at x = 0,
    where log1p(-1) = -inf.

    Otherwise, with y = x/scale and the Poisson terms t_j = exp(-y) *
    y**j/j!, the mixture's density is sum_k w_k * t_(N-1+k)/scale and its
    survival sum_k w_k * sum_(j<N+k) t_j = sum_j survival[j] * t_j: one
    row of terms per node, summed row by row, so that a node's values do
    not depend on the other nodes.
    """
    N, n = antennas, combined
    if n == 1:
        u = x / omega
        e = np.exp(-u)
        density = N / omega * e * (-np.expm1(-u)) ** (N - 1)
        if not survival:
            return density, None
        with np.errstate(divide="ignore"):
            return density, -np.expm1(N * np.log1p(-e))
    m = _mixture(N, n)
    scale = omega * n / N
    y = x / scale
    e = np.exp(-y)
    # past y = 745 exp(-y) underflows; there every t_j with j < N + K
    # (K <= 343 terms for N <= 16) is below 1e-55, far under the weight
    # the mixture leaves out, and the row is zero
    t = np.where(e == 0.0, 0.0, y)[..., None] / m.divisors
    t[..., 0] = e
    np.multiply.accumulate(t, axis=-1, out=t)
    density = np.add.reduce(m.weights * t[..., N - 1 :], axis=-1) / scale
    return density, np.add.reduce(m.survival * t, axis=-1) if survival else None


def gsc_cdf(spec: GscSpec, x: float) -> float:
    """Distribution function: (1 - exp(-x/omega))**N for n = 1, otherwise
    the mixture's sum_k w_k * P(N + k, x/scale) with P the regularized
    lower incomplete gamma; a sum of positive terms either way."""
    if not 0 <= x < math.inf:
        raise DomainError(f"gsc_cdf requires finite x >= 0, got {x}")
    N, n = spec.antennas, spec.combined
    if n == 1:
        return (-math.expm1(-x / spec.omega)) ** N
    m = _mixture(N, n)
    shapes = N + np.arange(len(m.weights))
    return float(m.weights.dot(special.gammainc(shapes, x / (spec.omega * n / N))))


def _min_pdf(name: str, pair: UserPairSpec, x):
    """Density f_s * S_w + f_w * S_s of min(g_s, g_w) at ``x`` (a float
    or a 1-D array) over each receiver's density and survival from
    ``_receiver``: positive terms, free of cancellation at any N.  When
    the receivers have the same (N, n), one call evaluates both, the
    strong receiver's row of nodes and the weak one's, each at its own
    omega; otherwise each receiver takes its own call."""
    s, w = pair.strong, pair.weak
    shape = (s.antennas, s.combined)

    def values(nodes):
        if shape == (w.antennas, w.combined):
            (f_s, f_w), (s_s, s_w) = _receiver(*shape, np.array([[s.omega], [w.omega]]), nodes)
        else:
            f_s, s_s = _receiver(*shape, s.omega, nodes)
            f_w, s_w = _receiver(w.antennas, w.combined, w.omega, nodes)
        return f_s * s_w + f_w * s_s

    return _pointwise(name, x, values)


def min_pdf_sc(pair: UserPairSpec, x):
    """Density of min(g_s, g_w) when both receivers select one branch."""
    if not pair.is_sc:
        raise ValueError("min_pdf_sc requires single-branch selection on both sides")
    return _min_pdf("min_pdf_sc", pair, x)


def min_pdf_mrc(pair: UserPairSpec, x):
    """Density of min(g_s, g_w) when both receivers combine all branches."""
    if not pair.is_mrc:
        raise ValueError("min_pdf_mrc requires full combining on both sides")
    return _min_pdf("min_pdf_mrc", pair, x)


def min_pdf_general(pair: UserPairSpec, x):
    """Density of min(g_s, g_w) for arbitrary combining on either side."""
    return _min_pdf("min_pdf_general", pair, x)


def min_density(pair: UserPairSpec):
    """The density function of min(g_s, g_w) for the pair's case:
    ``min_pdf_sc`` when both receivers select one branch, ``min_pdf_mrc``
    when both combine all branches, otherwise ``min_pdf_general``; each
    name is read from this module when called.  All three compute
    ``_min_pdf``."""
    if pair.is_sc:
        return min_pdf_sc
    if pair.is_mrc:
        return min_pdf_mrc
    return min_pdf_general


def gsc_mellin(spec: GscSpec, s: float) -> float:
    """Mellin transform E[g^s] of the combined power, for finite s > -N.

    s = 1 and s = 2 give the raw moments; s = -nu gives the high-SNR
    expectation E[g^-nu].  Over the mixture it is
    scale**s * sum_k w_k * Gamma(N + k + s)/Gamma(N + k), a sum of
    positive terms, finite wherever E[g^s] is: the density is of order
    x**(N-1) at 0.
    """
    N, n = spec.antennas, spec.combined
    if not -N < s < math.inf:
        raise DomainError(f"gsc_mellin requires finite s > -N = {-N}, got {s}")
    w = _mixture(N, n).weights
    return (spec.omega * n / N) ** s * float(w.dot(special.poch(N + np.arange(len(w)), s)))


# Below this |s|, ln poch(a, s) = ln Gamma(a + s) - ln Gamma(a) is summed
# from its Taylor series s * psi(a) + sum_(j>=2) (-s)**j * zeta(j, a)/j
# (Hurwitz zeta).  For a >= 1 term j is at most zeta(j) * |s|**j/j, so the
# terms after _TAYLOR_TERMS are under 1e-16 of the sum; above the cut
# ln(poch) loses nothing to cancellation.
_SMALL_S = 0.05
_TAYLOR_TERMS = 12


def _log_mellin(spec: GscSpec, s: float) -> float:
    """ln E[g^s], for finite s > -N (``gsc_mellin``'s domain), with full
    relative precision as s -> 0 (the high-SNR EC divides it by s).

    With the mixture's weights normalized to a law, E[g^s] = scale**s *
    (1 + sum_k w_k * expm1(ln poch(N + k, s))): each term is formed from
    ln poch, never from poch - 1, and the rounding of the weights' sum
    does not enter, so ln E[g^s] = s * ln(scale) + log1p(...) is O(s)
    with no O(eps) floor.
    """
    N, n = spec.antennas, spec.combined
    w = _mixture(N, n).weights
    shapes = N + np.arange(len(w), dtype=float)
    if abs(s) < _SMALL_S:
        # the smallest terms first
        j = np.arange(_TAYLOR_TERMS, 1, -1)[:, None]
        log_poch = np.sum((-s) ** j / j * special.zeta(j, shapes), axis=0) + s * special.digamma(shapes)
    else:
        log_poch = np.log(special.poch(shapes, s))
    return s * math.log(spec.omega * n / N) + math.log1p(float((w / w.sum()).dot(np.expm1(log_poch))))


def gsc_moments(spec: GscSpec) -> tuple[float, float]:
    """(mean, second raw moment) of the combined channel power: the Mellin
    transform at s = 1 and s = 2."""
    return gsc_mellin(spec, 1), gsc_mellin(spec, 2)


def min_moments(pair: UserPairSpec) -> tuple[float, float]:
    """(mean, second raw moment) of min(g_s, g_w), by quadrature over
    ``min_density``; both run in one ``numerics.reuse_densities`` block,
    so they share their density values."""
    density = min_density(pair)
    terms = (lambda v: lambda x: x * v[x], lambda v: lambda x: x * x * v[x])
    with reuse_densities():
        return tuple(expectation(term, density, pair).value for term in terms)
