"""Effective-capacity evaluators for two-user downlink NOMA and OMA.

The effective capacity of a symbol with post-combining SNR/SINR gamma is

    E = -(1/nu) * log2( E[ (1 + gamma)^(-nu) ] ),    nu = theta*T*B / ln 2.

All expectations are one-dimensional integrals over the channel-power
densities from :mod:`nomagsc.distributions` and are evaluated by adaptive
quadrature.  A series cross-check path for the strong user assembles the
same value from the density's term-by-term integrals, with the pure
exponential terms done in closed form via the upper incomplete gamma.
All rates are spectral efficiencies in bits/s/Hz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import distributions as dist
from .distributions import GscSpec, UserPairSpec
from .numerics import (
    DEFAULT_SETTINGS,
    QuadratureSettings,
    integrate_semi_infinite,
    upper_incomplete_gamma_scaled,
)

LOG2E = math.log2(math.e)

# Below this the EC expectation form is numerically indeterminate (0/0 at
# nu = 0); evaluators fall back to the ergodic rate, which is the exact
# theta -> 0 limit.
THETA_ERGODIC_CUTOFF = 1e-9


class ValidityError(ValueError):
    """An analytic approximation was requested outside its validity range."""


@dataclass(frozen=True)
class QosProfile:
    """Delay-QoS constraint: exponent theta over fading blocks of length
    ``block_length`` seconds and bandwidth ``bandwidth`` Hz."""

    theta: float
    block_length: float = 1e-5
    bandwidth: float = 1e5

    def __post_init__(self):
        if not 0 <= self.theta < math.inf:
            raise ValueError(f"theta must be finite and >= 0, got {self.theta}")
        if not self.block_length > 0 or not self.bandwidth > 0:
            raise ValueError("block length and bandwidth must be > 0")

    @property
    def nu(self) -> float:
        """Normalized delay exponent theta*T*B / ln 2."""
        return self.theta * self.block_length * self.bandwidth / math.log(2)

    @property
    def is_ergodic_limit(self) -> bool:
        return self.theta < THETA_ERGODIC_CUTOFF


@dataclass(frozen=True)
class PowerSplit:
    """NOMA power allocation; the strong user gets the smaller share."""

    a_s: float

    def __post_init__(self):
        if not 0 < self.a_s < 0.5:
            raise ValueError(f"a_s must be in (0, 0.5), got {self.a_s}")

    @property
    def a_w(self) -> float:
        return 1.0 - self.a_s


@dataclass(frozen=True)
class SnrPoint:
    """Linear transmit SNR rho = E/sigma^2."""

    rho: float

    def __post_init__(self):
        if not 0 < self.rho < math.inf:
            raise ValueError(f"rho must be finite and > 0, got {self.rho}")

    @classmethod
    def from_db(cls, rho_db: float) -> "SnrPoint":
        try:
            return cls(10.0 ** (rho_db / 10.0))
        except OverflowError:
            raise ValueError(f"rho must be finite, got {rho_db} dB") from None


@dataclass(frozen=True)
class EcReport:
    """Per-symbol effective capacities plus how they were computed."""

    e_strong: float
    e_weak: float
    method: str
    numeric_error: float = 0.0

    @property
    def e_sum(self) -> float:
        return self.e_strong + self.e_weak


def _ec_from_expectation(value: float, error: float, nu: float) -> tuple[float, float]:
    """Map the inner expectation to the EC and propagate the quadrature error."""
    if not 0 < value <= 1 + 1e-12:
        raise ValueError(f"inner EC expectation out of range: {value}")
    ec = -math.log2(value) / nu
    return max(ec, 0.0), error / (nu * math.log(2) * value)


def ec_strong(
    pair: UserPairSpec,
    split: PowerSplit,
    qos: QosProfile,
    snr: SnrPoint,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> float:
    """EC of the strong user's symbol (decoded after interference removal)."""
    if qos.is_ergodic_limit:
        return ergodic_rate(pair, split, snr, settings).e_strong
    nu, a = qos.nu, split.a_s * snr.rho
    r = integrate_semi_infinite(
        lambda x: (1.0 + a * x) ** -nu * dist.gsc_pdf(pair.strong, x), settings
    )
    return _ec_from_expectation(r.value, r.error_estimate, nu)[0]


def ec_strong_series(
    pair: UserPairSpec,
    split: PowerSplit,
    qos: QosProfile,
    snr: SnrPoint,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> float:
    """Cross-check route for the strong user's EC.

    Assembles the inner expectation from the density's term-by-term
    integrals: the gamma-shaped head and the polynomial tail corrections
    by quadrature, the pure exponential terms in closed form through the
    upper incomplete gamma with first argument 1 - nu.
    """
    if qos.is_ergodic_limit:
        return ergodic_rate(pair, split, snr, settings).e_strong
    spec = pair.strong
    N, n, omega = spec.antennas, spec.combined, spec.omega
    nu, a = qos.nu, split.a_s * snr.rho
    if nu == 1.0:
        raise ValidityError("series route is singular at nu = 1; use ec_strong")

    def weight(x: float) -> float:
        return (1.0 + a * x) ** -nu

    head = integrate_semi_infinite(
        lambda x: weight(x) * x ** (n - 1) * math.exp(-x / omega), settings
    ).value / (omega**n * math.factorial(n - 1))
    terms = [head]
    for l in range(1, N - n + 1):
        sign = (-1.0) ** (n + l - 1)
        coeff = sign * math.comb(N - n, l) * (n / l) ** (n - 1) / omega
        phi = (1.0 + l / n) / omega
        # int_0^inf (1 + a x)^-nu exp(-phi x) dx in closed form
        z = phi / a
        exp_term = z ** (nu - 1) / a * upper_incomplete_gamma_scaled(1.0 - nu, z)
        terms.append(coeff * exp_term)
        for m in range(n - 1):
            tail = integrate_semi_infinite(
                lambda x, m=m: weight(x) * x**m * math.exp(-x / omega), settings
            ).value
            terms.append(-coeff * (-l / (n * omega)) ** m / math.factorial(m) * tail)
    value = math.comb(N, n) * math.fsum(terms)
    return _ec_from_expectation(value, 0.0, nu)[0]


def _ec_weak_from_pdf(pdf, split, qos, snr, settings) -> float:
    nu, rho = qos.nu, snr.rho
    a_s, a_w = split.a_s, split.a_w

    def integrand(x):
        sinr = a_w * rho * x / (a_s * rho * x + 1.0)
        return (1.0 + sinr) ** -nu * pdf(x)

    r = integrate_semi_infinite(integrand, settings)
    return _ec_from_expectation(r.value, r.error_estimate, nu)[0]


def ec_weak_sc(
    pair: UserPairSpec,
    split: PowerSplit,
    qos: QosProfile,
    snr: SnrPoint,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> float:
    """EC of the weak user's symbol with single-branch selection on both sides."""
    if not pair.is_sc:
        raise ValueError("ec_weak_sc requires single-branch selection on both sides")
    if qos.is_ergodic_limit:
        return ergodic_rate(pair, split, snr, settings).e_weak
    return _ec_weak_from_pdf(
        lambda x: dist.min_pdf_sc(pair, x), split, qos, snr, settings
    )


def ec_weak_mrc(
    pair: UserPairSpec,
    split: PowerSplit,
    qos: QosProfile,
    snr: SnrPoint,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> float:
    """EC of the weak user's symbol with full combining on both sides."""
    if not pair.is_mrc:
        raise ValueError("ec_weak_mrc requires full combining on both sides")
    if qos.is_ergodic_limit:
        return ergodic_rate(pair, split, snr, settings).e_weak
    return _ec_weak_from_pdf(
        lambda x: dist.min_pdf_mrc(pair, x), split, qos, snr, settings
    )


def ec_weak_general(
    pair: UserPairSpec,
    split: PowerSplit,
    qos: QosProfile,
    snr: SnrPoint,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> float:
    """EC of the weak user's symbol for arbitrary combining configurations."""
    if qos.is_ergodic_limit:
        return ergodic_rate(pair, split, snr, settings).e_weak
    return _ec_weak_from_pdf(
        lambda x: dist.min_pdf_general(pair, x), split, qos, snr, settings
    )


def ec_oma(
    spec: GscSpec,
    qos: QosProfile,
    snr: SnrPoint,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> float:
    """EC of one user under time-division OMA (full power, half rate)."""
    if qos.is_ergodic_limit:
        return 0.5 * ergodic_rate_oma(spec, snr, settings)
    nu, rho = qos.nu, snr.rho
    r = integrate_semi_infinite(
        lambda x: (1.0 + rho * x) ** (-nu / 2.0) * dist.gsc_pdf(spec, x), settings
    )
    return _ec_from_expectation(r.value, r.error_estimate, nu)[0]


def ec_high_snr(
    pair: UserPairSpec, split: PowerSplit, qos: QosProfile, snr: SnrPoint
) -> EcReport:
    """High-SNR closed-form approximation; requires nu < 1.

    The weak user's EC saturates at log2(1 + a_w/a_s), independent of
    the delay exponent and its antenna count.
    """
    nu = qos.nu
    if nu >= 1.0:
        raise ValidityError(
            f"high-SNR approximation requires nu < 1, got nu = {nu:.4f}"
        )
    spec = pair.strong
    N, n, omega = spec.antennas, spec.combined, spec.omega
    terms = [math.gamma(n - nu) / (omega**nu * math.gamma(n))]
    for l in range(1, N - n + 1):
        sign = (-1.0) ** (n + l - 1)
        coeff = sign * math.comb(N - n, l) * (n / l) ** (n - 1) / omega
        phi = (1.0 + l / n) / omega
        terms.append(coeff * math.gamma(1.0 - nu) * phi ** (nu - 1.0))
        for m in range(n - 1):
            terms.append(
                -coeff
                * math.gamma(m - nu + 1.0)
                * omega ** (m - nu + 1.0)
                / math.factorial(m)
                * (-l / (n * omega)) ** m
            )
    inner = math.comb(N, n) * math.fsum(terms)
    e_strong = math.log2(split.a_s * snr.rho) - math.log2(inner) / nu
    e_weak = math.log2(1.0 + split.a_w / split.a_s)
    return EcReport(max(e_strong, 0.0), e_weak, method="high_snr")


def ec_low_snr(
    pair: UserPairSpec,
    split: PowerSplit,
    qos: QosProfile,
    snr: SnrPoint,
    mode: str = "auto",
) -> EcReport:
    """Two-term low-SNR expansion E ~ rho*E' + 0.5*rho^2*E''.

    The derivative coefficients use the first two moments of the channel
    powers; with ``mode='general'`` the minimum's moments come from
    quadrature instead of the SC/MRC closed forms.
    """
    mode = mode.lower()
    if mode == "auto":
        mode = "sc" if pair.is_sc else "mrc" if pair.is_mrc else "general"
    nu, rho = qos.nu, snr.rho
    a_s, a_w = split.a_s, split.a_w
    mg, mg2 = dist.gsc_moments(pair.strong)
    e1s = LOG2E * a_s * mg
    e2s = LOG2E * a_s**2 * (nu * mg**2 - (nu + 1.0) * mg2)
    mm, mm2 = dist.min_moments(pair, mode)
    e1w = LOG2E * a_w * mm
    e2w = LOG2E * a_w * (
        nu * a_w * mm**2 - ((nu + 1.0) * a_w + 2.0 * a_s) * mm2
    )
    e_strong = rho * e1s + 0.5 * rho**2 * e2s
    e_weak = rho * e1w + 0.5 * rho**2 * e2w
    return EcReport(max(e_strong, 0.0), max(e_weak, 0.0), method="low_snr")


def ergodic_rate(
    pair: UserPairSpec,
    split: PowerSplit,
    snr: SnrPoint,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> EcReport:
    """Average achievable rates E[log2(1 + gamma)]; the Jensen upper bound
    on the EC at the same operating point, independent of theta."""
    rho = snr.rho
    a_s, a_w = split.a_s, split.a_w
    rs = integrate_semi_infinite(
        lambda x: math.log2(1.0 + a_s * rho * x) * dist.gsc_pdf(pair.strong, x),
        settings,
    )
    rw = integrate_semi_infinite(
        lambda x: math.log2(1.0 + a_w * rho * x / (a_s * rho * x + 1.0))
        * dist.min_pdf_general(pair, x),
        settings,
    )
    return EcReport(
        rs.value,
        rw.value,
        method="ergodic_bound",
        numeric_error=rs.error_estimate + rw.error_estimate,
    )


def ergodic_rate_oma(
    spec: GscSpec, snr: SnrPoint, settings: QuadratureSettings = DEFAULT_SETTINGS
) -> float:
    """Full-rate ergodic capacity E[log2(1 + rho*g)] of one OMA user."""
    return integrate_semi_infinite(
        lambda x: math.log2(1.0 + snr.rho * x) * dist.gsc_pdf(spec, x), settings
    ).value


def evaluate_noma(
    pair: UserPairSpec,
    split: PowerSplit,
    qos: QosProfile,
    snr: SnrPoint,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> EcReport:
    """Exact NOMA EC report, routing the weak user through the cheapest
    density for the pair's combining configuration."""
    es = ec_strong(pair, split, qos, snr, settings)
    if pair.is_sc:
        ew, method = ec_weak_sc(pair, split, qos, snr, settings), "sc_closed"
    elif pair.is_mrc:
        ew, method = ec_weak_mrc(pair, split, qos, snr, settings), "mrc_closed"
    else:
        ew, method = (
            ec_weak_general(pair, split, qos, snr, settings),
            "general_quadrature",
        )
    return EcReport(es, ew, method=method)


def evaluate_oma(
    pair: UserPairSpec,
    qos: QosProfile,
    snr: SnrPoint,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> EcReport:
    """OMA baseline: each user gets full power in its own time slot."""
    es = ec_oma(pair.strong, qos, snr, settings)
    ew = ec_oma(pair.weak, qos, snr, settings)
    return EcReport(es, ew, method="oma")
