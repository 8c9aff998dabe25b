"""Effective-capacity evaluators for two-user downlink NOMA and OMA.

The effective capacity of a symbol with post-combining SNR/SINR gamma is

    E = -(1/nu) * log2( E[ (1 + gamma)^(-nu) ] ),    nu = theta*T*B / ln 2.

Each quantity has one route.  The exact values are one-dimensional
integrals over the channel-power densities from
:mod:`nomagsc.distributions`, evaluated by adaptive quadrature under the
fixed tolerance contract of :mod:`nomagsc.numerics`: the strong user's
over the GSC density, the weak user's over the density of
min(g_s, g_w) in the form ``distributions.min_law`` picks.  The
high-SNR approximation uses the Mellin transform ``gsc_mellin``, the
low-SNR one the first two moments.  All rates are spectral efficiencies
in bits/s/Hz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import distributions as dist
from .distributions import GscSpec, UserPairSpec
from .numerics import IntegrationError, integrate_semi_infinite

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
        raise IntegrationError(f"inner EC expectation out of range: {value}")
    ec = -math.log2(value) / nu
    return max(ec, 0.0), error / (nu * math.log(2) * value)


def ec_strong(
    pair: UserPairSpec, split: PowerSplit, qos: QosProfile, snr: SnrPoint
) -> float:
    """EC of the strong user's symbol (decoded after interference removal)."""
    if qos.is_ergodic_limit:
        return ergodic_rate(pair, split, snr).e_strong
    nu, a = qos.nu, split.a_s * snr.rho
    r = integrate_semi_infinite(
        lambda x: (1.0 + a * x) ** -nu * dist.gsc_pdf(pair.strong, x)
    )
    return _ec_from_expectation(r.value, r.error_estimate, nu)[0]


def ec_weak(
    pair: UserPairSpec, split: PowerSplit, qos: QosProfile, snr: SnrPoint
) -> float:
    """EC of the weak user's symbol, decoded with the strong user's symbol
    as interference; its SINR is a function of min(g_s, g_w)."""
    if qos.is_ergodic_limit:
        return ergodic_rate(pair, split, snr).e_weak
    nu, rho = qos.nu, snr.rho
    a_s, a_w = split.a_s, split.a_w

    def integrand(x):
        sinr = a_w * rho * x / (a_s * rho * x + 1.0)
        return (1.0 + sinr) ** -nu * dist.min_pdf(pair, x)

    r = integrate_semi_infinite(integrand)
    return _ec_from_expectation(r.value, r.error_estimate, nu)[0]


def ec_oma(spec: GscSpec, qos: QosProfile, snr: SnrPoint) -> float:
    """EC of one user under time-division OMA (full power, half rate)."""
    if qos.is_ergodic_limit:
        return 0.5 * ergodic_rate_oma(spec, snr)
    nu, rho = qos.nu, snr.rho
    r = integrate_semi_infinite(
        lambda x: (1.0 + rho * x) ** (-nu / 2.0) * dist.gsc_pdf(spec, x)
    )
    return _ec_from_expectation(r.value, r.error_estimate, nu)[0]


def ec_high_snr(
    pair: UserPairSpec, split: PowerSplit, qos: QosProfile, snr: SnrPoint
) -> EcReport:
    """High-SNR closed-form approximation; requires nu < 1.

    The strong user's EC is log2(a_s rho) - log2(E[g^-nu]) / nu.  The weak
    user's EC saturates at log2(1 + a_w/a_s), independent of the delay
    exponent and its antenna count.
    """
    nu = qos.nu
    if nu >= 1.0:
        raise ValidityError(
            f"high-SNR approximation requires nu < 1, got nu = {nu:.4f}"
        )
    inner = dist.gsc_mellin(pair.strong, -nu)
    e_strong = math.log2(split.a_s * snr.rho) - math.log2(inner) / nu
    e_weak = math.log2(1.0 + split.a_w / split.a_s)
    return EcReport(max(e_strong, 0.0), e_weak, method="high_snr")


def ec_low_snr(
    pair: UserPairSpec, split: PowerSplit, qos: QosProfile, snr: SnrPoint
) -> EcReport:
    """Two-term low-SNR expansion E ~ rho*E' + 0.5*rho^2*E''.

    The derivative coefficients use the first two moments of the strong
    user's channel power and of min(g_s, g_w).
    """
    nu, rho = qos.nu, snr.rho
    a_s, a_w = split.a_s, split.a_w
    mg, mg2 = dist.gsc_moments(pair.strong)
    e1s = LOG2E * a_s * mg
    e2s = LOG2E * a_s**2 * (nu * mg**2 - (nu + 1.0) * mg2)
    mm, mm2 = dist.min_moments(pair)
    e1w = LOG2E * a_w * mm
    e2w = LOG2E * a_w * (
        nu * a_w * mm**2 - ((nu + 1.0) * a_w + 2.0 * a_s) * mm2
    )
    e_strong = rho * e1s + 0.5 * rho**2 * e2s
    e_weak = rho * e1w + 0.5 * rho**2 * e2w
    return EcReport(max(e_strong, 0.0), max(e_weak, 0.0), method="low_snr")


def ergodic_rate(pair: UserPairSpec, split: PowerSplit, snr: SnrPoint) -> EcReport:
    """Average achievable rates E[log2(1 + gamma)]; the Jensen upper bound
    on the EC at the same operating point, independent of theta."""
    rho = snr.rho
    a_s, a_w = split.a_s, split.a_w
    rs = integrate_semi_infinite(
        lambda x: math.log2(1.0 + a_s * rho * x) * dist.gsc_pdf(pair.strong, x)
    )
    # the general form for every pair: the SC/MRC closed forms round
    # differently and would move the ergodic values in their last digits
    rw = integrate_semi_infinite(
        lambda x: math.log2(1.0 + a_w * rho * x / (a_s * rho * x + 1.0))
        * dist.min_pdf_general(pair, x)
    )
    return EcReport(
        rs.value,
        rw.value,
        method="ergodic_bound",
        numeric_error=rs.error_estimate + rw.error_estimate,
    )


def ergodic_rate_oma(spec: GscSpec, snr: SnrPoint) -> float:
    """Full-rate ergodic capacity E[log2(1 + rho*g)] of one OMA user."""
    return integrate_semi_infinite(
        lambda x: math.log2(1.0 + snr.rho * x) * dist.gsc_pdf(spec, x)
    ).value


# EcReport.method of an exact NOMA report, per distributions.min_law
_NOMA_METHODS = {"sc": "sc_closed", "mrc": "mrc_closed", "general": "general_quadrature"}


def evaluate_noma(
    pair: UserPairSpec, split: PowerSplit, qos: QosProfile, snr: SnrPoint
) -> EcReport:
    """Exact NOMA EC report; ``method`` names the law of the minimum the
    weak user's EC was integrated over.  In the ergodic limit it is the
    ergodic bound's report, method "ergodic_bound"."""
    if qos.is_ergodic_limit:
        return ergodic_rate(pair, split, snr)
    es = ec_strong(pair, split, qos, snr)
    ew = ec_weak(pair, split, qos, snr)
    return EcReport(es, ew, method=_NOMA_METHODS[dist.min_law(pair)])


def evaluate_oma(pair: UserPairSpec, qos: QosProfile, snr: SnrPoint) -> EcReport:
    """OMA baseline: each user gets full power in its own time slot."""
    es = ec_oma(pair.strong, qos, snr)
    ew = ec_oma(pair.weak, qos, snr)
    return EcReport(es, ew, method="oma")
