"""Effective-capacity evaluators for two-user downlink NOMA and OMA.

The effective capacity of a symbol with post-combining SNR/SINR gamma is

    E = -(1/nu) * log2( E[ (1 + gamma)^(-nu) ] ),    nu = theta*T*B / ln 2.

Each per-symbol quantity is one (signal, share) row of ``QUANTITIES``,
the model the Monte Carlo side reads too: ``sinr`` gives its signal and
``term_key`` what its term reads at a (split, qos, snr) case.
``exact_cases`` integrates each distinct term once, as
``montecarlo.estimate_cases`` averages it, and the exact evaluators are
its views.  Each term is one ``numerics.expectation`` over a density read
from ``distributions`` at call time: the GSC density, or for the weak
user the law of min(g_s, g_w) that ``min_density`` picks, for an EC and
a rate alike.  Its integrand is one function of four shapes, a power or
log2 of 1 + c*x or of 1 + c*x/(d*x + 1), over the (c, d) coefficients
``sinr`` reads too, so the exact and the simulated terms compute the
same floats.  The high-SNR approximation uses the log of the Mellin
transform, ``distributions._log_mellin``, the low-SNR one the first two
moments.  All
rates are spectral efficiencies in bits/s/Hz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import distributions as dist
from .distributions import GscSpec, UserPairSpec
from .numerics import IntegrationError, QuadratureResult, expectation, reuse_densities

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
        if not 0 < self.block_length < math.inf or not 0 < self.bandwidth < math.inf:
            raise ValueError("block length and bandwidth must be finite and > 0")
        if not math.isfinite(self.nu):
            raise ValueError(f"nu = theta*T*B/ln 2 must be finite, got {self.nu}")

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


# quantity -> (signal, share), in the order ``validate`` reports them: the
# strong user's SINR a_s rho g_s, the weak user's through g_min or one OMA
# user's SNR rho g; the share of the resources is 1 for a NOMA EC, 1/2 for
# an OMA EC (full power over half the resources) and None for a rate.
QUANTITIES = {
    "ec_strong": ("strong", 1.0),
    "ec_weak": ("weak", 1.0),
    "ec_oma_strong": ("oma_strong", 0.5),
    "ec_oma_weak": ("oma_weak", 0.5),
    "ergodic_strong": ("strong", None),
    "ergodic_weak": ("weak", None),
}

Case = tuple[PowerSplit, QosProfile, SnrPoint]


def requested(quantities) -> list[str]:
    """``quantities`` in QUANTITIES order; ValueError on an unknown name."""
    unknown = set(quantities) - set(QUANTITIES)
    if unknown:
        raise ValueError(f"unknown quantities {sorted(unknown)}; expected {tuple(QUANTITIES)}")
    return [q for q in QUANTITIES if q in quantities]


def _coefficients(signal: str, a_s: float, rho: float) -> tuple[float, float | None]:
    """(c, d) of the SINR of ``signal``: c*g, or c*g / (d*g + 1) when d is
    not None, the weak user's, decoded with the strong user's symbol as
    interference."""
    if signal == "strong":
        return a_s * rho, None
    if signal == "weak":
        return (1.0 - a_s) * rho, a_s * rho
    return rho, None


def sinr(signal: str, a_s: float, rho: float, g):
    """The SINR of ``signal`` at channel power ``g`` (a float or an array)."""
    c, d = _coefficients(signal, a_s, rho)
    return c * g if d is None else c * g / (d * g + 1.0)


def term_key(quantity: str, split: PowerSplit | None, qos: QosProfile, snr: SnrPoint):
    """((a_s, rho, signal), exponent): everything the term of ``quantity``
    reads at a case.  An EC's term is (1 + signal)^-exponent with exponent
    share * nu; a rate's, and an EC's in the ergodic limit (theta -> 0,
    where nu vanishes), is log2(1 + signal), exponent None.  OMA does not
    read the split (a_s = 0)."""
    signal, share = QUANTITIES[quantity]
    a_s = split.a_s if signal in ("strong", "weak") else 0.0
    exponent = None if share is None or qos.is_ergodic_limit else share * qos.nu
    return (a_s, snr.rho, signal), exponent


def _law(pair: UserPairSpec, key) -> tuple:
    """(density, law) of the channel power the term of ``key`` reads: a
    receiver's GSC law, or the weak user's law of min(g_s, g_w) that
    ``min_density`` picks, whether the term is an EC's or a rate's."""
    (_, _, signal), _ = key
    if signal != "weak":
        return dist.gsc_pdf, pair.weak if signal == "oma_weak" else pair.strong
    return dist.min_density(pair), pair


def _expect(key, density, law) -> QuadratureResult:
    """E[term] of a ``term_key`` over ``density(law, x)``.  The integrand
    is one function per term, x -> term(sinr(x)) * values[x], with the
    SINR's ``_coefficients`` and the exponent bound in: the same float
    operations as ``sinr`` and the term, in one Python frame per node."""
    (a_s, rho, signal), exponent = key
    c, d = _coefficients(signal, a_s, rho)
    log2 = math.log2
    if exponent is None:
        if d is None:
            term = lambda v: lambda x: log2(1.0 + c * x) * v[x]
        else:
            term = lambda v: lambda x: log2(1.0 + c * x / (d * x + 1.0)) * v[x]
    else:
        e = -exponent
        if d is None:
            term = lambda v: lambda x: (1.0 + c * x) ** e * v[x]
        else:
            term = lambda v: lambda x: (1.0 + c * x / (d * x + 1.0)) ** e * v[x]
    return expectation(term, density, law)


def _finish(quantity: str, qos: QosProfile, result: QuadratureResult) -> float:
    """A quantity from its term's expectation, as ``montecarlo._finish`` from
    the mean; IntegrationError when an EC's expectation is not in (0, 1]."""
    share, value = QUANTITIES[quantity][1], result.value
    if share is None:
        return value
    if qos.is_ergodic_limit:
        return share * value
    if not 0 < value <= 1 + 1e-12:
        raise IntegrationError(f"inner EC expectation out of range: {value}")
    return max(-math.log2(value) / qos.nu, 0.0)


def exact_cases(pair: UserPairSpec, cases: list[Case], quantities=tuple(QUANTITIES)):
    """Exact ``quantities`` of ``pair``: one {quantity: value} dict per
    (split, qos, snr) case, in QUANTITIES order.  Cases share the
    expectation of each distinct (a_s, rho, signal, exponent), integrated
    once, and the call runs in one ``numerics.reuse_densities`` block, so
    its terms share their density values; terms finish in case, then
    QUANTITIES order, and the first failure raises."""
    wanted = requested(quantities)
    results: dict[tuple, QuadratureResult] = {}
    values = []
    with reuse_densities():
        for split, qos, snr in cases:
            values.append({})
            for q in wanted:
                key = term_key(q, split, qos, snr)
                if key not in results:
                    results[key] = _expect(key, *_law(pair, key))
                values[-1][q] = _finish(q, qos, results[key])
    return values


def ec_strong(
    pair: UserPairSpec, split: PowerSplit, qos: QosProfile, snr: SnrPoint
) -> float:
    """EC of the strong user's symbol (decoded after interference removal)."""
    return exact_cases(pair, [(split, qos, snr)], ("ec_strong",))[0]["ec_strong"]


def ec_weak(
    pair: UserPairSpec, split: PowerSplit, qos: QosProfile, snr: SnrPoint
) -> float:
    """EC of the weak user's symbol, decoded with the strong user's symbol
    as interference; its SINR is a function of min(g_s, g_w)."""
    return exact_cases(pair, [(split, qos, snr)], ("ec_weak",))[0]["ec_weak"]


def ec_oma(spec: GscSpec, qos: QosProfile, snr: SnrPoint) -> float:
    """EC of one user under time-division OMA (full power, half rate)."""
    key = term_key("ec_oma_strong", None, qos, snr)
    return _finish("ec_oma_strong", qos, _expect(key, dist.gsc_pdf, spec))


def ec_high_snr(
    pair: UserPairSpec, split: PowerSplit, qos: QosProfile, snr: SnrPoint
) -> EcReport:
    """High-SNR closed-form approximation; requires nu < 1 and theta at
    or above the ergodic cutoff (below it the EC is the ergodic rate).

    The strong user's EC is log2(a_s rho) - log2(E[g^-nu]) / nu, with
    ln E[g^-nu] = O(nu) formed in the log domain (``_log_mellin``), so
    the division by nu keeps its digits down to the cutoff.  The weak
    user's EC saturates at log2(1 + a_w/a_s), independent of the delay
    exponent and its antenna count.
    """
    nu = qos.nu
    if nu >= 1.0:
        raise ValidityError(
            f"high-SNR approximation requires nu < 1, got nu = {nu:.4f}"
        )
    if qos.is_ergodic_limit:
        raise ValidityError(
            f"high-SNR approximation requires theta >= {THETA_ERGODIC_CUTOFF:g}, got {qos.theta:g}"
        )
    e_strong = math.log2(split.a_s * snr.rho) - LOG2E * dist._log_mellin(pair.strong, -nu) / nu
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
    e_strong = rho * e1s + 0.5 * (rho * rho) * e2s
    e_weak = rho * e1w + 0.5 * (rho * rho) * e2w
    if not math.isfinite(e_strong) or not math.isfinite(e_weak):
        raise ValidityError(f"low-SNR expansion is not finite at nu = {nu:.4g}, rho = {rho:.4g}")
    return EcReport(max(e_strong, 0.0), max(e_weak, 0.0), method="low_snr")


def ergodic_rate(pair: UserPairSpec, split: PowerSplit, snr: SnrPoint) -> EcReport:
    """Average achievable rates E[log2(1 + gamma)]; the Jensen upper bound
    on the EC at the same operating point, independent of theta."""
    keys = [term_key(q, split, QosProfile(0.0), snr) for q in ("ergodic_strong", "ergodic_weak")]
    rs, rw = (_expect(key, *_law(pair, key)) for key in keys)
    return EcReport(rs.value, rw.value, "ergodic_bound", rs.error_estimate + rw.error_estimate)


def ergodic_rate_oma(spec: GscSpec, snr: SnrPoint) -> float:
    """Full-rate ergodic capacity E[log2(1 + rho*g)] of one OMA user."""
    return _expect(((0.0, snr.rho, "oma_strong"), None), dist.gsc_pdf, spec).value


def evaluate_noma(
    pair: UserPairSpec, split: PowerSplit, qos: QosProfile, snr: SnrPoint
) -> EcReport:
    """Exact NOMA EC report, method "exact".  In the ergodic limit it is
    the ergodic bound's report, method "ergodic_bound"."""
    if qos.is_ergodic_limit:
        return ergodic_rate(pair, split, snr)
    (ec,) = exact_cases(pair, [(split, qos, snr)], ("ec_strong", "ec_weak"))
    return EcReport(ec["ec_strong"], ec["ec_weak"], method="exact")


def evaluate_oma(pair: UserPairSpec, qos: QosProfile, snr: SnrPoint) -> EcReport:
    """OMA baseline: each user gets full power in its own time slot."""
    (oma,) = exact_cases(pair, [(None, qos, snr)], ("ec_oma_strong", "ec_oma_weak"))
    return EcReport(oma["ec_oma_strong"], oma["ec_oma_weak"], method="oma")
