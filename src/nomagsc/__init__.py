"""Effective-capacity toolkit for two-user downlink NOMA with GSC receivers."""

from .capacity import (
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
)
from .distributions import GscSpec, UserPairSpec
from .montecarlo import Estimate, SimPlan
from .numerics import (
    DomainError,
    IntegrationError,
    QuadratureResult,
    integrate_semi_infinite,
)
from .optimizer import OptimizeResult, SearchSpec, optimize_power

__version__ = "0.1.0"
