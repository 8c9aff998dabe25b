"""Integration primitive and the numerical error types.

The package's analytic evaluators are one-dimensional integrals over
[0, inf); ``integrate_semi_infinite`` evaluates them by adaptive
quadrature and raises ``IntegrationError`` when the result misses the
fixed tolerance contract: an error estimate at most
max(ABS_TOL, REL_TOL * |value|) within MAX_SUBDIVISIONS subintervals.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from scipy import integrate

REL_TOL = 1e-9
ABS_TOL = 1e-12
MAX_SUBDIVISIONS = 200


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the function."""


class IntegrationError(RuntimeError):
    """Adaptive quadrature failed to meet its tolerance contract."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    subdivisions_used: int


def integrate_semi_infinite(f) -> QuadratureResult:
    """Adaptive quadrature of ``f`` over [0, inf).

    Raises IntegrationError if the integrand produces a non-finite value
    or the error estimate cannot be brought below
    max(ABS_TOL, REL_TOL * |value|).
    """
    bad_x = []

    def checked(x):
        y = f(x)
        if not math.isfinite(y):
            bad_x.append(x)
            return 0.0
        return y

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, abserr, info = integrate.quad(
            checked,
            0.0,
            math.inf,
            epsabs=ABS_TOL,
            epsrel=REL_TOL,
            limit=MAX_SUBDIVISIONS,
            full_output=True,
        )[:3]
    if bad_x:
        raise IntegrationError(f"integrand returned a non-finite value at x={bad_x[0]}")
    if abserr > max(ABS_TOL, REL_TOL * abs(value)):
        raise IntegrationError(
            f"quadrature did not converge: value={value}, "
            f"error estimate={abserr} after {info['last']} subdivisions"
        )
    return QuadratureResult(value, abserr, info["last"])
