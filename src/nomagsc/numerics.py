"""Integration primitive, the upper incomplete gamma and the numerical
error types.

The package's analytic evaluators are one-dimensional integrals over
[0, inf); ``integrate_semi_infinite`` evaluates them by adaptive
quadrature and raises ``IntegrationError`` when the result misses its
tolerance contract.  ``upper_incomplete_gamma`` (and its exp-scaled
variant) accepts any real first argument, including negative and
non-integer ones.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the function."""


class IntegrationError(RuntimeError):
    """Adaptive quadrature failed to meet its tolerance contract."""


@dataclass(frozen=True)
class QuadratureSettings:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be > 0")
        if self.abs_tol < 0:
            raise ValueError("abs_tol must be >= 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    subdivisions_used: int


DEFAULT_SETTINGS = QuadratureSettings()


def integrate_semi_infinite(
    f, settings: QuadratureSettings = DEFAULT_SETTINGS
) -> QuadratureResult:
    """Adaptive quadrature of ``f`` over [0, inf).

    Raises IntegrationError if the integrand produces a non-finite value
    or the error estimate cannot be brought below
    max(abs_tol, rel_tol * |value|).
    """
    bad_x = []

    def checked(x):
        y = f(x)
        if not np.isfinite(y):
            bad_x.append(x)
            return 0.0
        return y

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, abserr, info = integrate.quad(
            checked,
            0.0,
            np.inf,
            epsabs=settings.abs_tol,
            epsrel=settings.rel_tol,
            limit=settings.max_subdivisions,
            full_output=True,
        )[:3]
    if bad_x:
        raise IntegrationError(f"integrand returned a non-finite value at x={bad_x[0]}")
    if abserr > max(settings.abs_tol, settings.rel_tol * abs(value)):
        raise IntegrationError(
            f"quadrature did not converge: value={value}, "
            f"error estimate={abserr} after {info['last']} subdivisions"
        )
    return QuadratureResult(value, abserr, info["last"])


def _upper_gamma_cf(a: float, x: float) -> float:
    """exp(x) * x**(-a) * Gamma(a, x) by continued fraction, reliable for
    x >= max(1, a + 1) and any real a.

    Modified Lentz iteration on
    Gamma(a, x) = exp(-x) * x**a / (x + 1 - a - 1*(1-a)/(x + 3 - a - ...)).
    """
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise IntegrationError(f"continued fraction for Gamma({a}, {x}) did not converge")


def upper_incomplete_gamma(a: float, x: float) -> float:
    """Upper incomplete gamma Gamma(a, x) = int_x^inf t^(a-1) e^(-t) dt.

    Supports any real ``a`` (including negative and non-integer values);
    requires ``x > 0``.
    """
    if not x > 0:
        raise DomainError(f"upper_incomplete_gamma requires x > 0, got x={x}")
    if x >= max(1.0, a + 1.0):
        if -x + a * math.log(x) < -745.0:
            # underflows double precision; the true value is < 5e-324
            return 0.0
        value = _upper_gamma_cf(a, x) * math.exp(-x + a * math.log(x))
    elif a > 0:
        value = special.gammaincc(a, x) * special.gamma(a)
    else:
        # x < 1 and a <= 0: downward recurrence
        # Gamma(b - 1, x) = (Gamma(b, x) - x**(b-1) * exp(-x)) / (b - 1),
        # started from Gamma(a + k, x) with a + k in (0, 1].  For x < 1 the
        # power term dominates each step, so the recurrence is stable.
        if a == math.floor(a):
            k = int(-a)
            g = special.exp1(x)  # Gamma(0, x)
            b = 0.0
        else:
            k = int(math.floor(-a)) + 1
            b = a + k
            g = special.gammaincc(b, x) * special.gamma(b)
        ex = math.exp(-x)
        for _ in range(k):
            b -= 1.0
            g = (g - x**b * ex) / b
        value = g
    if not math.isfinite(value):
        raise IntegrationError(
            f"upper_incomplete_gamma({a}, {x}) overflowed to {value}"
        )
    return value


def upper_incomplete_gamma_scaled(a: float, x: float) -> float:
    """exp(x) * Gamma(a, x), safe where exp(x) alone would overflow."""
    if not x > 0:
        raise DomainError(f"upper_incomplete_gamma_scaled requires x > 0, got x={x}")
    if x >= max(1.0, a + 1.0):
        value = _upper_gamma_cf(a, x) * x**a
    else:
        value = math.exp(x) * upper_incomplete_gamma(a, x)
    if not math.isfinite(value):
        raise IntegrationError(
            f"upper_incomplete_gamma_scaled({a}, {x}) overflowed to {value}"
        )
    return value
