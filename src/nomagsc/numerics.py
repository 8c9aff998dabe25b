"""Integration primitive, the expectation seam and the numerical error types.

The package's analytic evaluators are one-dimensional integrals over
[0, inf); ``integrate_semi_infinite`` evaluates them by adaptive
quadrature and raises ``IntegrationError`` when the result misses the
fixed tolerance contract: an error estimate at most
max(ABS_TOL, REL_TOL * |value|) within MAX_SUBDIVISIONS subintervals.
Every analytic expectation E[h(g)] over a channel-power law is one
``expectation`` call, the one place that integrates a density.  Inside a
``reuse_densities`` block it computes each density value once, for
callers that integrate many times over the same laws: a serial sweep,
one ``capacity.exact_cases`` call and a power search each run in one
block.
"""

from __future__ import annotations

import contextlib
import contextvars
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


# The density values of the outermost ``reuse_densities`` block: one
# {x: value} dict per (density, law); None outside every block.
_DENSITIES: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "_DENSITIES", default=None
)


@contextlib.contextmanager
def reuse_densities():
    """Inside the block, ``expectation`` computes each density at one
    (law, x) once and uses the stored value on every later call.

    QUADPACK's rule for [0, inf) evaluates every integral over one law on
    the same nodes, so expectations that share a law share nearly all
    their density values.  The values are exactly the computed ones.  A
    block opened inside another joins the outer block's store, and the
    store is dropped when the outermost block ends.
    """
    token = _DENSITIES.set({}) if _DENSITIES.get() is None else None
    try:
        yield
    finally:
        if token is not None:
            _DENSITIES.reset(token)


def expectation(h, density, law) -> QuadratureResult:
    """E[h(g)] for g with density ``density(law, x)`` on [0, inf), under
    the tolerance contract of ``integrate_semi_infinite``.  The density
    values are read through the {x: value} dict of (density, law), looked
    up once per call: the store's inside a ``reuse_densities`` block, a
    fresh one otherwise."""
    store = _DENSITIES.get()
    values = {} if store is None else store.setdefault((density, law), {})

    def integrand(x):
        try:
            value = values[x]
        except KeyError:
            value = values[x] = density(law, x)
        return h(x) * value

    return integrate_semi_infinite(integrand)
