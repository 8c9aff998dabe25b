"""Integration primitive, the expectation seam and the numerical error types.

The package's analytic evaluators are one-dimensional integrals over
[0, inf); ``integrate_semi_infinite`` evaluates them by adaptive
quadrature and raises ``IntegrationError`` when the result misses the
fixed tolerance contract: an error estimate at most
max(ABS_TOL, REL_TOL * |value|) within MAX_SUBDIVISIONS subintervals.
Every analytic expectation E[h(g)] over a channel-power law is one
``expectation`` call, the one place that integrates a density.  The
caller passes a term builder that turns the law's {x: density value}
dict into one integrand function, so each quadrature node runs two
Python frames: the finite check of ``integrate_semi_infinite`` and that
function.  Inside a ``reuse_densities`` block each density value is
computed once, for callers that integrate many times over the same laws:
a sweep, one ``capacity.exact_cases`` call and a power search
each run in one block.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
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

    # with full_output, quad returns its message instead of warning
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


class _Values(dict):
    """{x: density(law, x)} of one law; a value missing on first read is
    computed and kept.  A failing density call keeps nothing."""

    def __init__(self, density, law):
        super().__init__()
        self.density = density
        self.law = law

    def __missing__(self, x):
        value = self[x] = self.density(self.law, x)
        return value


# The density values of the outermost ``reuse_densities`` block: one
# ``_Values`` dict per (density, law) in a plain dict; None outside every
# block.
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


def expectation(term, density, law) -> QuadratureResult:
    """E[h(g)] for g with density ``density(law, x)`` on [0, inf), under
    the tolerance contract of ``integrate_semi_infinite``.

    ``term`` builds the integrand from the law's {x: density value} dict:
    ``term(values)`` is x -> h(x) * values[x], one Python function per
    quadrature node.  Reading ``values[x]`` computes a missing value and
    keeps it: in the store's dict of (density, law) inside a
    ``reuse_densities`` block, in a fresh one otherwise."""
    store = _DENSITIES.get()
    values = _Values(density, law)
    if store is not None:
        values = store.setdefault((density, law), values)
    return integrate_semi_infinite(term(values))
