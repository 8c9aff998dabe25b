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
function.  A density is called as ``density(law, x)`` with x a float or
a 1-D array of nodes, and returns a float or an array.  QUADPACK asks
for its nodes 15 at a time, the centre of an interval first; a missing
value at a centre is computed with the interval's other 14 nodes
(``_kronrod_block``) in one density call, any other missing value in a
one-node call.  Inside a ``reuse_densities`` block each density value is
computed once, for callers that integrate many times over the same laws:
a sweep, one ``capacity.exact_cases`` call, a power search and the
``optimize`` command each run in one block.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass

import numpy as np
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


# The positive abscissae of the 15-point Kronrod rule on [-1, 1], in the
# order QUADPACK's QK15I requests them (Piessens et al. 1983).
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
# Significant bits a centre of QAGI's bisection may have: the centre of
# an interval of half-length h is c = (2k + 1) * h, so this admits every
# interval with h >= c * 2**-40; a deeper one is read node by node.
_CENTRE_BITS = 40


def _kronrod_block(x):
    """The 15 nodes x, in QUADPACK's order, of the QAGI interval whose
    centre maps to ``x``, or None when ``x`` is no such centre.

    QAGI integrates over t = 1/(1 + x) on (0, 1]: it bisects (0, 1) into
    dyadic intervals [c - h, c + h] and asks for f at the centre first,
    then at c -/+ h * xgk for each abscissa, each node at x = (1 - t)/t.
    A centre has few significant bits and h is its lowest set bit, so
    rounding 1/(1 + x) to ``_CENTRE_BITS`` bits recovers c; the match is
    checked by recomputing (1 - c)/c.
    """
    if not 0.0 < x < math.inf:
        return None
    m, e = math.frexp(1.0 / (1.0 + x))
    k = round(m * 2**_CENTRE_BITS)
    c = math.ldexp(k, e - _CENTRE_BITS)
    h = math.ldexp(k & -k, e - _CENTRE_BITS)
    if c + h > 1.0 or (1.0 - c) / c != x:
        return None
    nodes = [x]
    for xgk in _XGK:
        for t in (c - h * xgk, c + h * xgk):
            nodes.append((1.0 - t) / t)
    return nodes


class _Values(dict):
    """{x: density(law, x)} of one law; a value missing on first read is
    computed and kept.  A miss at the centre of a QAGI interval computes
    the interval's 15 nodes in one density call over an array; any other
    miss is a one-node call.  A failing density call keeps nothing."""

    def __init__(self, density, law):
        super().__init__()
        self.density = density
        self.law = law

    def __missing__(self, x):
        nodes = _kronrod_block(x)
        if nodes is None:
            value = self[x] = self.density(self.law, x)
            return value
        self.update(zip(nodes, self.density(self.law, np.array(nodes)).tolist()))
        return self[x]


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
    their density values.  The store fills one QAGI interval, 15 nodes,
    per density call over an array; a node's value is the one a call with
    that node alone gives.  A block opened inside another joins the outer
    block's store, and the store is dropped when the outermost block
    ends.
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
    ``reuse_densities`` block, in a fresh one otherwise.  ``density``
    takes x as a float or a 1-D array: a miss at the centre of a QAGI
    interval computes its 15 nodes in one call over an array, any other
    miss one node with a float."""
    store = _DENSITIES.get()
    values = _Values(density, law)
    if store is not None:
        values = store.setdefault((density, law), values)
    return integrate_semi_infinite(term(values))
