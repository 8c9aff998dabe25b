"""40-digit mpmath reference for the package's analytic quantities.

Each value comes from one of two independent routes, and a value that
both routes reach can be computed by both:

* The density route integrates the weight against the law's density
  with tanh-sinh quadrature (``mpmath.quad``) in u = ln x, cut at the
  integrand's own scales (the EC weight's 1/a and 1/(a nu), the law's
  omega).  A receiver's law is either the order-statistics series
  ("series"), an alternating sum that is summed at whatever working
  precision leaves its full digits, or, where one exists, its closed
  form ("closed": selection, n = 1, and maximal-ratio combining,
  n = N).  The weak user's law is min(g_s, g_w), with density
  f_s*S_w + f_w*S_s for every pair of receivers.
* The product route ("product") uses Renyi's representation
  g = omega * sum_i c_i E_i, with c = (1, ..., 1, n/(n+1), ..., n/N)
  (n ones) and E_i i.i.d. Exp(1).  Its Laplace transform
  E[exp(-t g)] = prod_i (1 + omega c_i t)^-1 is a product of positive
  terms, and E[(1 + a g)^-nu], E[ln(1 + a g)] and E[g^-s] are integrals
  of positive terms over it, taken in u = ln t.

The functions take the package's spec and profile types and read only
their float attributes, so the reference solves exactly the problem the
package is given.  They return mpmath numbers good to about ``DPS``
significant digits; ``digits`` lowers that for a quick check.
"""

import contextlib
import functools

import mpmath as mp

DPS = 40
# extra working digits of every quadrature
GUARD = 10
# widest piece, in u = ln x, that the density route integrates at once
_MAX_PIECE = 10


@contextlib.contextmanager
def digits(dps):
    """Compute to ``dps`` significant digits inside the block."""
    global DPS
    saved, DPS = DPS, dps
    try:
        yield
    finally:
        DPS = saved


def _work():
    return mp.workdps(DPS + GUARD)


def _drop():
    """What the quadratures neglect, relative to what they keep."""
    return mp.mpf(10) ** -(DPS + GUARD)


def _exactly(sums_at):
    """The sums of the term lists ``sums_at()`` builds, at a working
    precision where their cancellation leaves DPS + GUARD significant
    digits."""
    dps = DPS + GUARD + 20
    while True:
        with mp.workdps(dps):
            sums = sums_at()
            totals = [mp.fsum(terms) for terms in sums]
            margin = mp.mpf(10) ** (dps - DPS - GUARD)
            if all(mp.fsum(abs(t) for t in terms) <= abs(total) * margin for terms, total in zip(sums, totals)):
                return totals
        if dps > 20000:
            raise ArithmeticError("the series cancels beyond 20000 digits")
        dps *= 2


# --- receiver laws ------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _series_tables(spec, dps):
    """The order-statistics density and survival function as
    sum over rates lam of exp(-lam x) * sum_j c_j x**j, each a tuple of
    (lam, ((j, c_j), ...)), C(N, n) included, at ``dps`` digits.

    The density is the gamma-shaped head plus, for each l = 1..N-n
    discarded-branch term, an exponential at rate (1 + l/n)/omega and
    n - 1 polynomial terms at rate 1/omega, with alternating signs; a
    term a x**m exp(-lam x) integrates from x to infinity to
    a m!/lam**(m+1) exp(-lam x) sum_{j<=m} (lam x)**j / j!.
    """
    with mp.workdps(dps):
        N, n, w = spec.antennas, spec.combined, mp.mpf(spec.omega)
        scale = mp.binomial(N, n)
        terms = [(scale / (w**n * mp.factorial(n - 1)), n - 1, 1 / w)]
        for l in range(1, N - n + 1):
            coeff = scale * (-1) ** (n + l - 1) * mp.binomial(N - n, l) * (mp.mpf(n) / l) ** (n - 1) / w
            terms.append((coeff, 0, (1 + mp.mpf(l) / n) / w))
            for m in range(n - 1):
                terms.append((-coeff * (-l / (n * w)) ** m / mp.factorial(m), m, 1 / w))
        pdf, survival = {}, {}
        for a, m, lam in terms:
            pdf.setdefault(lam, []).append((m, a))
            for j in range(m + 1):
                c = a * mp.factorial(m) / (mp.factorial(j) * lam ** (m + 1 - j))
                survival.setdefault(lam, []).append((j, c))
        return tuple(
            tuple((lam, tuple(group)) for lam, group in table.items()) for table in (pdf, survival)
        )


def _series_sums(spec, x, parts):
    """The series' density (part 0) and survival function (part 1) at x."""

    def sums():
        tables = _series_tables(spec, mp.mp.dps)
        kernels = {lam: mp.exp(-lam * x) for lam, _ in tables[0]}
        return [[c * x**j * kernels[lam] for lam, group in tables[part] for j, c in group] for part in parts]

    return _exactly(sums)


def series_law(spec, x):
    """(density, P(g > x)) of the combined power at x, from the series."""
    return _series_sums(spec, x, (0, 1))


def series_pdf(spec, x):
    """Density of the combined power at x, summed from the series."""
    return _series_sums(spec, x, (0,))[0]


def series_distribution(spec, x):
    """P(g <= x) from the series, each term's integral over [0, x] a
    regularized lower incomplete gamma."""

    def sums():
        table = _series_tables(spec, mp.mp.dps)[0]
        return [
            [
                a * mp.factorial(m) / lam ** (m + 1) * mp.gammainc(m + 1, 0, lam * x, regularized=True)
                for lam, group in table
                for m, a in group
            ]
        ]

    return _exactly(sums)[0]


def closed_law(spec, x):
    """(density, P(g > x)) of the combined power at x for selection, where
    P(g <= x) = (1 - exp(-x/omega))**N, or full combining, a gamma law."""
    N, w = spec.antennas, mp.mpf(spec.omega)
    if spec.combined == 1:
        below = -mp.expm1(-x / w)
        return N / w * mp.exp(-x / w) * below ** (N - 1), -mp.expm1(N * mp.log1p(-mp.exp(-x / w)))
    if spec.combined == N:
        pdf = x ** (N - 1) * mp.exp(-x / w) / (mp.gamma(N) * w**N)
        return pdf, mp.gammainc(N, x / w, mp.inf, regularized=True)
    raise ValueError(f"no closed form for n={spec.combined} of N={N}")


_LAWS = {"series": series_law, "closed": closed_law}


# --- density route ------------------------------------------------------


def _scaled_quad(f, a, b):
    """mpmath.quad of f over [a, b], with f first scaled to order 1: the
    quadrature drops nodes below its working epsilon in absolute terms."""
    probes = [a, (a + b) / 2, b] if b != mp.inf else [a, 2 * a]
    norm = max(abs(f(t)) for t in probes)
    return mp.quad(lambda t: f(t) / norm, [a, b]) * norm if norm else mp.mpf(0)


def _density_integral(weight, pdf, scales, receivers):
    """Integral over (0, inf) of weight(x) * pdf(x).

    Above 10 * the largest omega it is taken in x.  Below, it is taken in
    u = ln x, in pieces that run down from there, cut at the logarithms of
    ``scales`` and of the receivers' omegas and no wider than _MAX_PIECE.
    The walk stops as soon as what is left below is negligible next to
    what it has summed: g <= x only if all N branches are <= x, so
    P(g <= x) <= (x/omega)**N, and for the weights used here (bounded by
    1, increasing, or x**s with -1 < s < 0 and N >= 2) the integral over
    (0, x) is at most 2 max(1, |weight(x)|) * sum over the receivers of
    (x/omega)**N.
    """
    omegas = [mp.mpf(r.omega) for r in receivers]
    top = mp.log(10 * max(omegas))
    cuts = sorted({mp.log(s) for s in list(scales) + omegas if mp.log(s) < top})

    def in_u(u):
        x = mp.exp(u)
        return weight(x) * pdf(x) * x

    def below(u):
        x = mp.exp(u)
        return 2 * max(1, abs(weight(x))) * mp.fsum((x / w) ** r.antennas for w, r in zip(omegas, receivers))

    total = _scaled_quad(lambda x: weight(x) * pdf(x), mp.exp(top), mp.inf)
    right = top
    while True:
        left = max([right - _MAX_PIECE] + [c for c in cuts if c < right])
        total += _scaled_quad(in_u, left, right)
        right = left
        if below(right) <= _drop() * abs(total):
            return total


def expectation(law, weight, scales=(), form="series"):
    """E[weight(g)] for one receiver's combined power g (``law`` a GscSpec)
    or for min(g_s, g_w) (``law`` a UserPairSpec), by the density route.

    ``scales`` are the points where the weight bends; ``form`` picks the
    series or the closed form of each receiver's law.
    """
    at = _LAWS[form]
    with _work():
        if hasattr(law, "strong"):
            s, w = law.strong, law.weak

            def pdf(x):
                (f_s, s_s), (f_w, s_w) = at(s, x), at(w, x)
                return f_s * s_w + f_w * s_s

            receivers = [s, w]
        elif form == "series":
            pdf, receivers = functools.partial(series_pdf, law), [law]
        else:
            pdf, receivers = (lambda x: at(law, x)[0]), [law]
        return _density_integral(weight, pdf, scales, receivers)


def distribution(spec, x):
    """P(g <= x) for the combined power g of ``spec``, from the series."""
    with _work():
        return series_distribution(spec, mp.mpf(x))


def density(spec, x):
    """The density of the combined power g of ``spec`` at x, from the series,
    or at the left end, where the series cancels to nothing, from its
    leading term.

    g is a sum of independent exponentials of means s_i = omega * c_i, so
    f(x) = x**(N-1) / ((N-1)! prod s_i) * E[exp(-x sum_i D_i/s_i)] with
    D ~ Dirichlet(1, ..., 1): the leading term is within x/min(s_i) of f
    relative, and exact at x = 0.
    """
    with _work():
        x = mp.mpf(x)
        scales = renyi_scales(spec)
        if x / min(scales) <= _drop():
            return x ** (spec.antennas - 1) / (mp.factorial(spec.antennas - 1) * mp.fprod(scales))
        return series_pdf(spec, x)


# --- product route ------------------------------------------------------


def renyi_scales(spec):
    """omega * c_i of Renyi's representation g = omega * sum_i c_i E_i."""
    N, n, w = spec.antennas, spec.combined, mp.mpf(spec.omega)
    return [w] * n + [w * n / i for i in range(n + 1, N + 1)]


def _peak_integral(log_f, bends):
    """Integral over the real line of exp(log_f(u)), for a unimodal
    (log-concave) log_f whose slope changes near the points ``bends``.

    The window runs from the mode out to where log_f has fallen by
    ln(1/_drop()) on each side.  It is cut at the bends inside it and at
    mode +- sigma * 2**k, with sigma the curvature width at the mode (at
    most 1), so that a peak far narrower than the distance between the
    bends is resolved without a fine grid.
    """
    lo, hi = min(bends) - 1, max(bends) + 1
    step = mp.mpf(1)
    while log_f(lo - step) > log_f(lo):
        lo, step = lo - step, 2 * step
    lo -= step
    step = mp.mpf(1)
    while log_f(hi + step) > log_f(hi):
        hi, step = hi + step, 2 * step
    hi += step
    # golden-section search for the mode
    ratio = (mp.sqrt(5) - 1) / 2
    a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    fa, fb = log_f(a), log_f(b)
    while hi - lo > mp.mpf(10) ** -8 * (1 + abs(lo)):
        if fa < fb:
            lo, a, fa = a, b, fb
            b = lo + ratio * (hi - lo)
            fb = log_f(b)
        else:
            hi, b, fb = b, a, fa
            a = hi - ratio * (hi - lo)
            fa = log_f(a)
    mode = (lo + hi) / 2
    peak = log_f(mode)
    h = mp.mpf(10) ** -6
    curvature = -(log_f(mode + h) - 2 * peak + log_f(mode - h)) / h**2
    # a flat top (the ergodic rate at high SNR) has no curvature scale
    sigma = min(1 / mp.sqrt(curvature), 1) if curvature > 0 else mp.mpf(1)
    floor = peak + mp.log(_drop())
    points = {mode}
    for side in (-1, 1):
        reach = sigma
        while True:
            points.add(mode + side * reach)
            if log_f(mode + side * reach) < floor:
                break
            reach *= 2
    left, right = min(points), max(points)
    points |= {u for u in bends if left < u < right}
    return mp.quad(lambda u: mp.exp(log_f(u) - peak), sorted(points)) * mp.exp(peak)


def _log_laplace(scales, t):
    """ln E[exp(-t g)] = -ln prod_i (1 + scale_i t), to an absolute error
    of the working epsilon (a relative one where it is small needs
    log1p term by term)."""
    return -mp.log(mp.fprod(1 + c * t for c in scales))


def inverse_power(spec, a, nu):
    """E[(1 + a g)^-nu] = Gamma(nu)^-1 int t^(nu-1) e^-t E[exp(-a t g)] dt."""
    with _work():
        a, nu = mp.mpf(a), mp.mpf(nu)
        scales = [a * c for c in renyi_scales(spec)]

        def log_f(u):
            t = mp.exp(u)
            return nu * u - t + _log_laplace(scales, t)

        bends = [-mp.log(c) for c in scales] + [mp.log(nu)]
        return _peak_integral(log_f, bends) / mp.gamma(nu)


def negative_moment(spec, s):
    """E[g^-s] = Gamma(s)^-1 int t^(s-1) E[exp(-t g)] dt, for 0 < s < N."""
    with _work():
        s = mp.mpf(s)
        scales = renyi_scales(spec)
        bends = [-mp.log(c) for c in scales]
        return _peak_integral(lambda u: s * u + _log_laplace(scales, mp.exp(u)), bends) / mp.gamma(s)


def log_mean(spec, a):
    """E[ln(1 + a g)] = int e^-t (1 - E[exp(-a t g)]) / t dt."""
    with _work():
        scales = [mp.mpf(a) * c for c in renyi_scales(spec)]

        def log_f(u):
            t = mp.exp(u)
            return -t + mp.log(-mp.expm1(-mp.fsum(mp.log1p(c * t) for c in scales)))

        bends = [-mp.log(c) for c in scales] + [mp.mpf(0)]
        return _peak_integral(log_f, bends)


# --- the package's quantities ---------------------------------------------


def _ec(inner, nu):
    return -mp.log(inner, 2) / nu


def ec_strong(pair, split, qos, snr, route="product"):
    """-(1/nu) log2 E[(1 + a_s rho g_s)^-nu], the strong user's EC."""
    with _work():
        nu, a = mp.mpf(qos.nu), mp.mpf(split.a_s) * mp.mpf(snr.rho)
        if route == "product":
            inner = inverse_power(pair.strong, a, nu)
        else:
            inner = expectation(pair.strong, lambda x: (1 + a * x) ** -nu, [1 / a, 1 / (a * nu)], route)
        return _ec(inner, nu)


def ec_oma(spec, qos, snr, route="product"):
    """-(1/nu) log2 E[(1 + rho g)^(-nu/2)], one user's EC under time-division OMA."""
    with _work():
        nu, rho = mp.mpf(qos.nu), mp.mpf(snr.rho)
        if route == "product":
            inner = inverse_power(spec, rho, nu / 2)
        else:
            inner = expectation(spec, lambda x: (1 + rho * x) ** (-nu / 2), [1 / rho, 2 / (rho * nu)], route)
        return _ec(inner, nu)


def _weak_sinr(split, snr):
    """The weak user's SINR as a function of min(g_s, g_w), and its bends."""
    a_s, a_w, rho = mp.mpf(split.a_s), mp.mpf(split.a_w), mp.mpf(snr.rho)
    return (lambda x: a_w * rho * x / (a_s * rho * x + 1)), [1 / (a_s * rho), 1 / (a_w * rho)]


def ec_weak(pair, split, qos, snr, route="series"):
    """-(1/nu) log2 E[(1 + SINR_w)^-nu], SINR_w = a_w rho m / (a_s rho m + 1)
    with m = min(g_s, g_w): the weak user's EC, by the density route."""
    with _work():
        nu = mp.mpf(qos.nu)
        sinr, scales = _weak_sinr(split, snr)
        inner = expectation(pair, lambda x: (1 + sinr(x)) ** -nu, scales + [scales[-1] / nu], route)
        return _ec(inner, nu)


def ergodic_strong(pair, split, snr, route="product"):
    """E[log2(1 + a_s rho g_s)], the strong user's ergodic rate."""
    with _work():
        a = mp.mpf(split.a_s) * mp.mpf(snr.rho)
        if route == "product":
            return log_mean(pair.strong, a) / mp.log(2)
        return expectation(pair.strong, lambda x: mp.log(1 + a * x, 2), [1 / a], route)


def ergodic_weak(pair, split, snr, route="series"):
    """E[log2(1 + SINR_w)], the weak user's ergodic rate, by the density route."""
    with _work():
        sinr, scales = _weak_sinr(split, snr)
        return expectation(pair, lambda x: mp.log(1 + sinr(x), 2), scales, route)


def mellin(spec, s, route="product"):
    """E[g^s] for -1 < s < 0."""
    with _work():
        if route == "product":
            return negative_moment(spec, -mp.mpf(s))
        return expectation(spec, lambda x: x ** mp.mpf(s), [], route)


def min_expectation(pair, b, p, route="series"):
    """E[(1 + b m)^-p] for m = min(g_s, g_w), by the density route."""
    with _work():
        b, p = mp.mpf(b), mp.mpf(p)
        return expectation(pair, lambda x: (1 + b * x) ** -p, [1 / b], route)
