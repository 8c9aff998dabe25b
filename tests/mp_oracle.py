"""30-digit mpmath reference for expectations over the GSC combined power.

The order-statistics series is summed in mpmath, where its alternating
terms lose no significant digits, and the expectation is a tanh-sinh
quadrature (``mpmath.quad``) instead of the package's QUADPACK route.
"""

import mpmath as mp


def _gsc_pdf(spec, x):
    N, n, w = spec.antennas, spec.combined, mp.mpf(spec.omega)
    total = x ** (n - 1) * mp.exp(-x / w) / (w**n * mp.factorial(n - 1))
    for l in range(1, N - n + 1):
        coeff = (-1) ** (n + l - 1) * mp.binomial(N - n, l) * (mp.mpf(n) / l) ** (n - 1) / w
        tail = mp.fsum((-l * x / (n * w)) ** m / mp.factorial(m) for m in range(n - 1))
        total += coeff * (mp.exp(-(1 + mp.mpf(l) / n) * x / w) - mp.exp(-x / w) * tail)
    return mp.binomial(N, n) * total


def expectation(spec, weight):
    """E[weight(g)] for the combined power g of ``spec``."""
    with mp.workdps(30):
        w = mp.mpf(spec.omega)
        return mp.quad(lambda x: weight(x) * _gsc_pdf(spec, x), [0, w, 10 * w, mp.inf])


def distribution(spec, x):
    """P(g <= x) for the combined power g of ``spec``."""
    with mp.workdps(30):
        return mp.quad(lambda t: _gsc_pdf(spec, t), [0, x])


def ec_strong(pair, split, qos, snr):
    """-(1/nu) log2 E[(1 + a_s rho g_s)^-nu], the strong user's EC."""
    with mp.workdps(30):
        nu, a = mp.mpf(qos.nu), mp.mpf(split.a_s * snr.rho)
        inner = expectation(pair.strong, lambda x: (1 + a * x) ** -nu)
        return float(-mp.log(inner, 2) / nu)


def ec_oma(spec, qos, snr):
    """-(1/nu) log2 E[(1 + rho g)^(-nu/2)], one user's EC under time-division OMA."""
    with mp.workdps(30):
        nu, rho = mp.mpf(qos.nu), mp.mpf(snr.rho)
        inner = expectation(spec, lambda x: (1 + rho * x) ** (-nu / 2))
        return float(-mp.log(inner, 2) / nu)
