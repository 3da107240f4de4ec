"""Independent oracles used by the tests.

Each oracle deliberately avoids the code path it is meant to check: the
plain-float Bessel series below checks the package's compensated series,
and the cell-partitioned triple-product oracle checks the Legendre-function
closed forms of the kernel through nothing but Bessel evaluations and
elementary quadrature.
"""

import math

import numpy as np

from gfkernel._backend import core

_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)


def bessel_series_oracle(nu: float, x: float, nterms: int = 60) -> float:
    """J_nu(x) by the raw power series in plain floats.

    Only trustworthy where the series does not cancel (x up to ~5); that is
    exactly where it serves as an independent reference.
    """
    half = 0.5 * x
    term = half ** nu / math.gamma(nu + 1.0)
    total = term
    q = -half * half
    for n in range(1, nterms):
        term *= q / (n * (nu + n))
        total += term
    return total


def legendre_poly_oracle(n: int, t: float) -> float:
    """P_n(t) by the plain recurrence."""
    if n == 0:
        return 1.0
    pm1, p = 1.0, t
    for j in range(1, n):
        pm1, p = p, ((2 * j + 1) * t * p - j * pm1) / (j + 1)
    return p


def gegenbauer_series_oracle(n: int, mu: float, t: float) -> float:
    """C_n^mu(t) from the explicit finite sum over k."""
    total = 0.0
    for k in range(n // 2 + 1):
        total += ((-1) ** k * math.gamma(mu + n - k) / (math.gamma(mu)
                  * math.factorial(k) * math.factorial(n - 2 * k))
                  * (2.0 * t) ** (n - 2 * k))
    return total


def triple_bessel_oracle(mu: float, nu: float, x: float, y: float, z: float,
                         max_cells: int = 260) -> float:
    """∫_0^inf J_nu(xt) J_nu(yt) J_mu(zt) t^(1-mu) dt.

    Partition at the zeros of J_mu(zt), integrate cells with Gauss-Legendre,
    Euler-average the partial sums, then average those estimates over the
    residual beat (the integrand carries several incommensurate
    frequencies).  Good to roughly 1e-6 absolute at these parameters.
    """
    from gfkernel.quadrature import _ladder_to

    def g(t):
        return (core.bessel_j(nu, x * t) * core.bessel_j(nu, y * t)
                * core.bessel_j(mu, z * t) * t ** (1.0 - mu))

    def cell(a, b):
        c0 = 0.5 * (b - a)
        c1 = 0.5 * (b + a)
        return c0 * sum(w * g(c1 + c0 * xx) for xx, w in zip(_GL_X, _GL_W))

    zeros = _ladder_to(mu, max_cells)[:max_cells]
    sums = []
    total = 0.0
    last = 0.0
    for j0 in zeros:
        hi = j0 / z
        total += cell(last, hi)
        last = hi
        sums.append(total)

    def euler(window):
        arr = list(window)
        while len(arr) > 1:
            arr = [0.5 * (arr[i] + arr[i + 1]) for i in range(len(arr) - 1)]
        return arr[0]

    # the accelerated estimates still beat at the difference frequencies of
    # the triple product; a Hann-weighted mean suppresses the periodic rest
    ests = [euler(sums[i - 16:i]) for i in range(40, len(sums))]
    n = len(ests)
    wts = [1.0 - math.cos(2.0 * math.pi * (i + 0.5) / n) for i in range(n)]
    return sum(w * e for w, e in zip(wts, ests)) / sum(wts)
