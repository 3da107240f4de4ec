"""Gauss-Jacobi rules of the weight (1 - t^2)^alpha on [-1, 1], for
quadrature.integrate_gauss_jacobi.

The n-point rule of the weight (1 - t^2)^alpha comes from the monic
three-term recurrence p_{k+1} = t p_k - b_k p_{k-1} of its orthogonal
polynomials.  Its nodes are the eigenvalues of the Jacobi matrix
(Golub & Welsch, Math. Comp. 23, 1969), found in doubles by the QL
method.  One Newton step in 160-bit fixed point (Python integers) then
refines each node and gives its weight mu0 / K(t, t), K the
Christoffel-Darboux kernel, taken at the double node and moved to the
refined one by its logarithmic derivative there, p_n''/p_n' =
2 (alpha + 1) t / (1 - t^2).  Every node, its distances to -1 and 1 and
its weight are correctly rounded.
"""

from __future__ import annotations

import functools
import math

from .errors import ConvergenceError, DomainError

_P = 160                                  # fixed-point bits of the rules
_ONE = 1 << _P
_SQRT_PI = (177245385090551602729816748334114518279754946 << _P) // 10 ** 44   # 45 digits
# ln(Gamma(y + 1/2) / Gamma(y)) = (1/2) ln y + sum_m c_m y^(1-2m), with
# c_m = (2^(1-2m) - 2) B_2m / (2m (2m - 1)); past y = 20 the ninth term is
# below 1e-22
_HALF_GAMMA_RATIO = ((-1, 8), (1, 192), (-1, 640), (17, 14336), (-31, 18432),
                     (691, 180224), (-5461, 425984), (929569, 15728640))


def _fixed(num: int, den: int) -> int:
    return (num << _P) // den


def _jacobi_mass(num: int, den: int) -> int:
    """∫_{-1}^{1} (1 - t^2)^alpha dt = sqrt(pi) Gamma(alpha + 1) / Gamma(alpha + 3/2)
    in fixed point, alpha = num / den: Gamma(y) / Gamma(y + 1/2), y = alpha + 1,
    is shifted up to y >= 20 by Gamma(y + 1) = y Gamma(y), exactly, then
    summed from its asymptotic series."""
    y = num + den                         # alpha + 1 = y / den
    up = down = 1
    while y < 20 * den:
        up *= 2 * y + den                 # (y + 1/2) / y
        down *= 2 * y
        y += den
    inv = _fixed(den, y)
    inv2 = inv * inv >> _P
    s = 0
    for p, q in _HALF_GAMMA_RATIO:
        s += p * inv // q
        inv = inv * inv2 >> _P
    e = term = _ONE                       # exp(-s), |s| < 0.007
    for i in range(1, 40):
        term = (-term * s >> _P) // i
        if term == 0:
            break
        e += term
    return _SQRT_PI * up // down * e // math.isqrt(_fixed(y, den) << _P)


def _ql_eigenvalues(off: list[float]) -> list[float]:
    """Eigenvalues of the symmetric tridiagonal matrix with zero diagonal
    and off-diagonal `off`, by QL with implicit Wilkinson shifts."""
    n = len(off) + 1
    d = [0.0] * n
    e = list(off) + [0.0]
    for l in range(n):
        for _ in range(60):
            m = l
            while m < n - 1 and abs(e[m]) > 1e-17 * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == l:
                break
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            g = d[m] - d[l] + e[l] / (g + math.copysign(math.hypot(g, 1.0), g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f, b = s * e[i], c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:          # split: deflate and restart the sweep
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
        else:
            raise ConvergenceError(f"QL eigenvalue {l} of {n} did not converge")
    return d


@functools.lru_cache(maxsize=256, typed=True)
def gauss_jacobi_rule(n: int, alpha: float):
    """The n-point Gauss rule of the weight (1 - t^2)^alpha on [-1, 1].

    The rule is symmetric, so it is returned as its (n + 1) // 2 nodes
    t >= 0, in increasing t, each as (t, w, 1 + t, 1 - t); -t carries the
    same weight.  The cache is sized to hold the working set of a pass of
    compact-support checks (two rules for each distinct alpha), so that
    repeated passes build nothing.
    """
    if n < 1:
        raise DomainError(f"a Gauss rule needs n >= 1, got {n!r}")
    if not alpha > -1.0:
        raise DomainError(f"Jacobi weight exponent must be > -1, got {alpha!r}")
    num, den = alpha.as_integer_ratio()
    # c_k = 4 b_k = 4k (k + 2 alpha) / ((2k + 2 alpha)^2 - 1) for k >= 2, and
    # c_1 = 4 / (2 alpha + 3), whose general form is 0/0 at alpha = -1/2;
    # the recurrence runs on q_k = 2^k p_k, q_{k+1} = 2t q_k - c_k q_{k-1}
    c = [0] + [_fixed(4 * den, 2 * num + 3 * den) if k == 1 else
               _fixed(4 * k * (k * den + 2 * num) * den, (2 * k * den + 2 * num) ** 2 - den * den)
               for k in range(1, n)]
    scale = 2 * _jacobi_mass(num, den)    # w = 2 mu0 c_1 ... c_{n-1} / (q_n' q_{n-1} - q_{n-1}' q_n)
    for ck in c[1:]:
        scale = scale * ck >> _P
    nodes = sorted(_ql_eigenvalues([0.5 * math.sqrt(ck / _ONE) for ck in c[1:]]), reverse=True)
    upper = []
    for t in nodes[:(n + 1) // 2]:            # the upper half, middle node included
        T = int(math.ldexp(t, _P))
        q0, q1, d0, d1 = _ONE, 2 * T, 0, 2 * _ONE
        for k in range(1, n):
            q0, q1, d0, d1 = (q1, (2 * T * q1 - c[k] * q0) >> _P,
                              d1, 2 * q1 + ((2 * T * d1 - c[k] * d0) >> _P))
        delta = (q1 << _P) // d1              # node = T - delta
        w = (scale << _P) // ((d1 * q0 - d0 * q1) >> _P)
        shift = (2.0 * alpha + 2.0) * t / (1.0 - t * t) * (delta / _ONE)
        w += w * int(math.ldexp(shift, _P)) >> _P
        node = T - delta
        upper.append((node / _ONE, w / _ONE, (_ONE + node) / _ONE, (_ONE - node) / _ONE))
    if n % 2:
        upper[-1] = (0.0, upper[-1][1], 1.0, 1.0)      # the middle node is 0 exactly
    return tuple(upper[::-1])
