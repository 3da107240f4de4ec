"""Integration engines for the three integral shapes that appear here:

* finite intervals whose integrand has algebraic endpoint singularities
  (tanh-sinh / double-exponential rule),
* semi-infinite tails with a known power-law decay (1/z substitution onto
  the singular-interval rule, with a decay-fit guard),
* semi-infinite Bessel-oscillatory integrals (partition at Bessel zeros,
  Euler-accelerate the alternating partial sums).

Engines hold no state between calls and are deterministic: identical inputs
and spec produce bit-identical results.  Integrands may return complex.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._backend import core
from .errors import ConvergenceError, DomainError

__all__ = [
    "QuadratureSpec",
    "IntegralResult",
    "integrate_singular_band",
    "integrate_power_tail",
    "integrate_bessel_oscillatory",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget knobs shared by all engines: absolute and
    relative tolerance, tanh-sinh refinement levels, and the zero cells and
    Euler terms of the oscillatory engine.  Immutable and picklable, so
    tv-sweep hands it to its worker processes as it is."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_levels: int = 12
    osc_max_zeros: int = 200
    accel_terms: int = 12

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise DomainError("quadrature tolerances must be positive")
        if self.max_levels < 4:
            raise DomainError("max_levels must be at least 4")
        if self.osc_max_zeros < 8:
            raise DomainError("osc_max_zeros must be at least 8")


DEFAULT_SPEC = QuadratureSpec()


@dataclass(frozen=True)
class IntegralResult:
    value: complex | float
    est_error: float
    evaluations: int
    truncation_bound: float = 0.0


# ---------------------------------------------------------------------------
# tanh-sinh rule on a finite interval
# ---------------------------------------------------------------------------
#
# Node map: x(t) = tanh((pi/2) sinh t).  For each node we also carry its
# distance to the endpoint computed cancellation-free as
# 1 - tanh(u) = 2 / (1 + e^(2u)); integrands with endpoint singularities
# receive these distances and never reconstruct them by subtraction.

_T_MAX = 5.5


@functools.cache
def _de_nodes(level: int):
    """Unit nodes for one refinement level: (|x|, weight, near-end distance).

    Level 0 holds the integer abscissas t = 0..T_MAX; level L > 0 holds the
    odd multiples of h = 2^-L.  Weights do not include h.  Each level is
    built once and shared, so callers must not modify it.
    """
    nodes = []
    if level == 0:
        ts = [float(k) for k in range(0, int(_T_MAX) + 1)]
    else:
        h = 0.5 ** level
        ts = []
        t = h
        while t <= _T_MAX:
            ts.append(t)
            t += 2.0 * h
    for t in ts:
        u = 0.5 * math.pi * math.sinh(t)
        if u > 350.0:
            continue
        e2u = math.exp(2.0 * u)
        sigma = 2.0 / (1.0 + e2u)  # 1 - tanh(u), exact form
        x = 1.0 - sigma
        w = 0.5 * math.pi * math.cosh(t) / math.cosh(u) ** 2
        if w == 0.0:
            continue
        nodes.append((x, w, sigma))
    return nodes


def integrate_singular_band2(f2, lo: float, hi: float,
                             spec: QuadratureSpec = DEFAULT_SPEC) -> IntegralResult:
    """Distance-aware tanh-sinh rule: f2(x, dist_lo, dist_hi).

    The engine never evaluates at the endpoints; nodes whose distance
    underflows are dropped (their weights are far below any tolerance).
    """
    if not lo < hi:
        raise DomainError(f"empty or inverted interval [{lo!r}, {hi!r}]")
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    evals = 0
    running = 0.0  # sum of w*f over every node of all levels so far (no h)
    total = 0.0
    prev_total = None
    for level in range(0, spec.max_levels + 1):
        h = 0.5 ** level
        new = 0.0
        for xu, wu, sigma in _de_nodes(level):
            d_near = half * sigma
            d_far = half * (1.0 + xu)
            if d_near <= 0.0:
                continue
            if xu == 0.0:
                new += wu * f2(mid, half, half)
                evals += 1
                continue
            # x may round onto an endpoint here; the distances never do,
            # and distance-aware integrands keep their accuracy from them.
            new += wu * f2(hi - d_near, d_far, d_near)
            new += wu * f2(lo + d_near, d_near, d_far)
            evals += 2
        running = running + new
        total = h * running
        if level >= 3 and prev_total is not None:
            diff = abs(total - prev_total)
            tol = max(spec.abs_tol, spec.rel_tol * abs(total))
            if diff <= tol:
                return IntegralResult(half * total, half * diff, evals)
        prev_total = total
    raise ConvergenceError(
        f"tanh-sinh rule did not converge in {spec.max_levels} levels on "
        f"[{lo!r}, {hi!r}]", partial=half * total)


def integrate_singular_band(f: Callable[[float], complex], lo: float, hi: float,
                            spec: QuadratureSpec = DEFAULT_SPEC) -> IntegralResult:
    """Tanh-sinh rule for ∫_lo^hi f; f is finite on the open interval.

    Nodes whose abscissa rounds onto an endpoint are dropped for this
    plain-integrand form, which caps the attainable accuracy near strong
    endpoint singularities around 1e-8; integrands that can use exact
    endpoint distances should go through integrate_singular_band2.
    """
    def f2(x, dl, dh):
        return f(x) if lo < x < hi else 0.0

    return integrate_singular_band2(f2, lo, hi, spec)


# ---------------------------------------------------------------------------
# power-decay tails
# ---------------------------------------------------------------------------


def _fit_tail_slope(f, lo: float):
    """Least-squares log-log slope of |f| over [lo, 10 lo].

    Returns (slope, "ok"), (None, "zero") for a negligible tail, or
    (None, "sign") when a zero crossing spoils the fit.
    """
    zs = [lo * 10.0 ** (0.25 * i) for i in range(5)]
    vals = [abs(f(z)) for z in zs]
    if max(vals) < 1e-250:
        return None, "zero"
    if min(vals) <= 0.0:
        return None, "sign"
    lx = [math.log(z) for z in zs]
    ly = [math.log(v) for v in vals]
    mx = sum(lx) / 5.0
    my = sum(ly) / 5.0
    sxx = sum((v - mx) ** 2 for v in lx)
    sxy = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    return sxy / sxx, "ok"


def integrate_power_tail(f: Callable[[float], complex], lo: float, decay_exponent: float,
                         spec: QuadratureSpec = DEFAULT_SPEC) -> IntegralResult:
    """∫_lo^∞ f for integrands decaying like z^p with p = decay_exponent < -1.

    The measured decay is checked against the promise before integrating;
    an integrand decaying slower than p + 1/2 is rejected.  The map u = 1/z
    carries the whole tail onto the singular-interval rule, so nothing is
    truncated and truncation_bound is 0.
    """
    if decay_exponent >= -1.0:
        raise DomainError(f"decay_exponent must be < -1, got {decay_exponent!r}")
    if lo <= 0.0:
        raise DomainError("power-tail lower limit must be positive")
    slope, status = _fit_tail_slope(f, lo)
    if status == "zero":
        return IntegralResult(0.0, 0.0, 5)
    if slope is not None and slope > decay_exponent + 0.5:
        raise ConvergenceError(
            f"tail decay slower than promised: fitted slope {slope:.3f} vs "
            f"exponent {decay_exponent!r}")

    def mapped(u, dl, dh):
        # sequential divisions: u*u may underflow even when f(1/u)/u^2 is finite
        val = f(1.0 / u)
        if val == 0.0:
            return 0.0
        return val / u / u

    res = integrate_singular_band2(mapped, 0.0, 1.0 / lo, spec)
    return IntegralResult(res.value, res.est_error, res.evaluations + 5, 0.0)


# ---------------------------------------------------------------------------
# Bessel-oscillatory semi-infinite integrals
# ---------------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_GL_X = tuple(float(v) for v in _GL_X)
_GL_W = tuple(float(v) for v in _GL_W)


def bessel_zeros(order: float, count: int, first: int = 1) -> list[float]:
    """`count` positive zeros of J_order from the `first`-th on: McMahon +
    Newton polish."""
    mu4 = 4.0 * order * order
    zeros: list[float] = []
    for k in range(first, first + count):
        beta = (k + 0.5 * order - 0.25) * math.pi
        e = 8.0 * beta
        x = beta - (mu4 - 1.0) / e - 4.0 * (mu4 - 1.0) * (7.0 * mu4 - 31.0) / (3.0 * e ** 3)
        for _ in range(2):
            j = core.bessel_j(order, x)
            jp = (order / x) * j - core.bessel_j(order + 1.0, x)
            if jp == 0.0:
                break
            step = j / jp
            if abs(step) > 1.0:
                step = math.copysign(1.0, step)
            x -= step
        if zeros and x <= zeros[-1] + 1e-9:
            x = zeros[-1] + math.pi  # safeguard: keep ladder monotone
        zeros.append(x)
    return zeros


def _euler_average(sums):
    """Iterated pairwise averaging of a list of partial sums."""
    arr = list(sums)
    while len(arr) > 1:
        arr = [0.5 * (arr[i] + arr[i + 1]) for i in range(len(arr) - 1)]
    return arr[0]


def _recent(f):
    """f of one argument with its last four values kept.  Tanh-sinh nodes
    crowd an endpoint until the argument rounds onto the same double while
    the node still moves, so a costly integrand is worth memoizing there;
    the few entries keep the memory flat however many nodes a rule takes."""
    return functools.lru_cache(maxsize=4)(f)


def integrate_bessel_oscillatory(g: Callable[[float], complex], order: float, freq: float,
                                 lo: float, spec: QuadratureSpec = DEFAULT_SPEC) -> IntegralResult:
    """∫_lo^∞ g(t) J_order(freq t) dt for smooth g of moderate variation.

    Cells run between consecutive zeros of the oscillatory factor; each cell
    uses a fixed Gauss-Legendre rule and the alternating partial sums are
    Euler-accelerated.  Failure to stabilize raises, with the best partial
    value attached to the exception.
    """
    if freq <= 0.0:
        raise DomainError("oscillatory frequency must be positive")
    if lo < 0.0:
        raise DomainError("oscillatory lower limit must be nonnegative")
    nzeros = spec.osc_max_zeros
    # start the ladder a few zeros below lo*freq (McMahon: j_k ~ (k + order/2
    # - 1/4) pi), so that zeros below the first cell are neither computed
    # nor counted against osc_max_zeros
    k0 = max(1, int(lo * freq / math.pi - 0.5 * order + 0.25) - 3)
    zeros = bessel_zeros(order, 32, k0)
    while k0 > 1 and zeros[0] >= lo * freq:
        k0 = max(1, k0 - 8)
        zeros = bessel_zeros(order, 32, k0)
    evals = 2 * 32

    def cell(a, b):
        nonlocal evals
        c0 = 0.5 * (b - a)
        c1 = 0.5 * (b + a)
        s = 0.0
        for x, w in zip(_GL_X, _GL_W):
            t = c1 + c0 * x
            s += w * g(t) * core.bessel_j(order, freq * t)
            evals += 1
        return c0 * s

    def head(a, b):
        # the stretch up to the first zero can span many widths of g when
        # the frequency is small; the adaptive rule handles the decay there
        nonlocal evals
        f = _recent(lambda t: g(t) * core.bessel_j(order, freq * t))
        res = integrate_singular_band2(lambda t, dl, dh: f(t), a, b, spec)
        evals += res.evaluations
        return res.value

    sums = []
    total = 0.0
    prev_est = None
    stable = 0
    idx = 0
    last_hi = lo
    first = True
    while idx < nzeros:
        if idx >= len(zeros):
            zeros.extend(bessel_zeros(order, min(len(zeros), nzeros + 1 - len(zeros)),
                                      k0 + len(zeros)))
            evals += 2 * (len(zeros) - idx)
        hi = zeros[idx] / freq
        idx += 1
        if hi <= last_hi * (1.0 + 1e-12) + 1e-300:
            continue
        # first segment: adaptive (g may decay across many scales before the
        # first zero, e.g. at small frequencies); later cells: fixed rule
        total = total + (head(last_hi, hi) if first else cell(last_hi, hi))
        first = False
        last_hi = hi
        sums.append(total)
        kwin = min(spec.accel_terms, len(sums))
        est = _euler_average(sums[-kwin:])
        if prev_est is not None:
            diff = abs(est - prev_est)
            tol = max(spec.abs_tol, spec.rel_tol * abs(est))
            if diff <= tol:
                stable += 1
                if stable >= 2 and len(sums) >= 4:
                    cell_mag = abs(sums[-1] - sums[-2])
                    err = diff + cell_mag * 0.5 ** kwin
                    return IntegralResult(est, err, evals)
            else:
                stable = 0
        prev_est = est
    raise ConvergenceError(
        f"oscillatory acceleration failed to stabilize within {nzeros} zeros",
        partial=prev_est)
