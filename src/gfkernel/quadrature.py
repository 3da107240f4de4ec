"""Integration engines for the three integral shapes that appear here:

* finite intervals whose integrand has algebraic endpoint singularities
  (tanh-sinh / double-exponential rule, on s = d^(1+p) when a stated edge
  power d^p is too strong for its nodes); when the integrand is exactly
  (d_lo d_hi)^p times a smooth factor, as the density's band is when 2/a
  is an integer, Gauss-Jacobi rules of the weight (1 - t^2)^p at n = 8, 12,
  16, 24, 32, 48, 64 nodes, stopped when two successive rules agree within
  1e-2 of the tolerance and handed to the tanh-sinh rule when n = 64 still
  disagrees,
* semi-infinite tails with a known power-law decay (1/z substitution onto
  the singular-interval rule, with a decay-fit guard),
* semi-infinite Bessel-oscillatory integrals (partition at Bessel zeros,
  extrapolate the partial integrals by Sidi's mW transformation).

Each tanh-sinh level visits its nodes from the middle outwards and stops
walking toward an end after two terms in a row that each add less than
2^-64 of the level's sum so far (Bailey, Jeyabalan & Li, Exp. Math. 14,
2005, stop summing once terms fall below working precision).  A dropped
term is about 2^-11 of half an ulp of that sum, so the level sums, the
values and the error estimates are the ones the full levels give, as long
as the terms keep falling past two quiet nodes.  They do for the d^p edges
the rule is promised; an exact zero continues a quiet run but does not
start one, so an integrand that vanishes on a stretch is walked through.

Engines are deterministic: identical inputs and spec produce bit-identical
results.  The one state they keep between calls is a bounded table of
Bessel zeros, which holds the values a call would compute.  Integrands may
return complex.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

from ._backend import core
from .errors import ConvergenceError, DomainError

__all__ = [
    "QuadratureSpec",
    "IntegralResult",
    "integrate_singular_band",
    "integrate_gauss_jacobi",
    "integrate_power_tail",
    "integrate_bessel_oscillatory",
]


class _QuadratureSpec(NamedTuple):
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_levels: int = 12


class QuadratureSpec(_QuadratureSpec):
    """Tolerances shared by all engines: absolute and relative tolerance,
    and the tanh-sinh refinement levels.  Immutable and picklable, so
    tv-sweep hands it to its worker processes as it is."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise DomainError("quadrature tolerances must be positive")
        if self.max_levels < 4:
            raise DomainError("max_levels must be at least 4")
        return self


DEFAULT_SPEC = QuadratureSpec()


class IntegralResult(NamedTuple):
    value: complex | float
    est_error: float
    evaluations: int


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


# Smallest endpoint distance of any node, as a fraction of the half-width:
# sigma at t = T_MAX, which level 1 reaches.  An integrand that grows like
# d^p at an end keeps about _SIGMA_MIN^(1+p) of its mass closer than that.
_SIGMA_MIN = min(sigma for _, _, sigma in _de_nodes(1))

# A term below _QUIET times its level's sum so far is about 2^-11 of half an
# ulp of that sum; two in a row stop the level's walk toward that end.
# 2^-70 did not stop translate at |y|^(a/2) = |z|^(a/2) short of the nodes
# that underflow its kernels.
_QUIET = 2.0 ** -64


def integrate_singular_band2(f2, lo: float, hi: float,
                             spec: QuadratureSpec = DEFAULT_SPEC,
                             edge_exponent: float = 0.0) -> IntegralResult:
    """Distance-aware tanh-sinh rule: f2(x, dist_lo, dist_hi).

    The engine never evaluates at the endpoints; nodes whose distance
    underflows are dropped (their weights are far below any tolerance).

    edge_exponent p > -1 states that f2 grows at most like d^p at either
    end, d the distance to that end.  Where the mass the nodes cannot reach,
    about _SIGMA_MIN^(1+p) of the whole, exceeds spec.rel_tol, each half of
    the interval is integrated in s = (d/half)^(1+p), which cancels that
    power (see _integrate_edge_substituted); otherwise the plain rule runs
    as it does for p = 0.

    Each level walks its nodes from the middle toward each end and stops a
    side after two terms in a row below 2^-64 of the level's sum so far
    (see the module docstring).  The value is the full levels' value as
    long as f2's terms keep falling past two such nodes, as they do for the
    promised d^p growth.  Nodes past the stop are never evaluated, so an
    end where f2 underflows or cannot be formed is mostly not reached.
    """
    if not lo < hi:
        raise DomainError(f"empty or inverted interval [{lo!r}, {hi!r}]")
    if not edge_exponent > -1.0:
        raise DomainError(f"edge_exponent must be > -1, got {edge_exponent!r}")
    if math.pow(_SIGMA_MIN, 1.0 + edge_exponent) > spec.rel_tol:
        return _integrate_edge_substituted(f2, lo, hi, 1.0 + edge_exponent, spec)
    return _tanh_sinh(f2, lo, hi, spec)


def _integrate_edge_substituted(f2, lo: float, hi: float, beta: float,
                                spec: QuadratureSpec) -> IntegralResult:
    """∫_lo^hi f2 for f2 = O(d^(beta-1)) at both ends, split at the midpoint.

    On each half, d = half * s^(1/beta) is the distance to the outer end and
    dd = (half^beta / beta) d^(1-beta) ds, so the s-integrand f2 d^(1-beta)
    is flat at s = 0 and the plain rule resolves it.  d is floored at the
    plain rule's own smallest node distance: s^(1/beta) underflows for
    small beta where f2 d^(1-beta) is already constant, and f2 is never
    asked for a point closer to an end than the plain rule asks for.
    """
    half = 0.5 * (hi - lo)
    width = 2.0 * half
    floor = half * _SIGMA_MIN
    inv = 1.0 / beta
    scale = math.pow(half, beta) * inv

    def dist(s):
        return max(half * math.pow(s, inv), floor)

    def from_lo(s, ds_lo, ds_hi):
        d = dist(ds_lo)
        return f2(lo + d, d, width - d) * (math.pow(d, 1.0 - beta) * scale)

    def from_hi(s, ds_lo, ds_hi):
        d = dist(ds_lo)
        return f2(hi - d, width - d, d) * (math.pow(d, 1.0 - beta) * scale)

    try:
        left = _tanh_sinh(from_lo, 0.0, 1.0, spec)
        right = _tanh_sinh(from_hi, 0.0, 1.0, spec)
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"tanh-sinh rule did not converge in {spec.max_levels} levels on "
            f"[{lo!r}, {hi!r}] with edge exponent {beta - 1.0!r}") from exc
    return IntegralResult(left.value + right.value, left.est_error + right.est_error,
                          left.evaluations + right.evaluations)


def _tanh_sinh(f2, lo: float, hi: float, spec: QuadratureSpec) -> IntegralResult:
    """The plain rule of integrate_singular_band2 on lo < hi."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    evals = 0
    running = 0.0  # sum of w*f over every node of all levels so far (no h)
    total = 0.0
    for level in range(0, spec.max_levels + 1):
        h = 0.5 ** level
        new = 0.0
        # quiet terms in a row toward hi and toward lo; an exact zero
        # continues a run but does not start one, so a stretch where f2
        # vanishes does not hide the mass beyond it
        quiet_hi = quiet_lo = 0
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
            if quiet_hi < 2:
                term = wu * f2(hi - d_near, d_far, d_near)
                quiet_hi = (quiet_hi + 1 if abs(term) < _QUIET * abs(new)
                            and (quiet_hi or term) else 0)
                new += term
                evals += 1
            if quiet_lo < 2:
                term = wu * f2(lo + d_near, d_near, d_far)
                quiet_lo = (quiet_lo + 1 if abs(term) < _QUIET * abs(new)
                            and (quiet_lo or term) else 0)
                new += term
                evals += 1
            elif quiet_hi >= 2:
                break
        running = running + new
        total = h * running
        if level >= 3:
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
# Gauss-Jacobi rules for (1 - t^2)^p times a smooth factor
# ---------------------------------------------------------------------------
#
# The rules are built by _gauss_jacobi, which the engine imports on its
# first call, so that importing gfkernel does not compile it.

_GJ_LADDER = (8, 12, 16, 24, 32, 48, 64)


def integrate_gauss_jacobi(f2, lo: float, hi: float,
                           spec: QuadratureSpec = DEFAULT_SPEC,
                           edge_exponent: float = 0.0) -> IntegralResult:
    """Gauss-Jacobi rules for f2(x, dist_lo, dist_hi) = (dist_lo dist_hi)^p
    times a smooth factor, p = edge_exponent > -1.

    The smooth factor, f2 / (dist_lo dist_hi / half^2)^p, is summed by the
    rules of the weight (1 - s^2)^p at n = 8, 12, 16, 24, 32, 48, 64 nodes.
    Two successive rules that agree within 1e-2 max(abs_tol, rel_tol |Q|)
    end the ladder: the larger one's Q is returned with their difference as
    its error estimate.  When n = 64 still disagrees (a factor that is not
    smooth), the interval goes to integrate_singular_band2 with the same
    edge exponent, and the rules' evaluations are counted with its own.
    """
    if not lo < hi:
        raise DomainError(f"empty or inverted interval [{lo!r}, {hi!r}]")
    if not edge_exponent > -1.0:
        raise DomainError(f"edge_exponent must be > -1, got {edge_exponent!r}")
    from ._gauss_jacobi import gauss_jacobi_rule

    half = 0.5 * (hi - lo)
    evals = 0
    prev = None
    for n in _GJ_LADDER:
        # from the middle outwards, each node t >= 0 and then its mirror -t,
        # which shares its weight over (1 - t^2)^p
        total = 0.0
        for t, w, opt, omt in gauss_jacobi_rule(n, edge_exponent):
            c = w / math.pow(opt * omt, edge_exponent)
            near, far = half * omt, half * opt
            total += c * f2(hi - near, far, near)
            if t != 0.0:
                total += c * f2(lo + near, near, far)
        evals += n
        total = half * total
        if prev is not None:
            diff = abs(total - prev)
            if diff <= 1e-2 * max(spec.abs_tol, spec.rel_tol * abs(total)):
                return IntegralResult(total, diff, evals)
        prev = total
    res = integrate_singular_band2(f2, lo, hi, spec, edge_exponent=edge_exponent)
    return IntegralResult(res.value, res.est_error, res.evaluations + evals)


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
    truncated.
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
    return IntegralResult(res.value, res.est_error, res.evaluations + 5)


# ---------------------------------------------------------------------------
# Bessel-oscillatory semi-infinite integrals
# ---------------------------------------------------------------------------

# 16-point Gauss-Legendre rule on [-1, 1]: its positive nodes and their
# weights, mirrored about 0 (the reference rule's nodes are exactly odd and
# its weights exactly even); tests/test_quadrature.py checks it bit for bit
# against polynomial.legendre.leggauss(16)
_GL_HALF = tuple((float.fromhex(x), float.fromhex(w)) for x, w in (
    ("0x1.852bd6676a9f9p-4", "0x1.83feae80e4e01p-3"),
    ("0x1.205cae642337cp-2", "0x1.75f8c77e0c011p-3"),
    ("0x1.d50259a43a772p-2", "0x1.5a6ebbb5a7600p-3"),
    ("0x1.3c5a466d5e8b8p-1", "0x1.325f61bca3cbep-3"),
    ("0x1.82c45dda4726bp-1", "0x1.fe7af2bad3878p-4"),
    ("0x1.bb3403514e483p-1", "0x1.85c4ee79cc24bp-4"),
    ("0x1.e39f56616f9b0p-1", "0x1.fdfb1a2c1261ep-5"),
    ("0x1.fa92c264d787ep-1", "0x1.bcddab4b7c228p-6"),
))
_GL_X = tuple(-x for x, _ in reversed(_GL_HALF)) + tuple(x for x, _ in _GL_HALF)
_GL_W = tuple(w for _, w in reversed(_GL_HALF)) + tuple(w for _, w in _GL_HALF)

_OSC_MAX_ZEROS = 200   # zero cells of the oscillatory engine before it gives up


@functools.lru_cache(maxsize=64, typed=True)
def _zero_ladder(backend, order: float) -> list[float]:
    """The positive zeros of J_order from the first on, as computed by the
    backend core, as far as _ladder_to has been asked for them: 64 ladders,
    each reaching at most _OSC_MAX_ZEROS (200) zeros past the first one
    beyond an oscillatory rule's lo*freq, about 0.4 MiB in all while that
    zero is among the first few, as it is in every workload."""
    return []


def _ladder_to(order: float, count: int) -> list[float]:
    """The ladder of order, grown to hold at least count zeros: McMahon's
    guess, then two Newton steps, kept monotone.  A zero's value depends
    only on its index and the one before it, so threads that grow one
    ladder at once store equal values in each slot."""
    zeros = _zero_ladder(core, order)
    mu4 = 4.0 * order * order
    for n in range(len(zeros), count):
        beta = (n + 1 + 0.5 * order - 0.25) * math.pi
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
        if n and x <= zeros[n - 1] + 1e-9:
            x = zeros[n - 1] + math.pi  # safeguard: keep ladder monotone
        zeros[n:n + 1] = [x]
    return zeros


def _gauss_legendre(f, a: float, b: float):
    """∫_a^b f by the 16-point Gauss-Legendre rule."""
    c0, c1 = 0.5 * (b - a), 0.5 * (b + a)
    return c0 * sum(w * f(c1 + c0 * x) for x, w in zip(_GL_X, _GL_W))


def _gauss_legendre_panels(f, a: float, b: float, spec: QuadratureSpec):
    """∫_a^b f for f smooth on [a, b]: (value, error estimate, evaluations).
    Panels are halved until their halves' sum is within max(abs_tol, rel_tol
    |Q|) of their rule, Q the rule on [a, b]; the estimate sums those gaps,
    and 2^-48 of each rule for its rounding and that of f."""
    panels = [(a, b, _gauss_legendre(f, a, b), 0)]
    tol, value, err, evals = max(spec.abs_tol, spec.rel_tol * abs(panels[0][2])), 0.0, 0.0, 16
    while panels:       # depth first, left to right
        a, b, q, depth = panels.pop()
        m = 0.5 * (a + b)
        left, right = _gauss_legendre(f, a, m), _gauss_legendre(f, m, b)
        evals += 32
        if abs(left + right - q) <= tol:
            value, err = value + left + right, err + abs(left + right - q) + 2.0 ** -48 * abs(q)
        elif depth == 50:
            raise ConvergenceError(f"Gauss-Legendre panels did not converge at {a!r} in 50 "
                                   "halvings", partial=value)
        else:
            panels += [(m, b, right, depth + 1), (a, m, left, depth + 1)]
    return value, err, evals


def integrate_bessel_oscillatory(g: Callable[[float], complex], order: float, freq: float,
                                 lo: float, spec: QuadratureSpec = DEFAULT_SPEC) -> IntegralResult:
    """∫_lo^∞ g(t) J_order(freq t) dt for smooth g of moderate variation.

    The head, lo to the first zero of J_order(freq t) past lo, goes to
    _gauss_legendre_panels, or at lo = 0 to integrate_singular_band2: there
    J's t^order end, singular below order 0 and not smooth at a non-integer
    order, would take the panels many halvings and an estimate short of the
    error below order 0.  Each cell past the head, between zeros x_l
    and x_(l+1), takes one 16-point rule, and Sidi's W-algorithm
    extrapolates the integrals F(x_l) with the cells as psi(x_l): the mW
    transformation (Sidi, Math. Comp. 51, 1988; Lucas & Stone, J. Comput.
    Appl. Math. 64, 1995).  Once two successive estimates in a row agree
    within max(abs_tol, rel_tol |value|), the last is the value; twice the
    larger difference, the head's estimate and 2^-48 of the value for
    rounding are its error estimate.  evaluations counts the calls of g.

    The transformation also settles on divergent integrals such as
    ∫ t J_0(t) dt, so ConvergenceError refuses a value unless the cells
    times x^(1/4) fall from the first to the last (Weber's ∫ J_1 = 1 has
    cells falling like x^(-1/2)), and an integral with no agreement in
    _OSC_MAX_ZEROS zeros, its partial value the integral up to the last
    zero.  A cell that sums to exactly zero (g underflowed) ends the integral.
    """
    if not 0.0 < freq < math.inf:
        raise DomainError(f"oscillatory frequency must be positive and finite, got {freq!r}")
    if not 0.0 <= lo < math.inf:
        raise DomainError(f"oscillatory lower limit must be nonnegative and finite, got {lo!r}")

    def f(t):
        return g(t) * core.bessel_j(order, freq * t)

    # the head ends at the first zero past lo; _OSC_MAX_ZEROS counts from it
    k0 = 0
    while (last_hi := _ladder_to(order, k0 + 1)[k0] / freq) <= lo * (1.0 + 1e-12) + 1e-300:
        k0 += 1
    if lo == 0.0:
        head = integrate_singular_band2(lambda t, dlo, dhi: f(t), lo, last_hi, spec,
                                        min(order, 0.0))
        total, head_err, evals = head.value, head.est_error, head.evaluations
    else:
        total, head_err, evals = _gauss_legendre_panels(f, lo, last_hi, spec)
    ts, ms, ns, mw, cells = [], [], [], [], []   # 1/x_l, W antidiagonal, mW, |psi| x_l^(1/4)
    for k in range(k0 + 1, k0 + _OSC_MAX_ZEROS):
        hi = _ladder_to(order, k + 1)[k] / freq
        psi = _gauss_legendre(f, last_hi, hi)
        evals += 16
        if psi == 0.0:
            return IntegralResult(total, head_err, evals)
        # W-algorithm: M_n^(l-n) = (M_(n-1)^(l-n+1) - M_(n-1)^(l-n)) / (1/x_l - 1/x_(l-n))
        m, n, t = [total / psi], [1.0 / psi], 1.0 / last_hi
        for i, ti in enumerate(reversed(ts)):
            m.append((m[-1] - ms[i]) / (t - ti))
            n.append((n[-1] - ns[i]) / (t - ti))
        cells.append(abs(psi) * math.pow(last_hi, 0.25))
        ts.append(t)
        ms, ns, total, last_hi = m, n, total + psi, hi
        mw.append(m[-1] / n[-1])
        # two agreements in a row; an overflowed W table meets no tolerance
        err = max(abs(mw[-1] - mw[-2]), abs(mw[-2] - mw[-3])) if ts[2:] else math.inf
        if err <= max(spec.abs_tol, spec.rel_tol * abs(mw[-1])) < math.inf:
            if cells[-1] >= cells[0]:
                raise ConvergenceError(
                    f"integrate_bessel_oscillatory: the cells times x^(1/4) do not fall over "
                    f"{len(ts)} zeros from {lo!r}: divergent or too slow", partial=mw[-1])
            return IntegralResult(mw[-1], 2.0 * err + head_err + 2.0 ** -48 * abs(mw[-1]), evals)
    raise ConvergenceError(f"integrate_bessel_oscillatory: the mW estimates failed to settle "
                           f"within {_OSC_MAX_ZEROS} zeros", partial=total)
