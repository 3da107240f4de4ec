"""Executable verification of the kernel identities.

Every density integral is one plan, _gamma_integral, over one triple
(_DensityGeometry): two fixed sides and a free one, which is Delta's third
side (product, mass, TV, the first Hankel identity) or its middle side
(translate, the second Hankel identity).  The free side's line splits into
the three triple-Bessel regions, each in the coordinate that makes its edge
singularities algebraic and its complements exact, and the plan lists their
pieces, each with its engine, which one loop integrates:

* the band in t = cos(theta) of the fixed sides, whose three angles give
  the four permuted kernels, in one core call a node (_band_terms),
* the gap below it, with its one surviving term, in Z,
* above it the one outer term: in u = cosh(theta) on (1, 2], then the last
  piece, a tail by Bessel-zero partitioning with Sidi's mW transformation
  (oscillatory case) or the power-tail rule (z^-3); a finite support ends
  it in pieces of Z.

Each check is a weight callback on the plan, and a node makes one weights
call and one core call (on the band through the geometry's band_sums), on
values the plan binds once.  The density's even terms are weighted by the
even part of what it is integrated against, its odd terms by the odd part;
where that part is exactly zero (no odd weight on the gamma side; an even or
odd profile, node by node, in translate) its terms are not evaluated.

All residual reports carry rel_residual = abs_residual / (1 + |lhs|).
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from typing import Callable, Iterator, NamedTuple

from ._backend import core
from ._corepy import BAND_MM, BAND_MM_AT_XZ, BAND_XY, BAND_XZ, BAND_YZ, is_nonpositive_integer
from .errors import DomainError, finite_constant, require_finite
from .genkernel import Params, _delta_prefactor, _phase_e2a, _side_power, b_kernel, m_const
from .macdonald import _require_angle_scale
from .quadrature import (
    DEFAULT_SPEC,
    QuadratureSpec,
    integrate_bessel_oscillatory,
    integrate_gauss_jacobi,
    integrate_power_tail,
    integrate_singular_band2,
)

__all__ = [
    "ResidualReport", "Axis", "SweepGrid", "TvReport", "Profile",
    "gaussian_profile", "bump_profile",
    "product_residual", "gamma_mass", "tv_norm", "tv_norm_report",
    "hankel_identity_eq1", "hankel_identity_eq2",
    "legendre_p_integral_check", "legendre_q_integral_check",
    "translate", "translate_report", "TranslateReport", "lp_bound_probe",
]

_COSH_SPLIT = 2.0  # outer pieces switch from the u-substitution to the tail here
_TAIL_SPAN = 1e3    # translate's tail is integrated in pieces of at most this ratio


def _recent(f):
    """f of one argument with its last four values kept, for the Bessel
    weights J~(cZ).  Tanh-sinh nodes crowd an end of a piece until Z rounds
    onto the same double while the node still moves, so the weight repeats
    there; the few entries keep the memory flat however many nodes a rule
    takes.  On the product benchmark at seed 1, 2,761 of the weights'
    20,379 calls hit."""
    return functools.lru_cache(maxsize=4)(f)


class ResidualReport(NamedTuple):
    lhs: complex
    rhs: complex
    abs_residual: float
    rel_residual: float
    quad_error: float
    wall_time: float


def _report(lhs: complex, rhs: complex, qerr: float, t0: float) -> ResidualReport:
    lhs = complex(lhs)
    rhs = complex(rhs)
    ab = abs(lhs - rhs)
    return ResidualReport(lhs, rhs, ab, ab / (1.0 + abs(lhs)), qerr,
                          time.perf_counter() - t0)


class TvReport(NamedTuple):
    value: float
    quad_error: float
    wall_time: float
    break_evaluations: int   # _band_terms calls of the sign-break search


class _Axis(NamedTuple):
    name: str
    min: float
    max: float
    count: int
    spacing: str = "linear"


class Axis(_Axis):
    """One sweep axis: name in {k, a, lambda, x, y}, inclusive range."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.count < 1:
            raise DomainError("axis count must be >= 1")
        if self.count > 1 and not self.min < self.max:
            raise DomainError(f"axis {self.name!r} needs min < max")
        if self.spacing not in ("linear", "log"):
            raise DomainError(f"axis spacing must be linear or log, got {self.spacing!r}")
        if self.spacing == "log" and self.min <= 0.0:
            raise DomainError("log spacing requires min > 0")
        return self

    def values(self) -> list[float]:
        if self.count == 1:
            return [self.min]
        n = self.count
        if self.spacing == "log":
            r = math.log(self.max / self.min)
            return [self.min * math.exp(r * i / (n - 1)) for i in range(n)]
        step = (self.max - self.min) / (n - 1)
        return [self.min + step * i for i in range(n)]


class SweepGrid(NamedTuple):
    axes: tuple[Axis, ...]

    def points(self) -> Iterator[dict[str, float]]:
        names = [ax.name for ax in self.axes]
        for combo in itertools.product(*(ax.values() for ax in self.axes)):
            yield dict(zip(names, combo))


# ---------------------------------------------------------------------------
# triple geometry shared by the density integrals
# ---------------------------------------------------------------------------


def _r_outer(mu: float, nu: float, a: float, b: float, c: float,
             gap: float, s: float) -> float:
    """R_{mu,nu}(a, b, c) off the band (c > a + b), from the exact gap
    c - (a + b) and the perimeter s; u - 1 = cosh(theta) - 1 never cancels."""
    um1 = gap * s / (2.0 * a * b)
    return core.r_outer_core(mu, nu, a, b, c, 1.0 + um1, um1)


class _DensityGeometry:
    """The triple of a density integral: fixed sides X = |x|^(a/2) and
    Y = |y|^(a/2) with their signs, the free side Z and the shared factor
    coef z^zexp.  Z is Delta's third side, or its middle one when middle
    (Delta(x, ., y)); single keeps only the kernel R_{mu,nu} that Delta
    weights by e^(-2 i pi/a) (the Hankel identities).  The outer terms
    vanish identically unless has_tail.  band_sums is _band_terms, with the
    core's band_terms bound when the geometry is built."""

    def __init__(self, mu: float, nu: float, a: float, x: float, y: float,
                 coef: float, zexp: float, has_tail: bool, e2a: complex = 1.0,
                 middle: bool = False, single: bool = False):
        self.mu = mu
        self.nu = nu
        self.ha = 0.5 * a
        self.X = X = math.pow(abs(x), self.ha)
        self.Y = Y = math.pow(abs(y), self.ha)
        self.sx = sx = math.copysign(1.0, x)
        self.sy = sy = math.copysign(1.0, y)
        self.sxy = sxy = sx * sy
        self.Z1 = abs(X - Y)
        self.Z2 = X + Y
        # the plan forms each angle over 2XY, and the outer side from Z2^2
        _require_angle_scale("fixed sides", (X, Y), 2.0 * X * Y, self.Z2 * self.Z2)
        self.e2a = e2a
        self.two_over_a = 2.0 / a
        self.zexp = zexp
        self.coef = coef
        self.has_tail = has_tail
        self.single = single
        # band_terms' masks of no sum, the even, the odd and both; each sum's phase
        em, om = BAND_MM | BAND_XY | (BAND_MM_AT_XZ if middle else 0), BAND_XZ | BAND_YZ
        if single:
            em, om = (0, BAND_XZ) if middle else (BAND_XY, 0)
        masks = (0, em, om, em | om)
        self.phases = ph_e, ph_o = (1, e2a) if middle else (e2a, 1)
        band_terms = core.band_terms

        def band_sums(Z, omt, opt, even=True, odd=True):
            mask = masks[even + 2 * odd]
            if not mask:
                return 0.0, 0.0
            rm, r, rxz, ryz = band_terms(mu, nu, X, Y, Z, omt, opt, mask)
            if single:
                return r, rxz
            return (rm + ph_e * (sxy * r) if even else 0.0,
                    ph_o * (sx * rxz) + sy * ryz if odd else 0.0)

        self.band_sums = band_sums

    @classmethod
    def of(cls, p: Params, x: float, y: float, middle: bool = False) -> "_DensityGeometry":
        """Delta(x, y, .), or Delta(x, ., y) when middle: coef z^zexp =
        a 2^(mu-2) Gamma(mu+1) z^w / |xyz|^(k-1/2), with a tail unless 2/a
        is an integer.  Each caller has checked that p is admissible
        (Params.require_macdonald) and that x and y are finite and nonzero."""
        g = cls(p.mu_m, p.nu_m, p.a, x, y, _delta_prefactor(p), p.w - p.k + 0.5,
                not p.band_offset_integer, _phase_e2a(p), middle)
        g.coef *= _side_power(p, x, y)  # after the fixed sides' scale check
        return g


def _band_terms(g: _DensityGeometry, Z: float, omt: float, opt: float,
                even: bool = True, odd: bool = True):
    """The band's even and odd sums (0.0 where not asked for) at the
    complements (omt, opt) of the angle between X and Y and free side Z,
    from one core.band_terms call for the kernels they weight.  With
    R = R_{mu,nu}, Rm = R_{mu,mu} and the phase e = e^(-2 i pi/a): third
    side, even Rm(X,Y,Z) + e sgn(xy) R(X,Y,Z) and odd sgn(x) R(X,Z,Y) +
    sgn(y) R(Y,Z,X); middle side, even Rm(X,Z,Y) + sgn(xy) R(X,Y,Z) and odd
    e sgn(x) R(X,Z,Y) + sgn(y) R(Y,Z,X).  single keeps R(X,Y,Z) (even) or
    R(X,Z,Y) (odd, middle) alone."""
    return g.band_sums(Z, omt, opt, even, odd)


def _gamma_integral(g: _DensityGeometry, spec: QuadratureSpec, weights, odd: bool = True,
                    osc: float | None = None, modulus: bool = False, breaks=(),
                    cut: float = math.inf):
    """The pieces of ∫ w(z) Delta |z|^w dz over the free side z > 0, up to
    the free side Z = cut.

    weights(Z, z, even, odd) returns the even and odd weights at a node, of
    which the plan asks only for the ones it uses; a zero weight's terms are
    not evaluated, and odd False states that there is no odd weight (the gap
    is skipped).  A node's value is e + o of the weighted sums, or |e + o| +
    |e - o| with modulus.  The plan lists the pieces as (slot, engine,
    integrand, *args), and one loop adds each engine(integrand, *args) into
    its slot: the band (0) in t = cos(theta) of the fixed sides, split at the
    interior points breaks and cut at the free side cut; the gap (1), (0,
    min(Z1, cut)) in Z; above the band, pieces (3) of Z of at most a factor
    _TAIL_SPAN up to a finite cut, or else the near-outer piece (2) in u =
    cosh(theta) up to _COSH_SPLIT and last the tail (3): with osc = c the
    outer weight is J~_mu(c Z) and the tail is summed between Bessel zeros,
    with osc None it is a z^-3 power tail.  Every finite piece grows like
    d^(mu - 1/2) at a region edge and is given that exponent; an uncut,
    unsplit compact band, (1 - t^2)^(mu - 1/2) times a smooth factor, takes
    the Gauss-Jacobi rules, every other finite piece tanh-sinh.  Returns the
    four slots' values, 0.0 for an absent piece, and the summed error.
    """
    X, Y, Z1, Z2, mu, nu = g.X, g.Y, g.Z1, g.Z2, g.mu, g.nu
    toa, ha, coef, zexp = g.two_over_a, g.ha, g.coef, g.zexp
    toa1, toa2 = toa - 1.0, toa - 2.0       # the exponents of dz/dZ and dz/dt
    sqrt, pow = math.sqrt, math.pow
    band_sums, r_outer_core, r_outer = g.band_sums, core.r_outer_core, core.r_outer
    edge = mu - 0.5
    twoxy, z1sq, z2sq = 2.0 * X * Y, Z1 * Z1, Z2 * Z2

    plan = []
    # each band piece keeps its distances to t = -1 and t = 1 exact: a cut
    # at the free side cut starts the band at t_S = 1 - (cut^2 - Z1^2) / 2XY
    ends = [-1.0, *breaks, 1.0]
    opt_lo = 0.0
    if cut < Z2:
        ends[0] = 1.0 - (cut - Z1) * (cut + Z1) / twoxy
        opt_lo = (Z2 - cut) * (Z2 + cut) / twoxy
    compact = not (g.has_tail or breaks or cut < Z2)
    band_rule = integrate_gauss_jacobi if compact else integrate_singular_band2
    for lo, hi in zip(ends, ends[1:]):
        if not lo < hi:
            continue

        def f_band(t, dlo, dhi, _ol=opt_lo if lo == ends[0] else lo + 1.0, _oh=1.0 - hi):
            omt, opt = dhi + _oh, dlo + _ol
            Z = sqrt(z1sq + twoxy * omt)
            z = pow(Z, toa)
            we, wo = weights(Z, z, True, odd)
            if we == 0.0 and wo == 0.0:
                return 0.0
            e, o = band_sums(Z, omt, opt, we != 0.0, wo != 0.0)
            e, o = we * e, wo * o
            return ((abs(e + o) + abs(e - o) if modulus else e + o) * (coef * pow(z, zexp))
                    * (toa * pow(Z, toa2) * X * Y))

        plan.append((0, band_rule, f_band, lo, hi, spec, edge))

    # inner gap (0, Z1), cut at cut; dhi + off is Z1 - Z, exact.  Its one term:
    # e sgn(x) R(X, Z, Y) when Y > X (e the odd sum's phase), else sgn(y) R(Y, Z, X)
    hi_gap = min(Z1, cut)
    if odd and g.has_tail and hi_gap > 0.0 and (Y > X or not g.single):
        off = Z1 - hi_gap
        near_side, far_side, ph, sg = (X, Y, g.phases[1], g.sx) if Y > X else (Y, X, 1, g.sy)

        def f_gap(Z, dlo, dhi):
            z = pow(Z, toa)
            w = weights(Z, z, False, True)[1]
            t = w and ph * (sg * _r_outer(mu, nu, near_side, Z, far_side, dhi + off, Z2 + Z))
            if t == 0.0:
                return 0.0
            v = w * t
            return ((abs(v) + abs(v) if modulus else v) * (coef * pow(z, zexp))
                    * (toa * pow(Z, toa1)))

        plan.append((1, integrate_singular_band2, f_gap, 0.0, hi_gap, spec, edge))

    outer = g.has_tail and cut > Z2
    if outer and cut < math.inf:
        # a rule across many decades of the power decay misses mass; only Z2
        # is a region edge, and (start - Z2) + dlo is Z - Z2
        start = Z2
        while start < cut:
            def f_piece(Z, dlo, dhi, _off=start - Z2):
                z = pow(Z, toa)
                w = weights(Z, z, True, False)[0]
                t = w and _r_outer(mu, nu, X, Y, Z, _off + dlo, Z2 + Z)
                if t == 0.0:
                    return 0.0
                v = w * t
                return ((abs(v) + abs(v) if modulus else v) * (coef * pow(z, zexp))
                        * (toa * pow(Z, toa1)))

            stop = min(_TAIL_SPAN * start, cut)
            plan.append((3, integrate_singular_band2, f_piece, start, stop, spec,
                         edge if start == Z2 else 0.0))
            start = stop
    elif outer:
        # outer (Z2, inf): one term, in u = cosh(theta) up to _COSH_SPLIT
        def f_near(u, dlo, dhi):
            Z = sqrt(z2sq + twoxy * dlo)
            z = pow(Z, toa)
            w = weights(Z, z, True, False)[0]
            t = w and r_outer_core(mu, nu, X, Y, Z, u, dlo)
            if t == 0.0:
                return 0.0
            v = w * t
            return ((abs(v) + abs(v) if modulus else v) * (coef * pow(z, zexp))
                    * (toa * pow(Z, toa2) * X * Y))

        plan.append((2, integrate_singular_band2, f_near, 1.0, _COSH_SPLIT, spec, edge))
        z_split = math.sqrt(z2sq + twoxy * (_COSH_SPLIT - 1.0))
        if osc is not None:
            # the weight is J~_mu(osc Z) less the J_mu(osc Z) the engine applies
            gj = math.exp(math.lgamma(mu + 1.0)) * math.pow(0.5 * osc, -mu)

            def g_osc(Z):
                z = pow(Z, toa)
                w = gj * pow(Z, -mu)
                t = w and r_outer(mu, nu, X, Y, Z)
                if t == 0.0:
                    return 0.0
                v = w * t
                return ((abs(v) + abs(v) if modulus else v) * (coef * pow(z, zexp))
                        * (toa * pow(Z, toa1)))

            plan.append((3, integrate_bessel_oscillatory, g_osc, mu, osc, z_split, spec))
        else:
            def f_tail(z):
                Z = pow(z, ha)
                w = weights(Z, z, True, False)[0]
                t = w and r_outer(mu, nu, X, Y, Z)
                if t == 0.0:
                    return 0.0
                v = w * t
                return (abs(v) + abs(v) if modulus else v) * (coef * pow(z, zexp))

            # the z-line density tail decays like z^-3 for every valid (k, a)
            plan.append((3, integrate_power_tail, f_tail, pow(z_split, toa), -3.0, spec))

    pieces, qerr = [0.0, 0.0, 0.0, 0.0], 0.0
    for slot, engine, f, *args in plan:
        res = engine(f, *args)
        pieces[slot] += res.value
        qerr += res.est_error
    return pieces, qerr


# ---------------------------------------------------------------------------
# product formula and mass
# ---------------------------------------------------------------------------


def _product_rhs(p: Params, lam: float, x: float, y: float,
                 spec: QuadratureSpec) -> tuple[complex, float]:
    """∫ B(lambda, z) Delta(x, y, z) |z|^w dz over the real line.

    Folded onto z > 0: twice the integral of B_even * (even terms) +
    B_odd * (odd terms).
    """
    g = _DensityGeometry.of(p, x, y)
    mu, nu = g.mu, g.nu
    c = (2.0 / p.a) * math.pow(abs(lam), 0.5 * p.a) if lam != 0.0 else 0.0
    m = m_const(p)
    j_mu = _recent(functools.partial(core.normalized_bessel_j, mu))
    j_nu = _recent(functools.partial(core.normalized_bessel_j, nu))

    def weights(Z, z, even, odd):    # B_even and B_odd at (lambda, z)
        we = (j_mu(c * Z) if c != 0.0 else 1.0) if even else 0.0
        return we, (m * (lam * z) * j_nu(c * Z) if odd else 0.0)

    odd = lam != 0.0
    (b, gp, near, tail), qerr = _gamma_integral(g, spec, weights, odd, c if odd else None)
    # the outer term carries the constant phase
    return 2.0 * (b + gp + g.e2a * (g.sxy * (near + tail))), qerr


def product_residual(p: Params, lam: float, x: float, y: float,
                     spec: QuadratureSpec = DEFAULT_SPEC) -> ResidualReport:
    """B(lambda,x) B(lambda,y) against its integral representation.

    Degenerate base points short-circuit through the Dirac cases of the
    product measure, where the identity is exact.
    """
    t0 = time.perf_counter()
    p.require_macdonald()
    lhs = b_kernel(p, lam, x) * b_kernel(p, lam, y)
    if x == 0.0 or y == 0.0:
        rhs = b_kernel(p, lam, x if y == 0.0 else y)
        return _report(lhs, rhs, 0.0, t0)
    rhs, qerr = _product_rhs(p, lam, x, y, spec)
    return _report(lhs, rhs, qerr, t0)


def gamma_mass(p: Params, x: float, y: float,
               spec: QuadratureSpec = DEFAULT_SPEC) -> tuple[complex, float]:
    """Total mass of the product measure; equals 1 at every valid point."""
    require_finite(x=x, y=y)
    p.require_macdonald()
    if x == 0.0 or y == 0.0:
        return 1.0 + 0.0j, 0.0
    return _product_rhs(p, 0.0, x, y, spec)


# ---------------------------------------------------------------------------
# total-variation norm
# ---------------------------------------------------------------------------


_BREAK_TOL = 1e-12   # a sign break is refined to a bracket of this width in t
_SCAN = 32           # cells of the sign-break scan, equal in theta


def _brent_zero(f, a: float, b: float, fa: float, fb: float) -> float:
    """A zero of f in the bracket [a, b], fa fb < 0, to within _BREAK_TOL:
    Brent's zeroin (Algorithms for Minimization without Derivatives, 1973,
    ch. 4), secant or inverse quadratic steps that fall back on bisection
    unless they shrink the bracket fast enough."""
    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * 2.0 ** -52 * abs(b) + 0.5 * _BREAK_TOL
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:                          # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:                               # inverse quadratic
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
        if fb * math.copysign(1.0, fc) > 0.0:
            c, fc = a, fa
            d = e = b - a


def _band_sign_breaks(g: _DensityGeometry) -> tuple[list[float], int]:
    """Interior zeros of the two signed band densities (real-phase case),
    and the number of _band_terms calls made to find them.

    When 2/a is an integer the density is real-valued and its modulus has
    kinks at sign changes, which slow the band rules; the band is split
    there.  A scan brackets the zeros: it takes the midpoints of _SCAN
    cells equal in theta = arccos(t), narrow in t toward t = +-1 where the
    zeros crowd, and a point 2^-40 from each end (1 -+ t exact), so zeros
    beyond the outermost midpoints are seen.  An even scan puts no node on
    t = 0, where at mu = 0, nu = 2 both densities vanish.  Each bracket is
    refined by Brent steps to _BREAK_TOL.  A zero on a scan node is a break
    itself, and the cells beside it are bracketed from 2 _BREAK_TOL inside;
    breaks within 2 _BREAK_TOL of each other (a zero of both densities)
    are one.  Two zeros inside one cell go unseen, and the piece across
    them costs more nodes.
    """
    calls = 0

    def s_pair(t):
        nonlocal calls
        calls += 1
        d_hi = 1.0 - t
        Z = math.sqrt(g.Z1 * g.Z1 + 2.0 * g.X * g.Y * d_hi)
        even, odd = _band_terms(g, Z, d_hi, 1.0 + t)
        return (even + odd).real, (even - odd).real

    found = []
    end = 2.0 ** -40
    inside = 2.0 * _BREAK_TOL
    ts = ([-1.0 + end] + [-math.cos(math.pi * (i + 0.5) / _SCAN) for i in range(_SCAN)]
          + [1.0 - end])
    vals = [s_pair(t) for t in ts]
    for comp in (0, 1):
        found += [t for t, v in zip(ts, vals) if v[comp] == 0.0]
        for i in range(len(ts) - 1):
            a, b = ts[i], ts[i + 1]
            va, vb = vals[i][comp], vals[i + 1][comp]
            if va == 0.0:
                a += inside
                va = s_pair(a)[comp]
            if vb == 0.0:
                b -= inside
                vb = s_pair(b)[comp]
            if va * vb < 0.0:
                found.append(_brent_zero(lambda t: s_pair(t)[comp], a, b, va, vb))
    breaks = []
    for t in sorted(found):
        if not breaks or t - breaks[-1] > 2.0 * _BREAK_TOL:
            breaks.append(t)
    return breaks, calls


def tv_norm_report(p: Params, x: float, y: float,
                   spec: QuadratureSpec = DEFAULT_SPEC) -> TvReport:
    """∫ |Delta(x, y, z)| |z|^w dz with the modulus taken pointwise on the
    complex density (no term-by-term bound).

    One band weight, |even + odd| + |even - odd|, serves every a; at integer
    2/a the band is split at its sign breaks (_band_sign_breaks, whose
    _band_terms calls the report counts as break_evaluations, 0 at other
    a), and one the scan misses is a kink inside a piece, which costs nodes
    but not accuracy.  At a zero base point the measure is the point mass
    at the other one, of total variation 1.
    """
    t0 = time.perf_counter()
    require_finite(x=x, y=y)
    p.require_macdonald()
    if x == 0.0 or y == 0.0:
        return TvReport(1.0, 0.0, time.perf_counter() - t0, 0)
    g = _DensityGeometry.of(p, x, y)
    breaks, n_break = _band_sign_breaks(g) if p.band_offset_integer else ((), 0)
    (b, gp, near, tail), qerr = _gamma_integral(g, spec, lambda Z, z, e, o: (1.0, 1.0),
                                                modulus=True, breaks=breaks)
    return TvReport(b + gp + near + tail, qerr, time.perf_counter() - t0, n_break)


def tv_norm(p: Params, x: float, y: float,
            spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Total variation of the product measure at (x, y)."""
    return tv_norm_report(p, x, y, spec).value


# ---------------------------------------------------------------------------
# Hankel-transform identities
# ---------------------------------------------------------------------------


def _hankel_geometry(mu: float, nu: float, x: float, y: float, t: float, zexp: float,
                     middle: bool = False) -> _DensityGeometry:
    """The checked arguments' plan at a = 2 (Z = z): X = x, Y = y,
    coefficient 1, z-exponent zexp and the one kernel R_{mu,nu}, with a tail
    unless nu - mu is an integer n >= 0, where R_{mu,nu} vanishes off the
    band."""
    require_finite(mu=mu, nu=nu, x=x, y=y, t=t)
    if not (mu > -0.5 and nu > -0.5):
        raise DomainError("orders must exceed -1/2")
    if not (x > 0.0 and y > 0.0 and t > 0.0):
        raise DomainError("x, y, t must be positive")
    return _DensityGeometry(mu, nu, 2.0, x, y, 1.0, zexp, not is_nonpositive_integer(mu - nu),
                            middle=middle, single=True)


def hankel_identity_eq1(mu: float, nu: float, x: float, y: float, t: float,
                        spec: QuadratureSpec = DEFAULT_SPEC) -> ResidualReport:
    """(xy)^nu t^(2(nu-mu)) J~_nu(xt) J~_nu(yt) against the weighted integral
    of R_{mu,nu}(x, y, .) with kernel J~_mu(zt) z^(mu+1).

    The integral is the plan over the third side with z-exponent mu + 1,
    the one kernel R_{mu,nu}(x, y, Z), weight J~_mu(tZ), oscillatory
    frequency t and no gap.  With a tail its integrand falls like
    Z^(mu-2nu-3/2) times an oscillation, so orders with mu - 2nu - 3/2 >= 0
    diverge and raise DomainError.  From about mu - 2nu - 3/2 = -1/4 up to
    0 the integral converges, but too slowly for the oscillatory engine,
    whose check that the cells fall raises ConvergenceError.
    """
    t0 = time.perf_counter()
    g = _hankel_geometry(mu, nu, x, y, t, mu + 1.0)
    if g.has_tail and mu - 2.0 * nu - 1.5 >= 0.0:
        raise DomainError(f"hankel_identity_eq1 tail exponent mu-2nu-3/2="
                          f"{mu - 2.0 * nu - 1.5!r} is not < 0: the integral diverges")
    lhs = finite_constant(
        f"left side (xy)^nu t^(2(nu-mu)) J~_nu(xt) J~_nu(yt) at mu={mu!r}, nu={nu!r}",
        lambda: (math.pow(x * y, nu) * math.pow(t, 2.0 * (nu - mu))
                 * core.normalized_bessel_j(nu, x * t) * core.normalized_bessel_j(nu, y * t)))
    kfac = finite_constant(
        f"constant 2^(2nu-mu) Gamma(nu+1)^2 / Gamma(mu+1) at mu={mu!r}, nu={nu!r}",
        lambda: math.exp((2.0 * nu - mu) * math.log(2.0)
                         + 2.0 * math.lgamma(nu + 1.0) - math.lgamma(mu + 1.0)))
    j_mu = _recent(functools.partial(core.normalized_bessel_j, mu))
    (b, _, near, tail), qerr = _gamma_integral(
        g, spec, lambda Z, z, e, o: (j_mu(Z * t), 0.0), odd=False, osc=t)
    return _report(lhs, kfac * (b + near + tail), kfac * qerr, t0)


def hankel_identity_eq2(mu: float, nu: float, x: float, y: float, t: float,
                        spec: QuadratureSpec = DEFAULT_SPEC) -> ResidualReport:
    """x^nu y^mu J~_nu(xt) J~_mu(yt) against the weighted integral of
    R_{mu,nu}(x, ., y) with kernel J~_nu(zt) z^(nu+1).

    The integral is the plan over the middle side with z-exponent nu + 1,
    the one kernel R_{mu,nu}(x, Z, y) and weight J~_nu(tZ): its band, and
    its gap when y > x; the kernel vanishes above the band, where the plan
    is cut.
    """
    t0 = time.perf_counter()
    g = _hankel_geometry(mu, nu, x, y, t, nu + 1.0, middle=True)
    lhs = (math.pow(x, nu) * math.pow(y, mu)
           * core.normalized_bessel_j(nu, x * t) * core.normalized_bessel_j(mu, y * t))
    # Gamma(mu + 1) as mu Gamma(mu): math.gamma errs less at the smaller
    # argument; it is 1 to double precision where Gamma(mu) would overflow
    kfac = finite_constant(
        f"constant 2^mu Gamma(mu+1) at mu={mu!r}",
        lambda: math.pow(2.0, mu) * (mu * math.gamma(mu) if abs(mu) > 1e-300 else 1.0))
    j_nu = _recent(functools.partial(core.normalized_bessel_j, nu))
    (b, gp, _, _), qerr = _gamma_integral(g, spec, lambda Z, z, e, o: (0.0, j_nu(Z * t)),
                                          cut=g.Z2)
    return _report(lhs, kfac * (b + gp), kfac * qerr, t0)


# ---------------------------------------------------------------------------
# Legendre integral identities
# ---------------------------------------------------------------------------


def legendre_p_integral_check(mu: float, nu: float,
                              spec: QuadratureSpec = DEFAULT_SPEC) -> ResidualReport:
    """∫_{-1}^{1} (1-t^2)^(mu/2-1/4) P^(1/2-mu)_(nu-1/2)(t) dt against its
    closed form 2^(mu+1/2) Gamma(mu+1/2) / (Gamma(mu-nu+1) Gamma(mu+nu+1)).

    The integrand is evaluated in the fused form (1-t)^(mu-1/2) 2F1 / Gamma,
    which is the same analytic cancellation the band kernel uses.
    """
    t0 = time.perf_counter()
    require_finite(mu=mu, nu=nu)
    if not mu > -0.5:
        raise DomainError("legendre_p_integral_check needs mu > -1/2")
    rg = math.exp(-math.lgamma(mu + 0.5))
    rhs = finite_constant(
        f"closed form 2^(mu+1/2) Gamma(mu+1/2) / (Gamma(mu-nu+1) Gamma(mu+nu+1)) at "
        f"mu={mu!r}, nu={nu!r}",
        lambda: (math.pow(2.0, mu + 0.5) * math.exp(math.lgamma(mu + 0.5))
                 * core.rgamma(mu - nu + 1.0) * core.rgamma(mu + nu + 1.0)))

    def f2(t, dlo, dhi):
        val, _ = core.hyp2f1(nu + 0.5, 0.5 - nu, mu + 0.5, 0.5 * dhi, 0.5 * dlo)
        return math.pow(dhi, mu - 0.5) * val * rg

    # (1 - t)^(mu - 1/2) at t = 1
    res = integrate_singular_band2(f2, -1.0, 1.0, spec, edge_exponent=mu - 0.5)
    return _report(res.value, rhs, res.est_error, t0)


def legendre_q_integral_check(mu: float, nu: float,
                              spec: QuadratureSpec = DEFAULT_SPEC) -> ResidualReport:
    """∫_1^inf (t^2-1)^(mu/2-1/4) Qhat^(1/2-mu)_(nu-1/2)(t) dt, compared (up
    to overall sign) with 2^(mu-1/2) Gamma(nu-mu) Gamma(mu+1/2) / Gamma(nu+mu+1).

    The (t^2-1) powers cancel exactly between the weight and the Legendre
    prefactor, leaving C t^(mu-nu-1) 2F1(...; 1/t^2): integrable only when
    nu > mu, which is the convergence gate.
    """
    t0 = time.perf_counter()
    require_finite(mu=mu, nu=nu)
    if not mu > -0.5:
        raise DomainError("legendre_q_integral_check needs mu > -1/2")
    if not nu > mu:
        raise DomainError(
            f"legendre_q_integral_check tail exponent mu-nu-1={mu - nu - 1.0!r} "
            "is not < -1: need nu > mu for integrability")
    d = nu - mu
    cfac = (math.sqrt(math.pi) * math.exp(math.lgamma(d + 1.0) - math.lgamma(nu + 1.0))
            * math.pow(2.0, -(nu + 0.5)))

    def integrand(t, tm1):
        z = 1.0 / (t * t)
        zc = tm1 * (t + 1.0) * z
        val, _ = core.hyp2f1(0.5 * d + 1.0, 0.5 * (d + 1.0), nu + 1.0, z, zc)
        return cfac * math.pow(t, -(d + 1.0)) * val

    res_near = integrate_singular_band2(lambda t, dlo, dhi: integrand(t, dlo),
                                        1.0, 2.0, spec)
    res_tail = integrate_power_tail(lambda t: integrand(t, t - 1.0), 2.0,
                                    mu - nu - 1.0, spec)
    lhs = res_near.value + res_tail.value
    rhs = (math.pow(2.0, mu - 0.5)
           * math.exp(math.lgamma(d) + math.lgamma(mu + 0.5) - math.lgamma(nu + mu + 1.0)))
    # compared up to an overall sign: the printed phase of the source identity
    # is unresolvable, so only the magnitudes are asserted against each other
    return _report(abs(lhs), abs(rhs),
                   res_near.est_error + res_tail.est_error, t0)


# ---------------------------------------------------------------------------
# generalized translation and its L^p probe
# ---------------------------------------------------------------------------


class _Profile(NamedTuple):
    fn: Callable[[float], float]
    support: float
    name: str = "custom"
    even: bool = False


class Profile(_Profile):
    """A callable with a declared support halfwidth (zero outside it).
    even declares fn(-xi) = fn(xi) exactly: translate then forms no odd
    part and skips the gap, which the odd part alone weights."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (self.support > 0.0 and math.isfinite(self.support)):
            raise DomainError("test function needs a positive finite support halfwidth")
        return self

    def __call__(self, xi: float) -> float:
        return self.fn(xi) if abs(xi) <= self.support else 0.0


def gaussian_profile(width: float = 1.0) -> Profile:
    """exp(-(xi/width)^2), truncated where it falls below ~1e-35."""
    if width <= 0.0:
        raise DomainError("width must be positive")

    def fn(xi: float) -> float:
        return math.exp(-(xi / width) ** 2)

    return Profile(fn, 9.0 * width, "gaussian", even=True)


def bump_profile(radius: float = 1.0) -> Profile:
    """Smooth compactly supported bump exp(1 - 1/(1 - (xi/r)^2))."""
    if radius <= 0.0:
        raise DomainError("radius must be positive")

    def fn(xi: float) -> float:
        s = (xi / radius) ** 2
        if s >= 1.0:
            return 0.0
        return math.exp(1.0 - 1.0 / (1.0 - s))

    return Profile(fn, radius, "bump", even=True)


class TranslateReport(NamedTuple):
    value: complex
    quad_error: float


def translate_report(p: Params, y: float, f: Profile, z: float,
                     spec: QuadratureSpec = DEFAULT_SPEC) -> TranslateReport:
    """(tau_y f)(z) = ∫ f d sigma_{y,z}: integration of f against the
    translation measure Delta(y, xi, z) |xi|^w dxi, with the Dirac shortcuts
    at y = 0 or z = 0, and the summed error estimate of its pieces.

    It is the density plan over Delta's middle side Xi = |xi|^(a/2), cut at
    the support XS: the band (X1, X2), X1 = ||y|^(a/2) - |z|^(a/2)| and
    X2 = |y|^(a/2) + |z|^(a/2), in t = cos(theta) of the (|y|^(a/2),
    |z|^(a/2)) angle from t = 1 down to the cut; below X1 the one outer
    term of the gap; above X2 up to XS the tail, in pieces of at most a
    factor _TAIL_SPAN.  Gap and tail vanish when 2/a is an integer, and the
    uncut compact band takes the Gauss-Jacobi rules.

    The even terms are weighted by the profile's even part f(xi) + f(-xi),
    the odd terms (and the gap's) by its odd part f(xi) - f(-xi), the tail's
    by the even part.  At each node only the terms of a nonzero part are
    evaluated, so an even profile never evaluates an odd term; one that
    declares itself even (Profile.even) skips the gap and f(-xi) as well.

    At |y|^(a/2) = |z|^(a/2) the band reaches Xi = 0, at t = 1.  There the
    kernel over (|y|^(a/2), |z|^(a/2), Xi) takes its angle complement 1 - t
    from the rule exactly, so no edge power is formed from an underflowed
    difference, and the value is the limit of its neighbours'.
    """
    if not isinstance(f, Profile):
        raise DomainError("translate needs a Profile with declared support")
    require_finite(y=y, z=z)
    p.require_macdonald()
    if y == 0.0 or z == 0.0:
        return TranslateReport(complex(f(z if y == 0.0 else y)), 0.0)
    g = _DensityGeometry.of(p, y, z, middle=True)

    fn, support, even = f.fn, f.support, f.even

    def weights(Xi, xi, e, o):
        # f(xi) and f(-xi) as Profile.__call__ forms them, 0.0 off the support
        if not abs(xi) <= support:
            return 0.0, 0.0
        fp = fn(xi)
        fm = fp if even else fn(-xi)
        return fp + fm, fp - fm

    (b, gp, near, tail), qerr = _gamma_integral(g, spec, weights, not even,
                                                cut=math.pow(support, g.ha))
    # the tail's one term carries the sign sgn(yz)
    return TranslateReport(complex(b + gp + g.sxy * (near + tail)), qerr)


def translate(p: Params, y: float, f: Profile, z: float,
              spec: QuadratureSpec = DEFAULT_SPEC) -> complex:
    """(tau_y f)(z); see translate_report."""
    return translate_report(p, y, f, z, spec).value


def lp_bound_probe(p: Params, p_exp: float, f: Profile, y_axis: Axis,
                   spec: QuadratureSpec = DEFAULT_SPEC, z_count: int = 64) -> float:
    """max over y_axis's values of ||tau_y f||_p / ||f||_p in L^p(|x|^w dx).

    Norms are midpoint-grid quadratures over a symmetric window that covers
    the support spread; p_exp is 1, 2, or math.inf.  The ratio at y = 0 is
    exactly 1 (the translation is the identity there).
    """
    if p_exp not in (1.0, 2.0, math.inf):
        raise DomainError("p_exp must be 1, 2, or math.inf")
    ys = y_axis.values()
    half = 1.15 * (max(abs(v) for v in ys) + f.support)
    dz = 2.0 * half / z_count
    zs = [-half + (j + 0.5) * dz for j in range(z_count)]
    weights = [math.pow(abs(zv), p.w) * dz for zv in zs]

    def norm(vals) -> float:
        if p_exp == math.inf:
            return max(abs(v) for v in vals)
        if p_exp == 1.0:
            return sum(abs(v) * w for v, w in zip(vals, weights))
        return math.sqrt(sum(abs(v) ** 2 * w for v, w in zip(vals, weights)))

    fvals = [f(zv) for zv in zs]
    nf = norm(fvals)
    if nf == 0.0:
        raise DomainError("test function is zero on the probe window")
    best = 0.0
    for yv in ys:
        if yv == 0.0:
            ratio = 1.0
        else:
            tvals = [translate(p, yv, f, zv, spec) for zv in zs]
            ratio = norm(tvals) / nf
        if ratio > best:
            best = ratio
    return best
