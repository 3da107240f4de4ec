"""Executable verification of the kernel identities.

Every check reduces to integrals of the three shapes the quadrature module
provides.  The z-line integral against the product density splits, per
density term, into the sign of z and the three triple-Bessel regions; each
piece is integrated in the coordinate that makes its endpoint singularities
algebraic and its complements exactly computable:

* band pieces in t = cos(theta) of the (X, Y, Z) triple (or directly in the
  Z coordinate when the angle is not monotone there),
* near-outer pieces in u = cosh(theta) on (1, 2],
* the infinite outer tail by Bessel-zero partitioning with Euler
  acceleration (oscillatory case) or the power-tail rule (modulus case,
  where the z-line decay exponent is exactly -3).

The triple geometry has one source: _complements (1 -+ cos(theta) from the
exact excesses of a band triple) and _r_outer (R off the band from the exact
gap).  _gamma_integral is the one band / gap / near-outer / tail plan over
the third side of the triple: the product, mass and TV checks and the first
Hankel identity are callbacks on it (the second identity and translate
integrate over the middle side).

Parity: the density's even terms are weighted by the even part of what it
is integrated against, its odd terms by the odd part.  Where that part is
exactly zero (no odd weight on the gamma side; an even or odd profile, node
by node, in translate) its terms are not evaluated, which changes no bit.

All residual reports carry rel_residual = abs_residual / (1 + |lhs|).
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from ._backend import core
from .errors import DegenerateParameterError, DomainError, require_finite
from .genkernel import Params, _delta_prefactor, _phase_e2a, b_kernel, m_const
from .quadrature import (
    DEFAULT_SPEC,
    QuadratureSpec,
    _recent,
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
    "translate", "lp_bound_probe",
]

_COSH_SPLIT = 2.0  # outer pieces switch from the u-substitution to the tail here
_TAIL_SPAN = 1e3    # translate's tail is integrated in pieces of at most this ratio


@dataclass(frozen=True)
class ResidualReport:
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


@dataclass(frozen=True)
class TvReport:
    value: float
    quad_error: float
    truncation_bound: float
    wall_time: float


@dataclass(frozen=True)
class Axis:
    """One sweep axis: name in {k, a, lambda, x, y}, inclusive range."""

    name: str
    min: float
    max: float
    count: int
    spacing: str = "linear"

    def __post_init__(self):
        if self.count < 1:
            raise DomainError("axis count must be >= 1")
        if self.count > 1 and not self.min < self.max:
            raise DomainError(f"axis {self.name!r} needs min < max")
        if self.spacing not in ("linear", "log"):
            raise DomainError(f"axis spacing must be linear or log, got {self.spacing!r}")
        if self.spacing == "log" and self.min <= 0.0:
            raise DomainError("log spacing requires min > 0")

    def values(self) -> list[float]:
        if self.count == 1:
            return [self.min]
        n = self.count
        if self.spacing == "log":
            r = math.log(self.max / self.min)
            return [self.min * math.exp(r * i / (n - 1)) for i in range(n)]
        step = (self.max - self.min) / (n - 1)
        return [self.min + step * i for i in range(n)]


@dataclass(frozen=True)
class SweepGrid:
    axes: tuple[Axis, ...]

    def axis(self, name: str) -> Axis:
        for ax in self.axes:
            if ax.name == name:
                return ax
        raise DomainError(f"sweep grid has no axis named {name!r}")

    def points(self) -> Iterator[dict[str, float]]:
        names = [ax.name for ax in self.axes]
        for combo in itertools.product(*(ax.values() for ax in self.axes)):
            yield dict(zip(names, combo))


# ---------------------------------------------------------------------------
# triple geometry shared by the density integrals
# ---------------------------------------------------------------------------


def _complements(a: float, b: float, ea: float, eb: float, ec: float,
                 s: float) -> tuple[float, float]:
    """(1 - cos(theta), 1 + cos(theta)) of the angle between sides a and b of
    a band triple (a, b, c), from its exact excesses ea = b + c - a,
    eb = a + c - b, ec = a + b - c and its perimeter s."""
    ab2 = 2.0 * a * b
    return ea * eb / ab2, ec * s / ab2


def _r_outer(mu: float, nu: float, a: float, b: float, c: float,
             gap: float, s: float) -> float:
    """R_{mu,nu}(a, b, c) off the band (c > a + b), from the exact gap
    c - (a + b) and the perimeter s; u - 1 = cosh(theta) - 1 never cancels."""
    um1 = gap * s / (2.0 * a * b)
    return core.r_outer_core(mu, nu, a, b, c, 1.0 + um1, um1)


class _DensityGeometry:
    """Magnitudes X = |x|^(a/2), Y = |y|^(a/2), signs and the shared factor
    coef z^zexp for integrating against a triple density at (x, y); the
    outer branches vanish identically unless has_tail."""

    def __init__(self, mu: float, nu: float, a: float, x: float, y: float,
                 coef: float, zexp: float, has_tail: bool, e2a: complex = 1.0):
        self.mu = mu
        self.nu = nu
        self.ha = 0.5 * a
        self.X = math.pow(abs(x), self.ha)
        self.Y = math.pow(abs(y), self.ha)
        self.sx = math.copysign(1.0, x)
        self.sy = math.copysign(1.0, y)
        self.sxy = self.sx * self.sy
        self.Z1 = abs(self.X - self.Y)
        self.Z2 = self.X + self.Y
        self.e2a = e2a
        self.two_over_a = 2.0 / a
        self.zexp = zexp
        self.coef = coef
        self.has_tail = has_tail

    @classmethod
    def of(cls, p: Params, x: float, y: float) -> "_DensityGeometry":
        """Delta(x, y, .): coef z^zexp = a 2^(mu-2) Gamma(mu+1) z^w / |xyz|^(k-1/2),
        with a tail unless 2/a is an integer."""
        p.require_macdonald()
        require_finite(x=x, y=y)
        if x == 0.0 or y == 0.0:
            raise DomainError("density integrals need nonzero base points")
        return cls(p.mu_m, p.nu_m, p.a, x, y,
                   _delta_prefactor(p) * math.pow(abs(x * y), 0.5 - p.k),
                   p.w - p.k + 0.5, not p.band_offset_integer, _phase_e2a(p))

    def z_of(self, Z: float) -> float:
        return math.pow(Z, self.two_over_a)

    def common(self, z: float) -> float:
        return self.coef * math.pow(z, self.zexp)

    def dz_dZ(self, Z: float) -> float:
        return self.two_over_a * math.pow(Z, self.two_over_a - 1.0)

    def dz_dt(self, Z: float) -> float:
        """|dz/dt| for t = cos(theta) on the band or cosh(theta) outside it."""
        return self.two_over_a * math.pow(Z, self.two_over_a - 2.0) * self.X * self.Y


def _band_terms(g: _DensityGeometry, omt: float, opt: float, odd: bool = True):
    """The density terms on the band, at cos(theta) complements (omt, opt)
    of the (X, Y, Z) triple; returns (Z, even_sum, odd_sum).  The even sum
    is R_{mu,mu}(X,Y,Z) + e^(-2 i pi/a) sgn(xy) R_{mu,nu}(X,Y,Z); the odd
    sum, sgn(x) R_{mu,nu}(X,Z,Y) + sgn(y) R_{mu,nu}(Y,Z,X), is 0.0 unless
    odd."""
    X, Y, mu, nu = g.X, g.Y, g.mu, g.nu
    twoxy = 2.0 * X * Y
    Z = math.sqrt((X - Y) * (X - Y) + twoxy * omt)
    even = (core.r_band_core(mu, mu, X, Y, Z, omt, opt)
            + g.e2a * (g.sxy * core.r_band_core(mu, nu, X, Y, Z, omt, opt)))
    if not odd:
        return Z, even, 0.0
    s = X + Y + Z
    ez = twoxy * opt / s                    # X + Y - Z
    dm = abs(X - Y)
    lo = twoxy * omt / (Z + dm)             # Z - |X - Y|
    # excesses of X and Y: the larger side's is lo, the smaller's dm + Z; at
    # X = Y, where the two round differently, each permuted term gives its
    # own first side dm + Z
    ex3, ey3 = (dm + Z, lo) if Y >= X else (lo, dm + Z)
    ey4, ex4 = (dm + Z, lo) if X >= Y else (lo, dm + Z)
    t3 = core.r_band_core(mu, nu, X, Z, Y, *_complements(X, Z, ex3, ez, ey3, s))
    t4 = core.r_band_core(mu, nu, Y, Z, X, *_complements(Y, Z, ey4, ez, ex4, s))
    return Z, even, g.sx * t3 + g.sy * t4


def _gamma_integral(g: _DensityGeometry, spec: QuadratureSpec, band, gap, outer,
                    osc: float | None, breaks=(), terms=_band_terms):
    """The pieces of ∫ w(z) Delta(x, y, z) |z|^w dz over z > 0.

    terms(g, 1 - t, 1 + t, odd) forms the band's even and odd sums, which
    band(Z, z, even, odd) weights (in t = cos(theta), split at the interior
    points breaks); gap(Z, z, t) and outer(Z, z, t) weight the single term
    that survives below the band (in Z) and above it (in u = cosh(theta) up
    to _COSH_SPLIT, then a tail).  With osc = c the outer weight is
    J~_mu(c Z) and its tail is summed between Bessel zeros; with osc None
    the tail is a z^-3 power tail.  gap None states that the weights have no
    odd part: the gap is skipped and the odd sum is not formed (0.0).
    Every piece grows like d^(mu - 1/2) at a region edge and is given that
    exponent; an unsplit compact band, (1 - t^2)^(mu - 1/2) times a smooth
    factor, takes the Gauss-Jacobi rules, every other piece tanh-sinh.
    Returns the (band, gap, near-outer, tail) values, 0.0 for an absent
    piece, the summed error estimate and the tail's truncation bound.
    """
    X, Y, mu, nu = g.X, g.Y, g.mu, g.nu
    odd_weight = gap is not None
    edge = mu - 0.5
    band_rule = integrate_singular_band2 if g.has_tail or breaks else integrate_gauss_jacobi
    pieces = [0.0, 0.0, 0.0, 0.0]
    qerr = 0.0
    trunc = 0.0

    # each band piece keeps its distances to t = -1 and t = 1 exact
    ends = [-1.0, *breaks, 1.0]
    for lo, hi in zip(ends, ends[1:]):
        def f_band(t, dlo, dhi, _ol=lo + 1.0, _oh=1.0 - hi):
            Z, even, odd = terms(g, dhi + _oh, dlo + _ol, odd_weight)
            z = g.z_of(Z)
            return band(Z, z, even, odd) * g.common(z) * g.dz_dt(Z)

        res = band_rule(f_band, lo, hi, spec, edge_exponent=edge)
        pieces[0] += res.value
        qerr += res.est_error

    # inner gap (0, Z1): term (iii) when Y > X (outer of the (X, Z, Y)
    # triple), term (iv) when X > Y; dhi is Z1 - Z, exact
    if odd_weight and g.Z1 > 0.0 and g.has_tail:
        def f_gap(Z, dlo, dhi):
            if Y > X:
                t = g.sx * _r_outer(mu, nu, X, Z, Y, dhi, X + Y + Z)
            else:
                t = g.sy * _r_outer(mu, nu, Y, Z, X, dhi, X + Y + Z)
            if t == 0.0:
                return 0.0
            z = g.z_of(Z)
            return gap(Z, z, t) * g.common(z) * g.dz_dZ(Z)

        res = integrate_singular_band2(f_gap, 0.0, g.Z1, spec, edge_exponent=edge)
        pieces[1] = res.value
        qerr += res.est_error

    # outer (Z2, inf): term (ii) only
    if g.has_tail:
        def f_near(u, dlo, dhi):
            Z = math.sqrt(g.Z2 * g.Z2 + 2.0 * X * Y * dlo)
            t2 = core.r_outer_core(mu, nu, X, Y, Z, u, dlo)
            if t2 == 0.0:
                return 0.0
            z = g.z_of(Z)
            return outer(Z, z, t2) * g.common(z) * g.dz_dt(Z)

        res = integrate_singular_band2(f_near, 1.0, _COSH_SPLIT, spec, edge_exponent=edge)
        pieces[2] = res.value
        qerr += res.est_error
        z_split = math.sqrt(g.Z2 * g.Z2 + 2.0 * X * Y * (_COSH_SPLIT - 1.0))
        if osc is not None:
            gj = math.exp(math.lgamma(mu + 1.0)) * math.pow(0.5 * osc, -mu)

            def g_osc(Z):
                t2 = core.r_outer(mu, nu, X, Y, Z)
                if t2 == 0.0:
                    return 0.0
                z = g.z_of(Z)
                return gj * math.pow(Z, -mu) * t2 * g.common(z) * g.dz_dZ(Z)

            res = integrate_bessel_oscillatory(g_osc, mu, osc, z_split, spec)
        else:
            def f_tail(z):
                Z = math.pow(z, g.ha)
                t2 = core.r_outer(mu, nu, X, Y, Z)
                if t2 == 0.0:
                    return 0.0
                return outer(Z, z, t2) * g.common(z)

            # the z-line density tail decays like z^-3 for every valid (k, a)
            res = integrate_power_tail(f_tail, g.z_of(z_split), -3.0, spec)
            trunc = res.truncation_bound
        pieces[3] = res.value
        qerr += res.est_error

    return pieces, qerr, trunc


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

    def b_even(Z: float) -> float:
        return j_mu(c * Z) if c != 0.0 else 1.0

    def b_odd(z: float, Z: float) -> complex:
        return m * (lam * z) * j_nu(c * Z)

    def band(Z, z, even, odd):
        val = b_even(Z) * even
        if lam != 0.0:
            val += b_odd(z, Z) * odd
        return val

    def gap(Z, z, t):
        return b_odd(z, Z) * t

    def outer(Z, z, t):
        return b_even(Z) * t

    odd_weight = lam != 0.0
    (b, gp, near, tail), qerr, _ = _gamma_integral(
        g, spec, band, gap if odd_weight else None, outer, c if odd_weight else None)
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
    if x == 0.0 or y == 0.0:
        return 1.0 + 0.0j, 0.0
    return _product_rhs(p, 0.0, x, y, spec)


# ---------------------------------------------------------------------------
# total-variation norm
# ---------------------------------------------------------------------------


def _band_sign_breaks(g: _DensityGeometry, scan: int = 129) -> list[float]:
    """Interior zeros of the two signed band densities (real-phase case).

    When 2/a is an integer the density is real-valued and its modulus has
    kinks at sign changes, which slow the band rules; the band is split
    there.  Zeros are located by a scan plus bisection; the scan takes the
    midpoints of scan equal cells and a point 2^-40 from each end (where
    1 -+ t is exact), so zeros beyond the outermost midpoints are seen.  A
    zero on a scan node is a break itself, and a zero shared by both
    densities is one break.
    """
    def s_pair(t):
        d_hi = 1.0 - t
        d_lo = 1.0 + t
        Z, even, odd = _band_terms(g, d_hi, d_lo)
        return (even + odd).real, (even - odd).real

    breaks = []
    end = 2.0 ** -40
    ts = ([-1.0 + end] + [-1.0 + 2.0 * (i + 0.5) / scan for i in range(scan)]
          + [1.0 - end])
    vals = [s_pair(t) for t in ts]
    for comp in (0, 1):
        breaks += [t for t, v in zip(ts, vals) if v[comp] == 0.0]
        for i in range(len(ts) - 1):
            va, vb = vals[i][comp], vals[i + 1][comp]
            if va * vb >= 0.0:
                continue
            a, b = ts[i], ts[i + 1]
            fa = va
            for _ in range(60):
                m = 0.5 * (a + b)
                fm = s_pair(m)[comp]
                if fm == 0.0:
                    break
                if fa * fm < 0.0:
                    b = m
                else:
                    a, fa = m, fm
            breaks.append(0.5 * (a + b))
    return sorted(set(breaks))


def tv_norm_report(p: Params, x: float, y: float,
                   spec: QuadratureSpec = DEFAULT_SPEC) -> TvReport:
    """∫ |Delta(x, y, z)| |z|^w dz with the modulus taken pointwise on the
    complex density (no term-by-term bound).

    One band weight, |even + odd| + |even - odd|, serves every a; at integer
    2/a the band is split at its sign breaks, and one the scan misses is a
    kink inside a piece, which costs nodes but not accuracy.
    """
    t0 = time.perf_counter()
    g = _DensityGeometry.of(p, x, y)

    def band(Z, z, even, odd):
        return abs(even + odd) + abs(even - odd)

    def modulus(Z, z, t):
        return 2.0 * abs(t)

    breaks = _band_sign_breaks(g) if p.band_offset_integer else ()
    (b, gp, near, tail), qerr, trunc = _gamma_integral(g, spec, band, modulus, modulus, None,
                                                       breaks)
    return TvReport(b + gp + near + tail, qerr, trunc, time.perf_counter() - t0)


def tv_norm(p: Params, x: float, y: float,
            spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Total variation of the product measure at (x, y)."""
    return tv_norm_report(p, x, y, spec).value


# ---------------------------------------------------------------------------
# Hankel-transform identities
# ---------------------------------------------------------------------------


def hankel_identity_eq1(mu: float, nu: float, x: float, y: float, t: float,
                        spec: QuadratureSpec = DEFAULT_SPEC) -> ResidualReport:
    """(xy)^nu t^(2(nu-mu)) J~_nu(xt) J~_nu(yt) against the weighted integral
    of R_{mu,nu}(x, y, .) with kernel J~_mu(zt) z^(mu+1).

    The integral is the gamma-side plan at a = 2 (Z = z), X = x, Y = y,
    coefficient 1 and z-exponent mu + 1, with the one band term
    R_{mu,nu}(x, y, Z), weight J~_mu(tZ), oscillatory frequency t and no gap.
    """
    t0 = time.perf_counter()
    require_finite(mu=mu, nu=nu, x=x, y=y, t=t)
    if not (mu > -0.5 and nu > -0.5):
        raise DomainError("orders must exceed -1/2")
    if not (x > 0.0 and y > 0.0 and t > 0.0):
        raise DomainError("x, y, t must be positive")
    lhs = (math.pow(x * y, nu) * math.pow(t, 2.0 * (nu - mu))
           * core.normalized_bessel_j(nu, x * t) * core.normalized_bessel_j(nu, y * t))
    kfac = math.exp((2.0 * nu - mu) * math.log(2.0)
                    + 2.0 * math.lgamma(nu + 1.0) - math.lgamma(mu + 1.0))
    d = nu - mu
    g = _DensityGeometry(mu, nu, 2.0, x, y, 1.0, mu + 1.0, abs(d - round(d)) > 1e-12)
    j_mu = _recent(functools.partial(core.normalized_bessel_j, mu))

    def terms(g, omt, opt, odd):
        Z = math.sqrt(g.Z1 * g.Z1 + 2.0 * x * y * omt)
        return Z, core.r_band_core(mu, nu, x, y, Z, omt, opt), 0.0

    def band(Z, z, even, odd):
        return even * j_mu(Z * t)

    def outer(Z, z, r):
        return r * j_mu(Z * t)

    (b, _, near, tail), qerr, _ = _gamma_integral(g, spec, band, None, outer, t, terms=terms)
    return _report(lhs, kfac * (b + near + tail), kfac * qerr, t0)


def hankel_identity_eq2(mu: float, nu: float, x: float, y: float, t: float,
                        spec: QuadratureSpec = DEFAULT_SPEC) -> ResidualReport:
    """x^nu y^mu J~_nu(xt) J~_mu(yt) against the weighted integral of
    R_{mu,nu}(x, ., y) with kernel J~_nu(zt) z^(nu+1); the z-support is
    compact here (no oscillatory tail)."""
    t0 = time.perf_counter()
    require_finite(mu=mu, nu=nu, x=x, y=y, t=t)
    if not (mu > -0.5 and nu > -0.5):
        raise DomainError("orders must exceed -1/2")
    if not (x > 0.0 and y > 0.0 and t > 0.0):
        raise DomainError("x, y, t must be positive")
    lhs = (math.pow(x, nu) * math.pow(y, mu)
           * core.normalized_bessel_j(nu, x * t) * core.normalized_bessel_j(mu, y * t))
    kfac = math.pow(2.0, mu) * math.exp(math.lgamma(mu + 1.0))
    qerr = 0.0
    rhs = 0.0
    # the gap and band pieces grow like d^(mu - 1/2) at their edges
    edge = mu - 0.5

    d = nu - mu
    if y > x and abs(d - round(d)) > 1e-12:
        def f_out(Z, dlo, dhi):
            val = _r_outer(mu, nu, x, Z, y, dhi, x + y + Z)
            if val == 0.0:
                return 0.0
            return val * core.normalized_bessel_j(nu, Z * t) * math.pow(Z, nu + 1.0)

        res = integrate_singular_band2(f_out, 0.0, y - x, spec, edge_exponent=edge)
        rhs += res.value
        qerr += res.est_error

    dm = abs(x - y)

    def f_band(Z, dlo, dhi):
        # triple (x, Z, y); dlo = Z - |x-y| and dhi = (x+y) - Z are exact
        ex, ey = (dm + Z, dlo) if y >= x else (dlo, dm + Z)
        val = core.r_band_core(mu, nu, x, Z, y, *_complements(x, Z, ex, dhi, ey, x + Z + y))
        return val * core.normalized_bessel_j(nu, Z * t) * math.pow(Z, nu + 1.0)

    res = integrate_singular_band2(f_band, dm, x + y, spec, edge_exponent=edge)
    rhs += res.value
    qerr += res.est_error
    return _report(lhs, kfac * rhs, kfac * qerr, t0)


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

    def f2(t, dlo, dhi):
        val, _ = core.hyp2f1(nu + 0.5, 0.5 - nu, mu + 0.5, 0.5 * dhi, zc=0.5 * dlo)
        return math.pow(dhi, mu - 0.5) * val * rg

    # (1 - t)^(mu - 1/2) at t = 1
    res = integrate_singular_band2(f2, -1.0, 1.0, spec, edge_exponent=mu - 0.5)
    rhs = (math.pow(2.0, mu + 0.5) * math.exp(math.lgamma(mu + 0.5))
           * core.rgamma(mu - nu + 1.0) * core.rgamma(mu + nu + 1.0))
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
        val, _ = core.hyp2f1(0.5 * d + 1.0, 0.5 * (d + 1.0), nu + 1.0, z, zc=zc)
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


@dataclass(frozen=True)
class Profile:
    """A callable with a declared support halfwidth (zero outside it)."""

    fn: Callable[[float], float]
    support: float
    name: str = "custom"

    def __post_init__(self):
        if not (self.support > 0.0 and math.isfinite(self.support)):
            raise DomainError("test function needs a positive finite support halfwidth")

    def __call__(self, xi: float) -> float:
        return self.fn(xi) if abs(xi) <= self.support else 0.0


def gaussian_profile(width: float = 1.0) -> Profile:
    """exp(-(xi/width)^2), truncated where it falls below ~1e-35."""
    if width <= 0.0:
        raise DomainError("width must be positive")

    def fn(xi: float) -> float:
        return math.exp(-(xi / width) ** 2)

    return Profile(fn, 9.0 * width, "gaussian")


def bump_profile(radius: float = 1.0) -> Profile:
    """Smooth compactly supported bump exp(1 - 1/(1 - (xi/r)^2))."""
    if radius <= 0.0:
        raise DomainError("radius must be positive")

    def fn(xi: float) -> float:
        s = (xi / radius) ** 2
        if s >= 1.0:
            return 0.0
        return math.exp(1.0 - 1.0 / (1.0 - s))

    return Profile(fn, radius, "bump")


def translate(p: Params, y: float, f: Profile, z: float,
              spec: QuadratureSpec = DEFAULT_SPEC) -> complex:
    """(tau_y f)(z) = ∫ f d sigma_{y,z}: integration of f against the
    translation measure, with the Dirac shortcuts at y = 0 or z = 0.

    In the magnitude coordinate Xi = |xi|^(a/2) the integrand splits at
    X1 = ||y|^(a/2) - |z|^(a/2)| and X2 = |y|^(a/2) + |z|^(a/2): all four
    density terms live on the band (X1, X2); below X1 a single outer term
    survives (which one depends on whether |y| or |z| dominates), above X2
    only the term that produces the infinite translation tail, and both
    outer pieces vanish identically when 2/a is an integer.

    The even terms R_{mu,mu}(Y, Xi, Z) and sgn(yz) R_{mu,nu}(Y, Z, Xi) are
    weighted by the profile's even part f(xi) + f(-xi), the odd terms (the
    other two band terms, and the gap's) by its odd part f(xi) - f(-xi).
    At each node only the terms of a nonzero part are evaluated, so an even
    profile never evaluates an odd term; the value is the same to the bit.

    At |y|^(a/2) = |z|^(a/2) the band reaches Xi = 0.  The kernels' edge
    powers underflow at the rule's nodes next to it, but the rule stops
    walking toward an end once its terms no longer move the sum, which is
    mostly before those nodes; where it does reach them, translate raises
    DomainError.  A DegenerateParameterError, which every z raises at that
    (k, a), passes through as it is.  The tail above X2 is integrated in
    pieces of at most a factor _TAIL_SPAN each.
    """
    if not isinstance(f, Profile):
        raise DomainError("translate needs a Profile with declared support")
    require_finite(y=y, z=z)
    if y == 0.0:
        return complex(f(z))
    if z == 0.0:
        return complex(f(y))
    g = _DensityGeometry.of(p, y, z)
    mu, nu = g.mu, g.nu
    Yh, Zc, X1, X2 = g.X, g.Y, g.Z1, g.Z2
    sy, sz, syz = g.sx, g.sy, g.sxy
    XS = math.pow(f.support, g.ha)
    edge = mu - 0.5                        # d^(mu - 1/2) at every region edge

    def fe_fo(xi: float):
        fp = f(xi)
        fm = f(-xi)
        return fp + fm, fp - fm

    total = 0.0j
    pieces = []

    hi_band = min(X2, XS)
    if hi_band > X1:
        off_hi = X2 - hi_band

        def f_band(Xi, dlo, dhi):
            xi = g.z_of(Xi)
            fe, fo = fe_fo(xi)
            if fe == 0.0 and fo == 0.0:
                return 0.0j
            d2 = dhi + off_hi              # X2 - Xi, exact composition
            s = X2 + Xi
            # excesses of the (Yh, Xi, Zc) triple: Xi's is d2, and of Zc and
            # Yh the larger has dlo = Xi - X1
            ez, ey = (X1 + Xi, dlo) if Yh >= Zc else (dlo, X1 + Xi)
            c_yx = _complements(Yh, Xi, ey, d2, ez, s)
            val = 0.0
            if fe != 0.0:
                r1 = core.r_band_core(mu, mu, Yh, Xi, Zc, *c_yx)
                r3 = core.r_band_core(mu, nu, Yh, Zc, Xi, *_complements(Yh, Zc, ey, ez, d2, s))
                val = (r1 + syz * r3) * fe
            if fo != 0.0:
                r2 = core.r_band_core(mu, nu, Yh, Xi, Zc, *c_yx)
                r4 = core.r_band_core(mu, nu, Xi, Zc, Yh, *_complements(Xi, Zc, d2, ez, ey, s))
                val = val + (g.e2a * (sy * r2) + complex(sz * r4)) * fo
            return val * g.coef * math.pow(xi, g.zexp) * g.dz_dZ(Xi)

        try:
            pieces.append(integrate_singular_band2(f_band, X1, hi_band, spec, edge_exponent=edge))
        except (ArithmeticError, ValueError) as exc:
            if X1 != 0.0 or isinstance(exc, DegenerateParameterError):
                raise
            # |y|^(a/2) = |z|^(a/2): the band reaches Xi = 0, where nodes
            # next to it underflow the kernels' edge powers (a math domain
            # error, a division by zero, or no convergence on the compiled
            # core); the rule's walk mostly stops short of them, and where it
            # does not, the limit is not computed
            raise DomainError(f"translate is not computed at |y|^(a/2) = |z|^(a/2) "
                              f"(y={y!r}, z={z!r}, mu={mu!r})") from exc

    hi_gap = min(X1, XS)
    if g.has_tail and hi_gap > 0.0:
        off_hi1 = X1 - hi_gap

        def f_gap(Xi, dlo, dhi):
            xi = g.z_of(Xi)
            fo = fe_fo(xi)[1]
            if fo == 0.0:                  # the gap's one term is odd
                return 0.0j
            dd = dhi + off_hi1             # X1 - Xi, exact composition
            if Zc > Yh:
                odd = g.e2a * (sy * _r_outer(mu, nu, Yh, Xi, Zc, dd, X2 + Xi))
            else:
                odd = complex(sz * _r_outer(mu, nu, Xi, Zc, Yh, dd, X2 + Xi))
            # xi^zexp dxi/dXi as one power of Xi: xi = Xi^(2/a) underflows
            # near Xi = 0 once 2/a is large, and zexp may be negative
            return odd * fo * (g.coef * g.two_over_a
                               * math.pow(Xi, g.two_over_a * (g.zexp + 1.0) - 1.0))

        pieces.append(integrate_singular_band2(f_gap, 0.0, hi_gap, spec, edge_exponent=edge))

    if g.has_tail and XS > X2:
        # one rule per factor of 1e3 at most: a rule across many decades of
        # the power decay misses mass; only X2 is a region edge
        start = X2
        while start < XS:
            def f_tail(Xi, dlo, dhi, _off=start - X2):
                xi = g.z_of(Xi)
                fe, fo = fe_fo(xi)
                if fe == 0.0:
                    return 0.0
                r3o = _r_outer(mu, nu, Yh, Zc, Xi, _off + dlo, Xi + X2)
                if r3o == 0.0:
                    return 0.0
                return syz * r3o * fe * g.coef * math.pow(xi, g.zexp) * g.dz_dZ(Xi)

            stop = min(_TAIL_SPAN * start, XS)
            pieces.append(integrate_singular_band2(f_tail, start, stop, spec,
                                                   edge_exponent=edge if start == X2 else 0.0))
            start = stop

    for res in pieces:
        total += res.value
    return total


def lp_bound_probe(p: Params, p_exp: float, f: Profile, y_grid: SweepGrid,
                   spec: QuadratureSpec = DEFAULT_SPEC,
                   z_count: int = 64, z_halfwidth: float | None = None) -> float:
    """max over the y grid of ||tau_y f||_p / ||f||_p in L^p(|x|^w dx).

    Norms are midpoint-grid quadratures over a symmetric window that covers
    the support spread; p_exp is 1, 2, or math.inf.  The ratio at y = 0 is
    exactly 1 (the translation is the identity there).
    """
    if p_exp not in (1.0, 2.0, math.inf) and p_exp not in (1, 2):
        raise DomainError("p_exp must be 1, 2, or math.inf")
    ax = y_grid.axes[0] if len(y_grid.axes) == 1 else y_grid.axis("y")
    ys = ax.values()
    half = z_halfwidth if z_halfwidth is not None else 1.15 * (max(abs(v) for v in ys) + f.support)
    dz = 2.0 * half / z_count
    zs = [-half + (j + 0.5) * dz for j in range(z_count)]
    weights = [math.pow(abs(zv), p.w) * dz for zv in zs]

    def norm(vals) -> float:
        if p_exp == math.inf:
            return max(abs(v) for v in vals)
        if p_exp in (1, 1.0):
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
