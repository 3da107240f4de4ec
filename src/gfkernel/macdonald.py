"""Triple-Bessel kernel R_{mu,nu}(x, y, z) and its region geometry.

For positive x, y the semi-infinite integral of J_nu(xt) J_nu(yt) J_mu(zt)
t^(1-mu) takes one of three closed forms depending on where z sits relative
to |x-y| and x+y: zero inside, a first-kind-Legendre expression on the band,
a second-kind-Legendre expression (with the sin((nu-mu) pi) factor) outside.
The outer branch is real: the two unimodular phases carried by the printed
formulas cancel exactly, and the cancellation is hard-coded here.

Points on a region boundary are errors, not limits: the value may diverge
there for mu < 1/2, and the quadrature layers only ever evaluate interior
nodes.  So are triples of extreme scale (see classify).
"""

from __future__ import annotations

import enum
import sys
from typing import NamedTuple

from ._backend import core
from .errors import BoundaryTripleError, DomainError

__all__ = [
    "Region", "MacdonaldOrders",
    "classify", "r_kernel", "r_kernel_gegenbauer",
    "DEFAULT_BOUNDARY_EPS",
]

DEFAULT_BOUNDARY_EPS = 1e-13


class Region(enum.Enum):
    INNER = "inner"
    BAND = "band"
    OUTER = "outer"
    BOUNDARY = "boundary"


class _MacdonaldOrders(NamedTuple):
    mu: float
    nu: float


class MacdonaldOrders(_MacdonaldOrders):
    """Order pair of the kernel; both must exceed -1/2."""

    __slots__ = ()

    def __new__(cls, mu: float, nu: float):
        if not (mu > -0.5 and nu > -0.5):
            raise DomainError(
                f"Macdonald orders must exceed -1/2, got mu={mu!r}, nu={nu!r}")
        return super().__new__(cls, mu, nu)


def _require_angle_scale(what: str, sides: tuple, *values: float) -> None:
    """DomainError naming what and its sides unless every value lies in the
    normal double range [2^-1022, 2^1024) in magnitude: the kernel forms
    its angle from them."""
    for v in values:
        if not sys.float_info.min <= abs(v) <= sys.float_info.max:
            raise DomainError(f"{what} {sides!r} is outside the scale at which the kernel's "
                              "angle can be formed")


def classify(x: float, y: float, z: float) -> Region:
    """Region of (x, y, z) with the strict inequalities of the kernel.

    A triple within DEFAULT_BOUNDARY_EPS*(x+y) of z = |x-y| or z = x+y is
    Boundary.  Any other triple whose 2xy, or complement numerator (z -
    |x-y|)(z + |x-y|) or (x+y-z)(x+y+z), leaves the normal double range
    [2^-1022, 2^1024) in magnitude raises DomainError: the kernel forms its
    angle from them (x = y = z = t must lie in about [1.5e-154, 7.7e153]).
    """
    if not (x > 0.0 and y > 0.0 and z > 0.0):
        raise DomainError(f"classify needs positive x, y, z, got ({x!r}, {y!r}, {z!r})")
    s = x + y
    d = abs(x - y)
    tol = DEFAULT_BOUNDARY_EPS * s
    if abs(z - d) <= tol or abs(z - s) <= tol:
        return Region.BOUNDARY
    _require_angle_scale("triple", (x, y, z), 2.0 * x * y, (z - d) * (z + d), (s - z) * (s + z))
    if z < d:
        return Region.INNER
    if z > s:
        return Region.OUTER
    return Region.BAND


def _interior_region(x: float, y: float, z: float) -> Region:
    """classify's region, with BoundaryTripleError on a region boundary."""
    region = classify(x, y, z)
    if region is Region.BOUNDARY:
        raise BoundaryTripleError(
            f"triple ({x!r}, {y!r}, {z!r}) lies on a region boundary; "
            "the kernel may diverge there")
    return region


def r_kernel(orders: MacdonaldOrders, x: float, y: float, z: float) -> float:
    """R_{mu,nu}(x, y, z): 0 inside, Legendre-P band value, Legendre-Q outer
    value (identically 0 when nu - mu is an integer n >= 0)."""
    region = _interior_region(x, y, z)
    if region is Region.INNER:
        return 0.0
    if region is Region.OUTER:
        return core.r_outer(orders.mu, orders.nu, x, y, z)
    return core.r_band(orders.mu, orders.nu, x, y, z)


def r_kernel_gegenbauer(mu: float, n: int, x: float, y: float, z: float) -> float:
    """The nu = mu + n special case through the Gegenbauer polynomial.

    Needs mu > -1/2 and mu != 0 so Gamma(2 mu) and C_n^mu are well defined;
    vanishes off the band (the outer sine factor is exactly zero here).
    """
    if not mu > -0.5 or mu == 0.0:
        raise DomainError(f"gegenbauer-case mu={mu!r} must exceed -1/2 and be nonzero")
    if n < 0 or n != int(n):
        raise DomainError(f"gegenbauer-case offset n={n!r} must be a nonnegative integer")
    if _interior_region(x, y, z) is not Region.BAND:
        return 0.0
    return core.r_gegenbauer_band(mu, int(n), x, y, z)
