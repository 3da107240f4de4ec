"""The deformed one-dimensional kernel and its product-formula density.

Parameter conventions: multiplicity k >= 0 and deformation a > 0, with the
derived quantities

    mu_m = (2k-1)/a,   nu_m = (2k+1)/a,   w = 2k + a - 2.

Two validity levels coexist.  The kernel B alone only needs both Bessel
orders above -1, which is exactly w > -1 and is enforced at construction.
Everything built on the triple-Bessel density additionally needs the
Macdonald admissibility mu_m > -1/2 (equivalently 2k > 1 - a/2); operations
on the density call :meth:`Params.require_macdonald`.  The paper's abstract
states the condition 2k > a - 1 instead; it is surfaced in diagnostics but
is not the gate.  It is stronger than mu_m > -1/2 only for a > 4/3.  For
a < 4/3 it admits mu_m in (1 - 2/a, -1/2], which the gate refuses: whether
the product formula holds there is an open question of this reproduction,
and if it does, that region is a gap in it.

Complex values are carried in rectangular form end to end; the phases
e^(-i pi / a) and e^(-2 i pi / a) are materialized once per parameter set
as (cos, -sin) pairs and no polar decomposition ever happens.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._backend import core
from .errors import DomainError, finite_constant, require_finite
from .macdonald import MacdonaldOrders, r_kernel

__all__ = ["Params", "m_const", "b_kernel", "delta_density"]


class _Params(NamedTuple):
    k: float
    a: float
    mu_m: float
    nu_m: float
    w: float


class Params(_Params):
    """The (k, a) parameter pair with its derived orders and weight exponent."""

    __slots__ = ()

    def __new__(cls, k: float, a: float):
        if not (math.isfinite(k) and math.isfinite(a)):
            raise DomainError("k and a must be finite")
        if k < 0.0:
            raise DomainError(f"multiplicity k={k!r} must be >= 0")
        if a <= 0.0:
            raise DomainError(f"deformation a={a!r} must be > 0")
        w = 2.0 * k + a - 2.0
        if not w > -1.0:
            raise DomainError(
                f"weight exponent w=2k+a-2={w!r} must exceed -1 "
                "(Bessel orders (2k+-1)/a must exceed -1)")
        return super().__new__(cls, k, a, (2.0 * k - 1.0) / a, (2.0 * k + 1.0) / a, w)

    def __getnewargs__(self):
        return self.k, self.a

    @property
    def macdonald_admissible(self) -> bool:
        """mu_m > -1/2, the validity domain of the triple-Bessel formulas."""
        return self.mu_m > -0.5

    @property
    def abstract_condition_2k_gt_am1(self) -> bool:
        """The abstract's condition 2k > a-1 (diagnostic only).  Stronger than
        mu_m > -1/2 for a > 4/3; for a < 4/3 it also admits mu_m in
        (1 - 2/a, -1/2], where the density gate refuses (see the module
        docstring)."""
        return 2.0 * self.k > self.a - 1.0

    def require_macdonald(self) -> None:
        if not self.macdonald_admissible:
            raise DomainError(
                f"mu=(2k-1)/a must exceed -1/2 for the product-formula density; "
                f"got mu={self.mu_m!r} (k={self.k!r}, a={self.a!r}); "
                f"diagnostic 2k>a-1 holds: {self.abstract_condition_2k_gt_am1}")

    def orders(self) -> MacdonaldOrders:
        self.require_macdonald()
        return MacdonaldOrders(self.mu_m, self.nu_m)

    @property
    def band_offset_integer(self) -> bool:
        """True when nu_m - mu_m = 2/a is an integer: compact support case."""
        d = 2.0 / self.a
        return abs(d - round(d)) <= 1e-12


def m_const(p: Params) -> complex:
    """e^(-i pi/a) Gamma((2k+a-1)/a) / (a^(2/a) Gamma((2k+a+1)/a)).

    The gamma arguments are mu_m + 1 and nu_m + 1; both exceed 0 whenever
    the Params invariant w > -1 holds, so no pole can occur here.
    """
    mod = math.exp(math.lgamma(p.mu_m + 1.0) - math.lgamma(p.nu_m + 1.0)
                   - (2.0 / p.a) * math.log(p.a))
    ph = math.pi / p.a
    return complex(mod * math.cos(ph), -mod * math.sin(ph))


def b_kernel(p: Params, lam: float, x: float) -> complex:
    """B(lambda, x): the even normalized-Bessel term plus m * lambda x times
    the odd one, both at argument (2/a)|lambda x|^(a/2).  Equals 1 at
    lambda x = 0 and depends on (lambda, x) only through their product."""
    require_finite(lam=lam, x=x)
    lx = lam * x
    if lx == 0.0:
        return complex(1.0, 0.0)
    arg = (2.0 / p.a) * math.pow(abs(lx), 0.5 * p.a)
    even = core.normalized_bessel_j(p.mu_m, arg)
    odd = core.normalized_bessel_j(p.nu_m, arg)
    return even + m_const(p) * lx * odd


def _delta_prefactor(p: Params) -> float:
    """a 2^(mu_m - 2) Gamma(mu_m + 1), the overall density constant."""
    return finite_constant(
        f"density constant a 2^(mu-2) Gamma(mu+1) at mu={p.mu_m!r}",
        lambda: p.a * math.pow(2.0, p.mu_m - 2.0) * math.exp(math.lgamma(p.mu_m + 1.0)))


def _phase_e2a(p: Params) -> complex:
    ph = 2.0 * math.pi / p.a
    return complex(math.cos(ph), -math.sin(ph))


def delta_density(p: Params, x: float, y: float, z: float) -> complex:
    """The four-term product-formula density Delta(x, y, z) (without the
    weight |z|^w).

    Prefactor a 2^(mu-2) Gamma(mu+1) times, with X = |x|^(a/2) etc.,

        [ R_{mu,mu}(X,Y,Z) + e^(-2 i pi/a) sgn(xy) R_{mu,nu}(X,Y,Z)
          + sgn(xz) R_{mu,nu}(X,Z,Y) + sgn(yz) R_{mu,nu}(Y,Z,X) ] / |xyz|^(k-1/2)
    """
    orders = p.orders()
    require_finite(x=x, y=y, z=z)
    if x == 0.0 or y == 0.0 or z == 0.0:
        raise DomainError("delta_density requires nonzero x, y, z "
                          "(degenerate base points carry Dirac measures)")
    const = _delta_prefactor(p)  # before the kernels, so both cores raise its overflow
    even_orders = MacdonaldOrders(p.mu_m, p.mu_m)
    ha = 0.5 * p.a
    xa, ya, za = math.pow(abs(x), ha), math.pow(abs(y), ha), math.pow(abs(z), ha)
    t1 = r_kernel(even_orders, xa, ya, za)
    t2 = r_kernel(orders, xa, ya, za)
    t3 = r_kernel(orders, xa, za, ya)
    t4 = r_kernel(orders, ya, za, xa)
    sxy = math.copysign(1.0, x) * math.copysign(1.0, y)
    sxz = math.copysign(1.0, x) * math.copysign(1.0, z)
    syz = math.copysign(1.0, y) * math.copysign(1.0, z)
    total = (t1 + _phase_e2a(p) * (sxy * t2)) + complex(sxz * t3 + syz * t4)
    return const * math.pow(abs(x * y * z), 0.5 - p.k) * total
