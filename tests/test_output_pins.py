"""Bit pins of whole harness outputs: a standing guard against output drift.

Each value is pinned by ``float.hex``, so any change to the arithmetic
behind it, however small, fails here.  A change that speeds the code up
must leave these bits alone.  A change that moves them on purpose records
them again, next to a check that the new value is at least as close to a
reference as the old one (``_MOVED``), and says so in CHANGES.md.  The pins hold for the pure-Python
core, the reference, which the tests swap in whichever backend is selected.
"""

import pytest

from gfkernel import Params, _corepy, genkernel, harness, macdonald, quadrature
from gfkernel.harness import (
    gamma_mass,
    gaussian_profile,
    hankel_identity_eq1,
    hankel_identity_eq2,
    legendre_q_integral_check,
    product_residual,
    translate,
    tv_norm,
)
from gfkernel.quadrature import QuadratureSpec

SPEC = QuadratureSpec()
TV_SPEC = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-7)   # as criterion c05
P_GOLDEN = Params(0.75, 4.0 / 3.0)


@pytest.fixture(autouse=True)
def pure_core(monkeypatch):
    for module in (genkernel, harness, macdonald, quadrature):
        monkeypatch.setattr(module, "core", _corepy)


def _hex(v):
    if isinstance(v, tuple):
        return tuple(_hex(p) for p in v)
    if isinstance(v, complex):
        return (v.real.hex(), v.imag.hex())
    return v.hex()


_PINS = {
    # product-formula rhs at two points of criterion c02's grid
    "product_rhs_c02_a": (lambda: product_residual(P_GOLDEN, 0.7, 0.4, 1.2, SPEC).rhs,
                          ("0x1.d4fa7844265b5p-2", "-0x1.666ec404146a4p-3")),
    "product_rhs_c02_b": (lambda: product_residual(P_GOLDEN, 1.9, 1.2, 2.5, SPEC).rhs,
                          ("0x1.fc471c8d76cb3p-7", "0x1.e1973dba6a7b8p-4")),
    # compact support (2/a = 2): the band by Gauss-Jacobi rules
    "gamma_mass_compact": (lambda: gamma_mass(Params(0.5, 1.0), 0.4, 1.2, SPEC),
                           (("0x1.0000000000000p+0", "0x0.0p+0"),
                            "0x1.0000000000000p-54")),
    # the golden 9x9 grid's maximum, 1.5340381033147308
    "tv_golden_max": (lambda: tv_norm(P_GOLDEN, 0.1, 10.000000000000005, TV_SPEC),
                      "0x1.88b6b89c8dfccp+0"),
    # (0.5, 1): the band density changes sign inside the band
    "tv_sign_break": (lambda: tv_norm(Params(0.5, 1.0), 0.316227766016838, 1.0, TV_SPEC),
                      "0x1.281d79dc3db32p+0"),
    "translate": (lambda: translate(P_GOLDEN, 0.8, gaussian_profile(1.0), -1.3, SPEC),
                  ("0x1.946b6992b859dp-4", "0x0.0p+0")),
    "hankel_eq1_rhs": (lambda: hankel_identity_eq1(0.4, 0.9, 0.8, 1.1, 1.3, SPEC).rhs,
                       ("0x1.82603e47aacb1p-1", "0x0.0p+0")),
    "hankel_eq2_rhs": (lambda: hankel_identity_eq2(0.4, 0.9, 0.8, 1.1, 1.3, SPEC).rhs,
                       ("0x1.f93e262f4b447p-2", "0x0.0p+0")),
    # 2/a = 3/2: the infinite tail by the power-tail engine
    "gamma_mass_tail": (lambda: gamma_mass(P_GOLDEN, 0.4, 1.2, SPEC),
                        (("0x1.0000000000001p+0", "-0x1.2a00000000000p-49"),
                         "0x1.b5749cf73013bp-37")),
    # mu = -0.45: each half of the band integrated in s = d^(1 + p)
    "product_rhs_edge_substituted": (
        lambda: product_residual(Params(0.1625, 1.5), 0.7, 0.9, 1.4, SPEC).rhs,
        ("-0x1.567a0ec462c1ap-2", "-0x1.9b4d5bbaf1fa8p-3")),
    "legendre_q_rhs": (lambda: legendre_q_integral_check(0.25, 1.25, SPEC).rhs,
                       ("0x1.8ce17a36bd8ecp-1", "0x0.0p+0")),
}


@pytest.mark.parametrize("name", sorted(_PINS))
def test_output_bits(name):
    compute, want = _PINS[name]
    assert _hex(compute()) == want


def _tv_sign_break_reference():
    """tv_sign_break in 30 digits.  mu = 0, nu = 2, X = x^(1/2), Y = 1; the
    two signed band densities from mpmath's 2F1, in s with t = cos(theta) =
    sin(pi s / 2), which makes their d^(-1/2) edge growth smooth, each
    integrated by Gauss-Legendre between its own sign changes."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mpmath.workdps(30):
        half = mp.mpf(0.5)
        X, Y = mp.sqrt(mp.mpf(0.316227766016838)), mp.mpf(1)
        xy2, dm = 2 * X * Y, Y - X

        def r(n, a, b, c, omt):   # R_{0,n}(a, b, c), omt = 1 - cos(angle of a and b)
            return (omt ** -half * mp.hyp2f1(n + half, half - n, half, omt / 2)
                    / (a * b * mp.sqrt(2 * mp.pi) * mp.gamma(half)))

        def density(s, sign):   # times a 2^(mu-2) Gamma(mu+1) |dz/dt| and dt/ds
            omt = 2 * mp.sin(mp.pi * (1 - s) / 4) ** 2
            opt = 2 * mp.sin(mp.pi * (1 + s) / 4) ** 2
            Z = mp.sqrt(dm ** 2 + xy2 * omt)
            ez = xy2 * opt / (X + Y + Z)       # X + Y - Z
            lo = xy2 * omt / (Z + dm)          # Z - (Y - X)
            even = r(0, X, Y, Z, omt) + r(2, X, Y, Z, omt)
            odd = r(2, X, Z, Y, (dm + Z) * ez / (2 * X * Z)) + r(2, Y, Z, X, lo * ez / (2 * Y * Z))
            return (even + sign * odd) * X * Y / 2 * mp.pi / 2 * mp.cos(mp.pi * s / 2)

        def zero(f, a, b):   # bisection of a sign change in (a, b)
            fa = f(a)
            for _ in range(100):
                m = (a + b) / 2
                fm = f(m)
                if fa * fm > 0:
                    a, fa = m, fm
                else:
                    b = m
            return (a + b) / 2

        total = mp.mpf(0)
        for sign in (1, -1):
            def f(s):
                return density(s, sign)
            ss = [-1 + (2 * i + 1) * mp.mpf(1) / 128 for i in range(128)]
            vs = [f(s) for s in ss]
            edges = ([mp.mpf(-1)] + [zero(f, ss[i], ss[i + 1]) for i in range(127)
                                     if vs[i] * vs[i + 1] < 0] + [mp.mpf(1)])
            total += sum(abs(mp.quad(f, [a, b], method="gauss-legendre"))
                         for a, b in zip(edges, edges[1:]))
        return total


# moved pins: the value before the move, the reference, and the part of
# the pinned output that both are measured against
_MOVED = {
    "gamma_mass_compact": (complex(1.0, float.fromhex("0x1.d695fa1a80000p-108")),
                           lambda: 1.0, lambda v: v[0]),   # the mass is exactly 1
    "tv_sign_break": (float.fromhex("0x1.281d79dc3db30p+0"), _tv_sign_break_reference,
                      lambda v: v),
}


@pytest.mark.parametrize("name", sorted(_MOVED))
def test_moved_pins_are_at_least_as_close_to_their_reference(name):
    before, reference, part = _MOVED[name]
    ref = reference()
    now = part(_PINS[name][0]())
    assert abs(now - ref) <= abs(before - ref), (name, now, ref)
