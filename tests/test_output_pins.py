"""Bit pins of whole harness outputs: a standing guard against output drift.

Each value is pinned by ``float.hex``, so any change to the arithmetic
behind it, however small, fails here.  A change that speeds the code up
must leave these bits alone.  A change that moves them on purpose records
them again and says so in CHANGES.md.  The pins hold for the pure-Python
core, the reference, which the tests swap in whichever backend is selected.
"""

import pytest

from gfkernel import Params, _corepy, genkernel, harness, macdonald, quadrature
from gfkernel.harness import (
    gamma_mass,
    gaussian_profile,
    hankel_identity_eq1,
    hankel_identity_eq2,
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
    # compact support (2/a = 2)
    "gamma_mass_compact": (lambda: gamma_mass(Params(0.5, 1.0), 0.4, 1.2, SPEC),
                           (("0x1.0000000000000p+0", "0x1.8ea5be86a0000p-106"),
                            "0x1.b328000000000p-40")),
    # the golden 9x9 grid's maximum, 1.5340381033147308
    "tv_golden_max": (lambda: tv_norm(P_GOLDEN, 0.1, 10.000000000000005, TV_SPEC),
                      "0x1.88b6b89c8dfccp+0"),
    # (0.5, 1): the band density changes sign inside the band
    "tv_sign_break": (lambda: tv_norm(Params(0.5, 1.0), 0.316227766016838, 1.0, TV_SPEC),
                      "0x1.281d79dc3db30p+0"),
    "translate": (lambda: translate(P_GOLDEN, 0.8, gaussian_profile(1.0), -1.3, SPEC),
                  ("0x1.946b6992b859dp-4", "0x0.0p+0")),
    "hankel_eq1_rhs": (lambda: hankel_identity_eq1(0.4, 0.9, 0.8, 1.1, 1.3, SPEC).rhs,
                       ("0x1.82603e47aacb1p-1", "0x0.0p+0")),
    "hankel_eq2_rhs": (lambda: hankel_identity_eq2(0.4, 0.9, 0.8, 1.1, 1.3, SPEC).rhs,
                       ("0x1.f93e262f4b447p-2", "0x0.0p+0")),
}


@pytest.mark.parametrize("name", sorted(_PINS))
def test_output_bits(name):
    compute, want = _PINS[name]
    assert _hex(compute()) == want
