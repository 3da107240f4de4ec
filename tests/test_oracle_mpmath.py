"""Independent high-precision oracle: mpmath at 40 digits.

A seeded sweep of the normalized Bessel function
Gamma(nu+1) (x/2)^(-nu) J_nu(x) against ``mpmath.besselj``, over
nu in (-1, 3.5] and x log-uniform on [1e-3, 25], the region the power series
serves.  The tolerance is |err| <= 1e-14 |ref| + 1e-20.

Known hole, not claimed here: at large order and argument (nu > 3.5,
x > 25) the series is used up to x = 2 nu^2 and cancels beyond what
double-double arithmetic can hold.  That region gets its own failing-first
test with its fix.
"""

import math
import random

import pytest

from gfkernel import specfn

mpmath = pytest.importorskip("mpmath")

_POINTS = 400
_RTOL = 1e-14
_ATOL = 1e-20


def _reference(nu, x):
    with mpmath.workdps(40):
        nu_m = mpmath.mpf(nu)
        x_m = mpmath.mpf(x)
        return float(mpmath.gamma(nu_m + 1) * (x_m / 2) ** (-nu_m) * mpmath.besselj(nu_m, x_m))


def _sweep():
    rng = random.Random(20231)
    lo, hi = math.log(1e-3), math.log(25.0)
    pts = []
    for _ in range(_POINTS):
        nu = 3.5 - rng.random() * 4.5  # (-1, 3.5]
        pts.append((nu, math.exp(rng.uniform(lo, hi))))
    return pts


def test_normalized_bessel_j_against_mpmath():
    bad = []
    for nu, x in _sweep():
        ref = _reference(nu, x)
        got = specfn.normalized_bessel_j(nu, x)
        err = abs(got - ref)
        if err > _RTOL * abs(ref) + _ATOL:
            bad.append((nu, x, got, ref, err))
    assert not bad, f"{len(bad)} of {_POINTS} points outside tolerance, e.g. {bad[:3]}"
