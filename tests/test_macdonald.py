"""Triple-Bessel kernel: region geometry, branch values, defining integral."""

import math

import pytest
from numpy.testing import assert_allclose

from gfkernel import (MacdonaldOrders, Region, _corepy, classify, macdonald, r_kernel,
                      r_kernel_gegenbauer)
from gfkernel.errors import BoundaryTripleError, DomainError
from oracles import triple_bessel_oracle

HALF = MacdonaldOrders(0.5, 0.5)


class TestClassify:
    def test_inner(self):
        assert classify(3.0, 1.0, 1.5) is Region.INNER

    def test_band_equilateral(self):
        assert classify(1.0, 1.0, 1.0) is Region.BAND

    def test_outer(self):
        assert classify(1.0, 1.0, 3.0) is Region.OUTER

    def test_boundary_bands(self):
        assert classify(1.0, 1.0, 2.0) is Region.BOUNDARY
        assert classify(2.0, 1.0, 1.0 + 1e-15) is Region.BOUNDARY

    def test_positivity(self):
        with pytest.raises(DomainError):
            classify(0.0, 1.0, 1.0)

    @pytest.mark.parametrize("x, y, z", [
        (1e-170, 1e-170, 1e-170),     # 2xy below the normal range
        (1e160, 1e160, 1e160),        # 2xy past it
        (1e-150, 1e-160, 1e-150),     # band, 2xy = 2e-310
        (1e150, 1e150, 1e155),        # outer, (z - |x-y|)(z + |x-y|) = inf
        (1.2e-154, 1e-154, 1e-156),   # inner, (z - |x-y|)(z + |x-y|) = -4e-310
    ])
    def test_extreme_scale_is_refused(self, x, y, z):
        with pytest.raises(DomainError, match="outside the scale"):
            classify(x, y, z)


class TestExtremeScale:
    @pytest.mark.parametrize("t", [1e-170, 1e160])
    def test_kernel_refuses_the_triple(self, t):
        # before the check: ZeroDivisionError at 1e-170 and a
        # ConvergenceError naming z=nan at 1e160
        with pytest.raises(DomainError, match="outside the scale"):
            r_kernel(MacdonaldOrders(0.4, 1.1), t, t, t)

    @pytest.mark.parametrize("t, want", [(1e-100, "0x1.9ee93d03e92e8p+529"),
                                         (1e100, "0x1.9a0dac79b0cb1p-534")])
    def test_kernel_keeps_its_value_inside_the_range(self, t, want, monkeypatch):
        # the bits of the pure-Python core, the reference
        monkeypatch.setattr(macdonald, "core", _corepy)
        assert r_kernel(MacdonaldOrders(0.4, 1.1), t, t, t).hex() == want


class TestRKernel:
    def test_inner_zero(self):
        assert r_kernel(MacdonaldOrders(0.4, 0.9), 3.0, 1.0, 1.5) == 0.0

    def test_boundary_error(self):
        with pytest.raises(BoundaryTripleError):
            r_kernel(HALF, 1.0, 1.0, 2.0)

    def test_half_order_closed_form(self):
        got = r_kernel(HALF, 1.0, 1.0, 1.0)
        assert_allclose(got, 1.0 / math.sqrt(2.0 * math.pi), rtol=1e-14)

    @pytest.mark.parametrize("x", [0.5, 1.2, 2.1])
    @pytest.mark.parametrize("y", [0.4, 1.0])
    def test_half_order_band_grid(self, x, y):
        for frac in (0.2, 0.5, 0.85):
            z = abs(x - y) + frac * ((x + y) - abs(x - y))
            got = r_kernel(HALF, x, y, z)
            assert_allclose(got, 1.0 / math.sqrt(2.0 * math.pi * x * y * z), rtol=1e-12)

    def test_symmetry_in_xy(self):
        orders = MacdonaldOrders(0.4, 0.9)
        for (x, y, z) in [(1.0, 1.3, 0.8), (0.6, 2.0, 2.8), (1.5, 0.5, 1.2)]:
            assert_allclose(r_kernel(orders, x, y, z), r_kernel(orders, y, x, z),
                            rtol=1e-13, atol=1e-300)

    def test_outer_integer_offset_vanishes(self):
        for n in (0, 1, 2):
            orders = MacdonaldOrders(0.6, 0.6 + n)
            assert r_kernel(orders, 1.0, 1.0, 3.0) == 0.0

    def test_outer_negative_integer_offset_is_the_limit(self):
        # nu - mu = -1: R_{1,0} = 1/z off the band, where it used to be 0
        got = r_kernel(MacdonaldOrders(1.0, 0.0), 1.0, 1.2, 3.0)
        assert got == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert got == pytest.approx(r_kernel(MacdonaldOrders(1.0, 1e-11), 1.0, 1.2, 3.0),
                                    rel=1e-10)

    def test_outer_sign_structure(self):
        # sign of the outer branch follows sin((mu-nu) pi)
        assert r_kernel(MacdonaldOrders(0.4, 0.9), 1.0, 1.1, 2.8) < 0.0
        assert r_kernel(MacdonaldOrders(0.25, 1.75), 0.9, 1.0, 2.4) > 0.0

    def test_order_validation(self):
        with pytest.raises(DomainError):
            MacdonaldOrders(-0.6, 0.5)


class TestGegenbauerSpecialCase:
    def test_off_band_zero(self):
        assert r_kernel_gegenbauer(0.8, 1, 3.0, 1.0, 1.5) == 0.0
        assert r_kernel_gegenbauer(0.8, 1, 1.0, 1.0, 3.0) == 0.0

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_matches_general_path(self, n):
        mu = 0.8
        for (x, y, z) in [(1.0, 1.2, 1.5), (0.7, 0.9, 1.1), (2.0, 0.6, 1.8)]:
            want = r_kernel(MacdonaldOrders(mu, mu + n), x, y, z)
            got = r_kernel_gegenbauer(mu, n, x, y, z)
            assert abs(got - want) <= 1e-10 * max(abs(want), 1e-3)

    def test_n1_cross_orders(self):
        got = r_kernel_gegenbauer(0.8, 1, 1.0, 1.2, 1.5)
        want = r_kernel(MacdonaldOrders(0.8, 1.8), 1.0, 1.2, 1.5)
        assert_allclose(got, want, rtol=1e-10)

    def test_validation(self):
        with pytest.raises(DomainError):
            r_kernel_gegenbauer(0.0, 1, 1.0, 1.2, 1.5)


@pytest.mark.parametrize("mu,nu", [(0.4, 0.9), (0.25, 1.75)])
@pytest.mark.parametrize("triple", [(1.0, 1.2, 1.5), (0.8, 1.1, 1.6), (1.0, 1.0, 0.9)])
def test_defining_integral_oracle(mu, nu, triple):
    """Kernel value equals the zero-partitioned, accelerated evaluation of
    the defining semi-infinite triple-Bessel integral to 1e-5."""
    x, y, z = triple
    want = r_kernel(MacdonaldOrders(mu, nu), x, y, z)
    got = triple_bessel_oracle(mu, nu, x, y, z)
    assert abs(got - want) <= 1e-5
