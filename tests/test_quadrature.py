"""Quadrature engines: examples, determinism, error paths."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gfkernel import Params, delta_density
from gfkernel.errors import ConvergenceError, DomainError
from gfkernel.quadrature import (
    QuadratureSpec,
    bessel_zeros,
    integrate_bessel_oscillatory,
    integrate_power_tail,
    integrate_singular_band,
    integrate_singular_band2,
)
from gfkernel._backend import core

SPEC = QuadratureSpec()


class TestSpecValidation:
    def test_defaults(self):
        s = QuadratureSpec()
        assert s.abs_tol == 1e-10 and s.rel_tol == 1e-9
        assert s.max_levels == 12 and s.osc_max_zeros == 200 and s.accel_terms == 12

    def test_invariants(self):
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(max_levels=3)
        with pytest.raises(DomainError):
            QuadratureSpec(osc_max_zeros=4)


class TestSingularBand:
    def test_unit(self):
        r = integrate_singular_band(lambda t: 1.0, 0.0, 1.0)
        assert_allclose(r.value, 1.0, rtol=1e-13)

    def test_arcsine_distance_aware(self):
        # (1-t^2)^(-1/2) through the exact endpoint distances
        r = integrate_singular_band2(lambda t, dlo, dhi: (dlo * dhi) ** -0.5, -1.0, 1.0)
        assert abs(r.value - math.pi) <= 1e-10
        assert r.est_error <= 1e-9

    def test_power_singularity(self):
        r = integrate_singular_band(lambda t: t ** -0.4, 0.0, 1.0)
        assert abs(r.value - 1.0 / 0.6) <= 1e-10

    def test_smooth(self):
        r = integrate_singular_band(math.sin, 0.0, math.pi)
        assert_allclose(r.value, 2.0, rtol=1e-12)

    def test_complex_integrand(self):
        r = integrate_singular_band(lambda t: complex(t, t * t), 0.0, 1.0)
        assert_allclose(r.value, complex(0.5, 1.0 / 3.0), rtol=1e-12)

    def test_deterministic(self):
        a = integrate_singular_band(lambda t: t ** -0.4, 0.0, 1.0)
        b = integrate_singular_band(lambda t: t ** -0.4, 0.0, 1.0)
        assert a == b

    def test_doubling_levels_converged_result(self):
        f = lambda t: t ** -0.25
        base = integrate_singular_band(f, 0.0, 1.0, QuadratureSpec(max_levels=12))
        deep = integrate_singular_band(f, 0.0, 1.0, QuadratureSpec(max_levels=24))
        assert abs(base.value - deep.value) <= base.est_error + 1e-16

    def test_est_error_vs_refined(self):
        f = lambda t: (1.0 - t * t) ** -0.25
        loose = integrate_singular_band(f, -1.0, 1.0, QuadratureSpec(abs_tol=1e-6, rel_tol=1e-5))
        tight = integrate_singular_band(f, -1.0, 1.0, QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12))
        assert abs(loose.value - tight.value) <= loose.est_error

    def test_empty_interval(self):
        with pytest.raises(DomainError):
            integrate_singular_band(lambda t: 1.0, 1.0, 1.0)


class TestPowerTail:
    def test_inverse_square(self):
        r = integrate_power_tail(lambda t: t ** -2.0, 1.0, -2.0)
        assert_allclose(r.value, 1.0, rtol=1e-12)
        assert r.truncation_bound == 0.0

    def test_inverse_cube(self):
        r = integrate_power_tail(lambda t: t ** -3.0, 2.0, -3.0)
        assert_allclose(r.value, 0.125, rtol=1e-12)

    def test_slow_decay_rejected(self):
        with pytest.raises(ConvergenceError, match="slower than promised"):
            integrate_power_tail(lambda t: t ** -1.2, 1.0, -3.0)

    def test_precondition(self):
        with pytest.raises(DomainError):
            integrate_power_tail(lambda t: t ** -3.0, 1.0, -0.5)

    def test_zero_tail(self):
        r = integrate_power_tail(lambda t: 0.0, 1.0, -3.0)
        assert r.value == 0.0

    def test_est_error_vs_refined(self):
        f = lambda t: t ** -2.5 * (1.0 + 1.0 / t)
        loose = integrate_power_tail(f, 1.0, -2.5, QuadratureSpec(abs_tol=1e-6, rel_tol=1e-5))
        tight = integrate_power_tail(f, 1.0, -2.5, QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12))
        assert abs(loose.value - tight.value) <= loose.est_error

    def test_density_tail_slope(self):
        # the z-line density tail decays like z^-3 for the fractional case
        p = Params(0.75, 4.0 / 3.0)
        x, y = 0.4, 0.7
        zs = np.geomspace(10.0, 100.0, 12)
        vals = np.array([abs(delta_density(p, x, y, float(z))) * float(z) ** p.w
                         for z in zs])
        slope = np.polyfit(np.log(zs), np.log(vals), 1)[0]
        assert abs(slope - (-3.0)) <= 0.1
        # deeper into the tail the finite-z bias dies off
        zs = np.geomspace(50.0, 500.0, 12)
        vals = np.array([abs(delta_density(p, 1.0, 1.3, float(z))) * float(z) ** p.w
                         for z in zs])
        slope = np.polyfit(np.log(zs), np.log(vals), 1)[0]
        assert abs(slope - (-3.0)) <= 0.03


class TestBesselOscillatory:
    def test_weber_j1(self):
        r = integrate_bessel_oscillatory(lambda t: 1.0, 1.0, 1.0, 0.0)
        assert abs(r.value - 1.0) <= 1e-8

    def test_weber_j0(self):
        r = integrate_bessel_oscillatory(lambda t: 1.0, 0.0, 1.0, 0.0)
        assert abs(r.value - 1.0) <= 1e-8

    def test_weber_bruteforce_crosscheck(self):
        # trapezoid over [0, T] plus the exact tail int_T^inf J_1 = J_0(T)
        ts = np.linspace(1e-9, 20.0 * math.pi, 20001)
        vals = np.array([core.bessel_j(1.0, float(v)) for v in ts])
        ref = float(np.trapezoid(vals, ts)) + core.bessel_j(0.0, float(ts[-1]))
        assert abs(ref - 1.0) <= 1e-5
        r = integrate_bessel_oscillatory(lambda t: 1.0, 1.0, 1.0, 0.0)
        assert abs(r.value - ref) <= 2e-5

    def test_laplace_transform(self):
        r = integrate_bessel_oscillatory(lambda t: math.exp(-t), 0.0, 1.0, 0.0)
        assert abs(r.value - 1.0 / math.sqrt(2.0)) <= 1e-10

    def test_frequency_scaling(self):
        # int_0^inf e^(-t) J_0(2t) dt = 1/sqrt(5)
        r = integrate_bessel_oscillatory(lambda t: math.exp(-t), 0.0, 2.0, 0.0)
        assert_allclose(r.value, 5.0 ** -0.5, rtol=1e-9)

    def test_est_error_vs_refined(self):
        f = lambda t: 1.0 / (1.0 + t)
        loose = integrate_bessel_oscillatory(f, 0.0, 1.0, 0.0,
                                             QuadratureSpec(abs_tol=1e-6, rel_tol=1e-5))
        tight = integrate_bessel_oscillatory(f, 0.0, 1.0, 0.0,
                                             QuadratureSpec(abs_tol=1e-11, rel_tol=1e-10))
        assert abs(loose.value - tight.value) <= loose.est_error

    def test_failure_carries_partial(self):
        spec = QuadratureSpec(osc_max_zeros=8, accel_terms=4)
        with pytest.raises(ConvergenceError) as err:
            integrate_bessel_oscillatory(lambda t: 1.0 / (1.0 + t * 1e-4), 0.0, 1.0, 0.0, spec)
        assert err.value.partial is not None

    def test_validation(self):
        with pytest.raises(DomainError):
            integrate_bessel_oscillatory(lambda t: 1.0, 0.0, -1.0, 0.0)


class TestBesselZeros:
    @pytest.mark.parametrize("order", [0.0, 0.375, 1.875, 4.5])
    def test_zeros_are_zeros(self, order):
        zs = bessel_zeros(order, 12)
        assert all(b > a for a, b in zip(zs, zs[1:]))
        for z in zs:
            assert abs(core.bessel_j(order, z)) < 1e-9

    @pytest.mark.parametrize("order", [-0.45, 0.0, 1.875])
    def test_ladder_from_a_later_zero(self, order):
        assert bessel_zeros(order, 20, 37) == bessel_zeros(order, 56)[36:]

    def test_known_j0_zeros(self):
        zs = bessel_zeros(0.0, 3)
        assert_allclose(zs, [2.404825557695773, 5.520078110286311, 8.653727912911013],
                        rtol=1e-9)
