"""Kernel and density layer."""

import cmath
import math
import random

import pytest
from numpy.testing import assert_allclose

from gfkernel import Params, b_kernel, delta_density, m_const
from gfkernel.errors import DomainError


class TestParams:
    def test_derived_quantities(self):
        p = Params(0.75, 4.0 / 3.0)
        assert_allclose(p.mu_m, 0.375)
        assert_allclose(p.nu_m, 1.875)
        assert_allclose(p.w, 2.0 * 0.75 + 4.0 / 3.0 - 2.0)
        assert_allclose(p.nu_m - p.mu_m, 2.0 / p.a, rtol=1e-15)

    def test_kernel_level_validity_admits_k0_a2(self):
        # orders are exactly +-1/2 here: fine for the kernel, not for the density
        p = Params(0.0, 2.0)
        assert not p.macdonald_admissible
        with pytest.raises(DomainError, match="mu=\\(2k-1\\)/a must exceed -1/2"):
            p.require_macdonald()

    def test_rejects_nonintegrable_weight(self):
        with pytest.raises(DomainError):
            Params(0.0, 0.5)  # w = -1.5
        with pytest.raises(DomainError):
            Params(-0.1, 2.0)
        with pytest.raises(DomainError):
            Params(0.5, 0.0)

    def test_band_offset_flag(self):
        assert Params(0.5, 2.0).band_offset_integer
        assert Params(0.5, 1.0).band_offset_integer
        assert Params(1.0, 2.0 / 3.0).band_offset_integer
        assert not Params(0.75, 4.0 / 3.0).band_offset_integer
        assert not Params(1.0, 3.0).band_offset_integer


class TestMConst:
    def test_k0_a2(self):
        assert_allclose(m_const(Params(0.0, 2.0)), -1j, rtol=1e-15)

    @pytest.mark.parametrize("k", [0.25, 0.7, 1.3])
    def test_a2_family(self, k):
        # gamma recurrence collapses the ratio to 1/(2k+1)
        assert_allclose(m_const(Params(k, 2.0)), -1j / (2.0 * k + 1.0), rtol=1e-14)

    @pytest.mark.parametrize("k,a", [(0.5, 1.7), (1.0, 0.9), (0.75, 4.0 / 3.0)])
    def test_modulus(self, k, a):
        p = Params(k, a)
        want = math.exp(math.lgamma(p.mu_m + 1.0) - math.lgamma(p.nu_m + 1.0)
                        - (2.0 / a) * math.log(a))
        assert_allclose(abs(m_const(p)), want, rtol=1e-14)

    def test_coefficient_identity(self):
        # m^2 a^(4/a) Gamma(nu+1)^2 / Gamma(mu+1) = e^(-2 i pi/a) Gamma(mu+1)
        rng = random.Random(0)
        for _ in range(10):
            k = rng.uniform(0.1, 2.0)
            a = rng.uniform(0.4, 3.0)
            p = Params(k, a)
            m = m_const(p)
            lhs = (m * m * a ** (4.0 / a)
                   * math.gamma(p.nu_m + 1.0) ** 2 / math.gamma(p.mu_m + 1.0))
            rhs = cmath.exp(-2j * math.pi / a) * math.gamma(p.mu_m + 1.0)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


class TestBKernel:
    def test_unit_at_zero(self):
        assert b_kernel(Params(1.0, 2.0), 0.0, 5.0) == 1.0
        assert b_kernel(Params(0.6, 1.3), 2.0, 0.0) == 1.0

    @pytest.mark.parametrize("lam,x", [(1.0, math.nan), (math.inf, 0.0), (-math.inf, 1.0)])
    def test_non_finite_arguments_rejected(self, lam, x):
        with pytest.raises(DomainError, match="must be finite"):
            b_kernel(Params(1.0, 1.0), lam, x)

    def test_symmetry_in_lambda_x(self):
        p = Params(0.7, 1.7)
        for lam, x in [(0.9, 1.4), (2.0, 0.3), (-1.2, 0.8)]:
            assert b_kernel(p, lam, x) == b_kernel(p, x, lam)

    def test_plane_wave_at_k0_a2(self):
        p = Params(0.0, 2.0)
        for lam in (0.5, 1.0, 2.0, 3.0, 5.0):
            for x in (0.5, 1.0, 2.0, 3.0, 5.0):
                assert abs(b_kernel(p, lam, x) - cmath.exp(-1j * lam * x)) <= 1e-12

    def test_a2_conjugation_under_lambda_flip(self):
        p = Params(0.8, 2.0)
        for lam, x in [(0.9, 1.4), (1.7, 2.1)]:
            assert abs(b_kernel(p, -lam, x) - b_kernel(p, lam, x).conjugate()) < 1e-15


class TestDeltaDensity:
    def test_symmetric_in_xy(self):
        p = Params(0.75, 4.0 / 3.0)
        for (x, y, z) in [(1.0, 1.2, 0.9), (0.5, 2.0, 1.4), (-1.0, 1.2, 0.9)]:
            assert_allclose(delta_density(p, x, y, z), delta_density(p, y, x, z),
                            rtol=1e-13)

    def test_real_for_a_two(self):
        p = Params(0.8, 2.0)
        for (x, y, z) in [(1.0, 1.2, 0.9), (0.5, 2.0, 1.7)]:
            v = delta_density(p, x, y, z)
            assert abs(v.imag) <= 1e-15 * max(abs(v.real), 1.0)

    def test_compact_support_for_integer_offset(self):
        p = Params(0.5, 1.0)  # 2/a = 2
        x, y = 1.0, 1.2
        xa, ya = abs(x) ** (p.a / 2), abs(y) ** (p.a / 2)
        z_out = ((xa + ya) * 1.3) ** (2.0 / p.a)
        assert abs(delta_density(p, x, y, z_out)) == 0.0
        z_in = (abs(xa - ya) * 0.5) ** (2.0 / p.a)
        assert abs(delta_density(p, x, y, z_in)) == 0.0

    def test_noncompact_for_fractional_offset(self):
        p = Params(0.75, 4.0 / 3.0)
        xa = 1.0
        z_out = ((2.0 * xa) * 1.2) ** (2.0 / p.a)
        assert abs(delta_density(p, 1.0, 1.0, z_out)) > 1e-4

    def test_degenerate_arguments_rejected(self):
        p = Params(0.5, 2.0)
        with pytest.raises(DomainError):
            delta_density(p, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            delta_density(p, 1.0, 1.0, 0.0)

    def test_requires_macdonald_admissibility(self):
        with pytest.raises(DomainError):
            delta_density(Params(0.0, 2.0), 1.0, 1.0, 0.5)

    @pytest.mark.parametrize("x,y,z", [(math.nan, 1.0, 1.0), (1.0, math.inf, 1.0),
                                       (1.0, 1.0, -math.inf)])
    def test_non_finite_arguments_rejected(self, x, y, z):
        with pytest.raises(DomainError, match="must be finite"):
            delta_density(Params(0.75, 4.0 / 3.0), x, y, z)
