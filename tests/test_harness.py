"""Verification harness: residual reports, sweeps, translation."""

import math

import pytest
from numpy.testing import assert_allclose

from gfkernel import Params, b_kernel
from gfkernel.errors import DomainError
from gfkernel.harness import (
    Axis,
    SweepGrid,
    Profile,
    bump_profile,
    gamma_mass,
    gaussian_profile,
    hankel_identity_eq1,
    hankel_identity_eq2,
    legendre_p_integral_check,
    legendre_q_integral_check,
    lp_bound_probe,
    product_residual,
    translate,
    tv_norm,
    tv_norm_report,
)
from gfkernel.quadrature import QuadratureSpec

SPEC = QuadratureSpec()
P_DUNKL = Params(0.5, 2.0)
P_FRAC = Params(0.75, 4.0 / 3.0)


class TestAxisGrid:
    def test_linear_values(self):
        assert Axis("x", 0.0, 1.0, 3).values() == [0.0, 0.5, 1.0]

    def test_log_values(self):
        vals = Axis("x", 0.1, 10.0, 3, "log").values()
        assert_allclose(vals, [0.1, 1.0, 10.0], rtol=1e-12)

    def test_single_point(self):
        assert Axis("x", 2.0, 2.0, 1).values() == [2.0]

    def test_validation(self):
        with pytest.raises(DomainError):
            Axis("x", 1.0, 0.0, 5)
        with pytest.raises(DomainError):
            Axis("x", -1.0, 1.0, 5, "log")
        with pytest.raises(DomainError):
            Axis("x", 0.0, 1.0, 0)

    def test_grid_points(self):
        grid = SweepGrid((Axis("x", 0.0, 1.0, 2), Axis("y", 5.0, 6.0, 2)))
        pts = list(grid.points())
        assert pts == [dict(x=0.0, y=5.0), dict(x=0.0, y=6.0),
                       dict(x=1.0, y=5.0), dict(x=1.0, y=6.0)]


class TestProductResidual:
    def test_report_invariant(self):
        r = product_residual(P_DUNKL, 1.1, 0.7, 1.3, SPEC)
        assert_allclose(r.rel_residual, r.abs_residual / (1.0 + abs(r.lhs)), rtol=1e-12)
        assert r.rel_residual <= 1e-6

    def test_dirac_cases_exact(self):
        r = product_residual(P_DUNKL, 1.1, 0.7, 0.0, SPEC)
        assert r.abs_residual == 0.0
        r = product_residual(P_DUNKL, 1.1, 0.0, 0.9, SPEC)
        assert r.abs_residual == 0.0

    def test_lambda_zero_is_mass(self):
        r = product_residual(P_FRAC, 0.0, 0.7, 1.3, SPEC)
        assert r.lhs == 1.0
        assert abs(r.rhs - 1.0) <= 1e-9

    def test_symmetry_under_base_swap(self):
        a = product_residual(P_FRAC, 1.3, 0.6, 1.7, SPEC)
        b = product_residual(P_FRAC, 1.3, 1.7, 0.6, SPEC)
        assert a.lhs == b.lhs
        assert abs(a.rhs - b.rhs) <= 1e-9 * (1.0 + abs(a.rhs))

    def test_negative_base_points(self):
        r = product_residual(P_FRAC, 0.9, -0.8, 1.1, SPEC)
        assert r.rel_residual <= 1e-6

    def test_requires_admissibility(self):
        with pytest.raises(DomainError):
            product_residual(Params(0.0, 2.0), 1.0, 0.5, 0.5, SPEC)

    def test_oscillatory_tail_far_from_origin(self):
        # lambda * (start of the tail) lies past a hundred Bessel zeros: the
        # zero ladder must start there, not spend its budget below it
        assert product_residual(Params(1.0, 5.0), 20.0, 1.0, 1.2, SPEC).rel_residual <= 1e-5

    @pytest.mark.parametrize("x,y", [(math.nan, 1.0), (1.0, math.inf)])
    def test_non_finite_base_points_rejected(self, x, y):
        for check in (gamma_mass, tv_norm):
            with pytest.raises(DomainError, match="must be finite"):
                check(P_FRAC, x, y, SPEC)
        with pytest.raises(DomainError, match="must be finite"):
            translate(P_FRAC, x, gaussian_profile(1.0), y, SPEC)

    def test_mass_on_grid(self):
        for p in (P_DUNKL, P_FRAC):
            for (x, y) in [(0.4, 0.4), (1.2, 2.5)]:
                mass, qerr = gamma_mass(p, x, y, SPEC)
                assert abs(mass - 1.0) <= 1e-8


class TestTvNorm:
    def test_symmetry(self):
        a = tv_norm(P_FRAC, 0.6, 1.9, SPEC)
        b = tv_norm(P_FRAC, 1.9, 0.6, SPEC)
        assert_allclose(a, b, rtol=1e-8)

    def test_at_least_mass(self):
        # |gamma| dominates gamma, whose total is 1
        assert tv_norm(P_FRAC, 1.0, 1.3, SPEC) >= 1.0 - 1e-9

    def test_compact_case_has_no_truncation(self):
        rep = tv_norm_report(P_DUNKL, 1.0, 1.3, SPEC)
        assert rep.truncation_bound == 0.0
        assert rep.value >= 1.0 - 1e-9

    def test_stabilizes_for_small_y(self):
        vals = [tv_norm(P_FRAC, 1.0, y, SPEC) for y in (0.1, 0.05, 0.01)]
        assert all(math.isfinite(v) for v in vals)
        assert abs(vals[-1] - vals[-2]) <= 0.05 * vals[-2]

    def test_outer_part_vanishes_for_integer_offset(self):
        rep = tv_norm_report(Params(1.0, 2.0 / 3.0), 1.1, 0.9, SPEC)
        assert rep.truncation_bound == 0.0

    def test_against_bruteforce_quadrature(self):
        # trapezoid over the compact band in Z = |z|^(a/2), stretched by a
        # smoothstep of sin^2 so the endpoint singularities fade; nothing
        # shared with the package quadrature
        import numpy as np
        from gfkernel import delta_density
        from gfkernel.errors import BoundaryTripleError
        cases = [(Params(1.0, 2.0), 0.9, 1.4),
                 # 2/a = 2: the band is split where the real density changes sign
                 (Params(0.5, 1.0), 0.316227766016838, 1.0),
                 (Params(0.5, 1.0), 1.0, 1.0)]
        n = 2001
        u = np.linspace(0.0, 1.0, n)
        s = np.sin(0.5 * np.pi * u) ** 2
        stretch = s * s * (3.0 - 2.0 * s)
        dstretch = 6.0 * s * (1.0 - s) * 0.5 * np.pi * np.sin(np.pi * u)
        for p, x, y in cases:
            ha = 0.5 * p.a
            z1, z2 = abs(x ** ha - y ** ha), x ** ha + y ** ha
            vals = np.zeros(n)
            for i in range(1, n - 1):
                zb = z1 + (z2 - z1) * float(stretch[i])
                zp = zb ** (1.0 / ha)
                try:
                    dens = abs(delta_density(p, x, y, zp)) + abs(delta_density(p, x, y, -zp))
                except BoundaryTripleError:
                    continue
                vals[i] = dens * zp ** p.w * (zp / zb / ha) * (z2 - z1) * dstretch[i]
            brute = float(np.trapezoid(vals, u))
            assert abs(brute - tv_norm(p, x, y, SPEC)) <= 1e-5 * brute, (p, x, y)


class TestHankelIdentities:
    @pytest.mark.parametrize("mu,nu", [(0.5, 0.5), (0.4, 0.9), (0.25, 1.75)])
    @pytest.mark.parametrize("pt", [(1.0, 1.0, 1.0), (0.8, 1.1, 1.3), (1.4, 0.6, 0.7)])
    def test_both_identities(self, mu, nu, pt):
        x, y, t = pt
        assert hankel_identity_eq1(mu, nu, x, y, t, SPEC).rel_residual <= 1e-5
        assert hankel_identity_eq2(mu, nu, x, y, t, SPEC).rel_residual <= 1e-5

    def test_small_t_limits(self):
        # nu > mu: both sides vanish like t^(2(nu-mu))
        r = hankel_identity_eq1(0.4, 0.9, 0.8, 1.1, 1e-3, SPEC)
        assert abs(r.lhs) < 1e-2 and abs(r.rhs) < 1e-2
        assert r.rel_residual <= 1e-5
        # second identity tends to x^nu y^mu
        r2 = hankel_identity_eq2(0.4, 0.9, 0.8, 1.1, 1e-6, SPEC)
        want = 0.8 ** 0.9 * 1.1 ** 0.4
        assert_allclose(r2.lhs, want, rtol=1e-9)
        assert r2.rel_residual <= 1e-5

    def test_validation(self):
        with pytest.raises(DomainError):
            hankel_identity_eq1(-0.7, 0.5, 1.0, 1.0, 1.0, SPEC)
        with pytest.raises(DomainError):
            hankel_identity_eq2(0.5, 0.5, -1.0, 1.0, 1.0, SPEC)

    @pytest.mark.parametrize("args", [
        (0.4, 0.9, math.inf, 1.0, 1.0), (0.4, 0.9, 1.0, math.nan, 1.0),
        (0.4, 0.9, 1.0, 1.0, math.inf), (math.inf, 0.9, 1.0, 1.0, 1.0),
        (0.4, math.inf, 1.0, 1.0, 1.0),
    ])
    def test_non_finite_input_rejected(self, args):
        for check in (hankel_identity_eq1, hankel_identity_eq2):
            with pytest.raises(DomainError, match="must be finite"):
                check(*args, SPEC)


class TestLegendreIdentityChecks:
    @pytest.mark.parametrize("mu,nu", [(0.5, 0.5), (1.0, 0.5), (0.8, 1.3), (0.3, 0.9)])
    def test_first_kind(self, mu, nu):
        assert legendre_p_integral_check(mu, nu, SPEC).rel_residual <= 1e-8

    def test_first_kind_constant_case(self):
        r = legendre_p_integral_check(0.5, 0.5, SPEC)
        assert_allclose(r.lhs, 2.0, rtol=1e-12)
        assert_allclose(r.rhs, 2.0, rtol=1e-15)

    def test_first_kind_gamma_pole_zero(self):
        # mu - nu + 1 <= 0 integer: the closed form has a reciprocal-gamma zero
        r = legendre_p_integral_check(0.5, 1.5, SPEC)
        assert r.rhs == 0.0
        assert abs(r.lhs) <= 1e-8

    @pytest.mark.parametrize("mu,nu", [(0.25, 1.25), (0.75, 1.2), (-0.2, 0.9), (1.0, 2.5)])
    def test_second_kind(self, mu, nu):
        assert legendre_q_integral_check(mu, nu, SPEC).rel_residual <= 1e-6

    def test_second_kind_integrand_positive_decreasing(self):
        from gfkernel._backend import core
        mu, nu = 0.25, 1.25
        vals = []
        for t in (3.0, 10.0, 40.0):
            q = core.legendre_q_phase_free(0.5 - mu, nu - 0.5, t)
            vals.append((t * t - 1.0) ** (0.5 * mu - 0.25) * q)
        assert vals[0] > vals[1] > vals[2] > 0.0

    def test_second_kind_convergence_gate(self):
        with pytest.raises(DomainError, match="tail exponent"):
            legendre_q_integral_check(1.2, 0.6, SPEC)


class TestTranslate:
    def test_identity_at_zero(self):
        f = gaussian_profile(1.0)
        for z in (-2.0, 0.3, 1.7):
            assert translate(P_DUNKL, 0.0, f, z) == complex(f(z))

    def test_center_value(self):
        f = gaussian_profile(1.0)
        assert translate(P_DUNKL, 1.3, f, 0.0) == complex(f(1.3))

    def test_unit_function_mass(self):
        fone = Profile(lambda xi: 1.0, 60.0, "one")
        for (y, z) in [(0.8, 0.5), (1.5, 2.2)]:
            v = translate(P_DUNKL, y, fone, z, SPEC)
            assert abs(v - 1.0) <= 1e-5

    def test_unit_function_mass_fractional(self):
        fone = Profile(lambda xi: 1.0, 400.0, "one")
        v = translate(P_FRAC, 0.9, fone, 1.4, SPEC)
        assert abs(v - 1.0) <= 1e-5

    def test_bump_profile_support(self):
        f = bump_profile(1.5)
        assert f(1.5) == 0.0 and f(2.0) == 0.0
        assert f(0.0) == 1.0

    def test_transform_side_consistency(self):
        # B(l0, y) * (transform of f at l0) vs transform of tau_y f at l0
        import numpy as np
        f = gaussian_profile(1.0)
        lam0, y0 = 0.9, 1.1
        span = f.support + y0 + 1.0
        n = 361  # odd: composite Simpson weights
        xs = np.linspace(-span, span, n)
        sw = np.ones(n)
        sw[1:-1:2] = 4.0
        sw[2:-1:2] = 2.0
        sw *= (xs[1] - xs[0]) / 3.0
        w = np.abs(xs) ** P_DUNKL.w * sw
        bv = np.array([b_kernel(P_DUNKL, lam0, float(t)) for t in xs])
        fv = np.array([f(float(t)) for t in xs])
        tv = np.array([translate(P_DUNKL, y0, f, float(t),
                                 QuadratureSpec(abs_tol=1e-8, rel_tol=1e-7)) for t in xs])
        t_f = np.sum(bv * fv * w)
        t_tau = np.sum(bv * tv * w)
        want = b_kernel(P_DUNKL, lam0, y0) * t_f
        assert abs(t_tau - want) <= 1e-4 * (1.0 + abs(want))

    def test_requires_declared_support(self):
        with pytest.raises(DomainError):
            translate(P_DUNKL, 1.0, lambda xi: 1.0, 0.5, SPEC)

    def test_against_bruteforce_quadrature(self):
        import numpy as np
        from gfkernel import delta_density
        p = Params(1.0, 2.0)
        f = gaussian_profile(1.0)
        yv, zv = 1.1, 0.6
        x1, x2 = abs(yv - zv), yv + zv
        n = 2001
        u = np.linspace(0.0, 1.0, n)
        xi = x1 + (x2 - x1) * np.sin(0.5 * np.pi * u) ** 2
        dxi = (x2 - x1) * 0.5 * np.pi * np.sin(np.pi * u)
        vals = np.zeros(n, dtype=complex)
        for i in range(1, n - 1):
            q = float(xi[i])
            vals[i] = ((delta_density(p, yv, q, zv) * f(q)
                        + delta_density(p, yv, -q, zv) * f(-q)) * q ** p.w * dxi[i])
        brute = complex(np.trapezoid(vals, u))
        mine = translate(p, yv, f, zv, SPEC)
        assert abs(brute - mine) <= 1e-5 * abs(mine)


class TestLpProbe:
    def test_ratio_one_at_origin_only_grid(self):
        f = gaussian_profile(1.0)
        grid = SweepGrid((Axis("y", 0.0, 0.0, 1),))
        assert lp_bound_probe(P_DUNKL, 2.0, f, grid, SPEC, z_count=16) == 1.0

    @pytest.mark.parametrize("pexp", [1.0, 2.0, math.inf])
    def test_finite_ratios(self, pexp):
        f = gaussian_profile(1.0)
        grid = SweepGrid((Axis("y", 0.1, 5.0, 3, "log"),))
        spec = QuadratureSpec(abs_tol=1e-8, rel_tol=1e-7)
        r = lp_bound_probe(P_DUNKL, pexp, f, grid, spec, z_count=24)
        assert math.isfinite(r) and r > 0.0

    def test_rejects_other_exponents(self):
        f = gaussian_profile(1.0)
        grid = SweepGrid((Axis("y", 0.1, 1.0, 2),))
        with pytest.raises(DomainError):
            lp_bound_probe(P_DUNKL, 3.0, f, grid, SPEC)
