"""Verification harness: residual reports, sweeps, translation."""

import math
import random

import pytest
from numpy.testing import assert_allclose

from gfkernel import Params, _corepy, b_kernel, genkernel, harness, macdonald, quadrature
from gfkernel.errors import DegenerateParameterError, DomainError, GfkError, RangeOverflowError
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
from gfkernel.quadrature import QuadratureSpec, integrate_singular_band2
from gfkernel.selfcheck import (
    HANKEL_POINTS,
    PRODUCT_GRID_KA,
    PRODUCT_GRID_LAMBDA,
    PRODUCT_GRID_XY,
)

SPEC = QuadratureSpec()
TV_SPEC = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-7)   # as criterion c05
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


@pytest.fixture
def pure_core(monkeypatch):
    for module in (genkernel, harness, macdonald, quadrature):
        monkeypatch.setattr(module, "core", _corepy)


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

    # the last three next to a zero base point, whose Dirac case needs a
    # finite partner
    @pytest.mark.parametrize("x,y", [(math.nan, 1.0), (1.0, math.inf), (0.0, math.nan),
                                     (math.inf, 0.0), (0.0, -math.inf)])
    def test_non_finite_base_points_rejected(self, x, y):
        for check in (gamma_mass, tv_norm):
            with pytest.raises(DomainError, match="must be finite"):
                check(P_FRAC, x, y, SPEC)
        with pytest.raises(DomainError, match="must be finite"):
            product_residual(P_FRAC, 0.7, x, y, SPEC)
        with pytest.raises(DomainError, match="must be finite"):
            translate(P_FRAC, x, gaussian_profile(1.0), y, SPEC)

    @pytest.mark.parametrize("x,y", [(0.0, 1.3), (-0.8, 0.0), (0.0, 0.0)])
    def test_dirac_cases_of_mass_and_total_variation(self, x, y):
        # at a zero base point the product measure is the point mass at the
        # other one: mass 1, total variation 1, exactly
        assert gamma_mass(P_FRAC, x, y, SPEC) == (1.0 + 0.0j, 0.0)
        rep = tv_norm_report(P_FRAC, x, y, SPEC)
        assert (rep.value, rep.quad_error, rep.break_evaluations) == (1.0, 0.0, 0)
        assert rep.wall_time >= 0.0

    @pytest.mark.parametrize("x,y", [(0.0, 1.3), (-0.8, 0.0), (0.0, 0.0)])
    def test_dirac_cases_require_admissibility(self, x, y):
        # mu = -1/2 at (k, a) = (0, 2): refused at a zero base point as at
        # every other one
        p = Params(0.0, 2.0)
        for check in (gamma_mass, tv_norm_report):
            with pytest.raises(DomainError, match="must exceed -1/2"):
                check(p, x, y, SPEC)
        with pytest.raises(DomainError, match="must exceed -1/2"):
            harness.translate_report(p, x, gaussian_profile(1.0), y, SPEC)

    def test_mass_on_grid(self):
        for p in (P_DUNKL, P_FRAC):
            for (x, y) in [(0.4, 0.4), (1.2, 2.5)]:
                mass, qerr = gamma_mass(p, x, y, SPEC)
                assert abs(mass - 1.0) <= 1e-8

    @pytest.mark.parametrize("k, a, lam, x, y, want, before", [
        # moved by the oscillatory tail's mW transformation
        (0.75, 4.0 / 3.0, 1.9, 0.4, 2.5, "0x1.70773c7c19b2cp-46", "0x1.0ffb3a3c35c58p-38"),
        # moved by the Gauss-Jacobi band rule at nu - mu = 3 (before it, by
        # the Euler form of the band 2F1 from 0x1.64cf682692783p-53)
        (1.0, 2.0 / 3.0, 0.7, 1.2, 2.5, "0x1.0f10524063c40p-53", "0x1.49d11ac6dc70ep-53"),
    ])
    def test_bessel_values_are_not_recomputed(self, monkeypatch, pure_core, k, a, lam, x, y, want,
                                              before):
        # tanh-sinh nodes next to an endpoint repeat cZ; without a memo 92
        # of the first point's 399 calls repeat an earlier (order, argument) pair
        calls = []
        bessel = _corepy.normalized_bessel_j

        def counted(nu, arg):
            calls.append((nu, arg))
            return bessel(nu, arg)

        monkeypatch.setattr(_corepy, "normalized_bessel_j", counted)
        r = product_residual(Params(k, a), lam, x, y, SPEC)
        assert len(calls) - len(set(calls)) <= 0.15 * len(calls)
        assert r.rel_residual.hex() == want       # recorded before the memo
        # a moved pin is at least as close as before to the exact residual, 0
        assert before is None or r.rel_residual <= float.fromhex(before)


class TestCompactBand:
    """With 2/a an integer the density lives on the band alone, which the
    Gauss-Jacobi rules of the weight (1 - t^2)^(mu - 1/2) integrate."""

    REF = QuadratureSpec(max_levels=16, rel_tol=1e-12)

    @staticmethod
    def cases():
        """(k, a, lambda, x, y): the compact points of the c02 product grid
        and the c03 mass grid (lambda = 0), then 20 seeded draws with a in
        {2, 1, 2/3}, one mu in each twentieth of (-1/2, 2) and lambda, x, y
        log-uniform in [0.3, 3]; every fourth draw has x = y, where Z -> 0
        at t = 1."""
        grid = [(k, a, lam, x, y) for k, a in PRODUCT_GRID_KA
                if Params(k, a).band_offset_integer
                for lam in [0.0] + PRODUCT_GRID_LAMBDA
                for x in PRODUCT_GRID_XY for y in PRODUCT_GRID_XY]
        rng = random.Random(20261018)
        draws = []
        for i in range(20):
            a = rng.choice((2.0, 1.0, 2.0 / 3.0))
            mu = -0.5 + 2.5 * (i + rng.random()) / 20
            lam, x, y = (0.3 * 10.0 ** rng.random() for _ in range(3))
            draws.append((0.5 * (mu * a + 1.0), a, lam, x, x if i % 4 == 0 else y))
        return grid + draws

    def test_every_band_is_within_its_tolerance_of_a_deep_reference(self, monkeypatch):
        segments = []
        rule = harness.integrate_gauss_jacobi

        def checked(f2, lo, hi, spec, edge_exponent):
            res = rule(f2, lo, hi, spec, edge_exponent=edge_exponent)
            ref = integrate_singular_band2(f2, lo, hi, self.REF, edge_exponent=edge_exponent)
            segments.append((res, ref.value, max(spec.abs_tol, spec.rel_tol * abs(ref.value))))
            return res

        monkeypatch.setattr(harness, "integrate_gauss_jacobi", checked)
        cases = self.cases()
        for k, a, lam, x, y in cases:
            if lam == 0.0:
                gamma_mass(Params(k, a), x, y, SPEC)
            else:
                product_residual(Params(k, a), lam, x, y, SPEC)
        assert len(segments) == len(cases) == 128
        for res, ref, tol in segments:
            assert abs(res.value - ref) <= tol, (res, ref, tol)
            # converged on the ladder, without the tanh-sinh fallback
            assert res.evaluations <= sum(quadrature._GJ_LADDER)


class TestBoundaryOrder:
    """mu = 2k - 1 -> -1/2 at a = 1, where every piece of the density grows
    like d^(mu - 1/2) at a region edge."""

    C02 = [(lam, x, y) for lam in PRODUCT_GRID_LAMBDA
           for x in PRODUCT_GRID_XY for y in PRODUCT_GRID_XY]

    @pytest.mark.parametrize("mu", [-0.49, -0.499])
    def test_product_formula_on_the_c02_points(self, pure_core, mu):
        p = Params(0.5 * (mu + 1.0), 1.0)
        for lam, x, y in self.C02:
            r = product_residual(p, lam, x, y, SPEC)
            assert r.rel_residual <= 1e-5 and r.wall_time < 1.0, (lam, x, y, r)

    @pytest.mark.parametrize("mu", [-0.47, -0.46, -0.455])
    def test_product_formula_to_the_quadrature_tolerance(self, mu):
        # the plain rule returned 5e-8 at mu = -0.46 without an error
        p = Params(0.5 * (mu + 1.0), 1.0)
        for lam, x, y in [(0.7, 0.4, 0.4), (1.9, 1.2, 2.5)]:
            assert product_residual(p, lam, x, y, SPEC).rel_residual <= 1e-9

    def test_mass(self):
        p = Params(0.5 * (-0.49 + 1.0), 1.0)
        for x in PRODUCT_GRID_XY:
            for y in PRODUCT_GRID_XY:
                mass, _ = gamma_mass(p, x, y, SPEC)
                assert abs(mass - 1.0) <= 1e-6, (x, y)


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
        assert rep.value >= 1.0 - 1e-9

    def test_stabilizes_for_small_y(self):
        vals = [tv_norm(P_FRAC, 1.0, y, SPEC) for y in (0.1, 0.05, 0.01)]
        assert all(math.isfinite(v) for v in vals)
        assert abs(vals[-1] - vals[-2]) <= 0.05 * vals[-2]

    def test_outer_part_vanishes_for_integer_offset(self):
        # 2/a = 3: no gap, near-outer or tail piece is integrated
        g = harness._DensityGeometry.of(Params(1.0, 2.0 / 3.0), 1.1, 0.9)
        breaks, _ = harness._band_sign_breaks(g)
        pieces, _ = harness._gamma_integral(g, SPEC, lambda Z, z, e, o: (1.0, 1.0),
                                            modulus=True, breaks=breaks)
        assert not g.has_tail and pieces[1:] == [0.0, 0.0, 0.0]
        assert sum(pieces) == tv_norm(Params(1.0, 2.0 / 3.0), 1.1, 0.9, SPEC)

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

    # Integer 2/a near mu = -1/2.  References: the band split at the zeros of
    # each signed density over (1 - t^2)^(mu - 1/2), which is finite at
    # t = +-1, found on a 4097-point scan; each piece with the edge exponent
    # at rel_tol 1e-13, max_levels 16 (a 1025-point scan gives the same value
    # to 1e-15).

    def test_integer_two_over_a_near_the_boundary_order(self):
        # mu = -0.46: the signed pieces without the edge exponent returned
        # 1.0317123617, 2e-7 low, with no error
        want = 1.0317125718177602
        assert abs(tv_norm(Params(0.04, 2.0), 0.7, 1.3) - want) <= SPEC.rel_tol * want

    def test_sign_break_next_to_the_band_edge(self):
        # mu = -0.475: a scan of midpoints only missed the break at t = 0.99542,
        # and the piece across it raised ConvergenceError
        want = 3.5477401202926657
        v = tv_norm(Params(0.2625, 1.0), 0.7, 1.3, TV_SPEC)
        assert abs(v - want) <= TV_SPEC.rel_tol * want

    def test_sign_break_scan_reaches_the_band_ends(self):
        # even + odd changes sign at t = 0.99541698646302435 (mpmath, 40
        # digits), 1/218 from t = 1: closer to the end than the scan's
        # outermost midpoint
        g = harness._DensityGeometry.of(Params(0.2625, 1.0), 0.7, 1.3)
        breaks, _ = harness._band_sign_breaks(g)
        assert min(abs(t - 0.99541698646302435) for t in breaks) <= 1e-9

    def test_zero_on_a_scan_node_does_not_hide_the_next_break(self, monkeypatch):
        # a stand-in band whose even + odd is (t - t0)(t - t1): t0 is a scan
        # midpoint, where it reads exactly 0, and t1 lies halfway to the next
        # midpoint, so neither cell next to t0 has ends of opposite sign
        t0 = -math.cos(math.pi * 20.5 / 32)
        t1 = 0.5 * (t0 - math.cos(math.pi * 21.5 / 32))
        calls = []

        def band_terms(g, Z, omt, opt, even=True, odd=True):
            calls.append(None)
            # omt is 1 - t as the search forms it, so the node t0 gives 0 exactly
            return (omt - (1.0 - t0)) * (omt - (1.0 - t1)), 0.0

        monkeypatch.setattr(harness, "_band_terms", band_terms)
        g = harness._DensityGeometry.of(Params(0.5, 1.0), 0.7, 1.3)
        breaks, n = harness._band_sign_breaks(g)
        assert len(breaks) == 2 and breaks[0] == t0 and abs(breaks[1] - t1) <= 1e-12
        assert n == len(calls)

    def test_break_evaluations_are_counted(self):
        # no sign split at the golden point (2/a = 3/2); the sign-break pin
        # point finds its breaks in at most 60 band evaluations
        golden = tv_norm_report(Params(0.75, 4.0 / 3.0), 0.1, 10.000000000000005, TV_SPEC)
        assert golden.break_evaluations == 0
        pin = tv_norm_report(Params(0.5, 1.0), 0.316227766016838, 1.0, TV_SPEC)
        assert 0 < pin.break_evaluations <= 60

    # five points of the benchmark's (0.5, 1) TV grid: the breaks there, and
    # the _band_terms calls that a 129-midpoint scan with 60-step bisection
    # made to find them
    _GRID_SEARCH = {
        (0.1, 0.1): (1, 251),
        (0.1, 1.0000000000000002): (2, 311),
        (0.316227766016838, 3.1622776601683804): (2, 311),
        (1.0000000000000002, 10.000000000000005): (2, 298),
        (10.000000000000005, 0.316227766016838): (2, 177),
    }

    def test_sign_break_search_stays_within_a_quarter_of_bisection(self, monkeypatch):
        calls = []
        band_terms = harness._band_terms

        def counted(*args, **kwargs):
            calls.append(None)
            return band_terms(*args, **kwargs)

        monkeypatch.setattr(harness, "_band_terms", counted)
        for (x, y), (n_breaks, _) in self._GRID_SEARCH.items():
            before = len(calls)
            breaks, n = harness._band_sign_breaks(
                harness._DensityGeometry.of(Params(0.5, 1.0), x, y))
            assert len(breaks) == n_breaks, (x, y, breaks)
            assert n == len(calls) - before, (x, y)
        assert len(calls) <= sum(c for _, c in self._GRID_SEARCH.values()) / 4

    def test_sign_breaks_match_a_dense_scan(self):
        # seeded points over 2/a in {1, 2, 3}, mu in (-0.499, 3) and x, y in
        # (0.05, 20); the reference scans 1023 cells (and the two end points)
        # and bisects each bracket to 1e-13
        def tv(g, breaks):
            pieces, _ = harness._gamma_integral(
                g, TV_SPEC, lambda Z, z, e, o: (1.0, 1.0), modulus=True, breaks=breaks)
            return sum(pieces)

        rng = random.Random(20231)
        log_lo, log_hi = math.log(0.05), math.log(20.0)
        for _ in range(40):
            a = rng.choice((2.0, 1.0, 2.0 / 3.0))
            mu = rng.uniform(-0.499, 3.0)
            x, y = (math.exp(rng.uniform(log_lo, log_hi)) for _ in range(2))
            g = harness._DensityGeometry.of(Params(0.5 * (mu * a + 1.0), a), x, y)
            breaks, _ = harness._band_sign_breaks(g)
            want = _dense_sign_breaks(g)
            assert len(breaks) == len(want), (a, mu, x, y, breaks, want)
            assert all(abs(s - t) <= 1e-9 for s, t in zip(breaks, want)), (a, mu, x, y)
            v, v_ref = tv(g, breaks), tv(g, want)
            assert abs(v - v_ref) <= 1e-14 * v_ref, (a, mu, x, y, v, v_ref)

    # (a, mu, x, y): references made as those above, at abs_tol 1e-16
    _NEAR_HALF = {
        (2.0, -0.475, 0.7, 1.3): 1.020433259217554,
        (2.0, -0.475, 0.4, 2.5): 1.0070652192617604,
        (2.0, -0.49, 0.7, 1.3): 1.008433352076399,
        (2.0, -0.49, 0.4, 2.5): 1.002909796884467,
        (2.0, -0.499, 0.7, 1.3): 1.0008597090236553,
        (2.0, -0.499, 0.4, 2.5): 1.0002962434257356,
        (1.0, -0.475, 0.7, 1.3): 3.5477401202926657,
        (1.0, -0.475, 0.4, 2.5): 2.880345251502806,
        (1.0, -0.49, 0.7, 1.3): 3.84182894595196,
        (1.0, -0.49, 0.4, 2.5): 3.1187494269192606,
        (1.0, -0.499, 0.7, 1.3): 4.07604478885758,
        (1.0, -0.499, 0.4, 2.5): 3.315545441527709,
        (2.0 / 3.0, -0.475, 0.7, 1.3): 3.1400350506781542,
        (2.0 / 3.0, -0.475, 0.4, 2.5): 2.7880648281910694,
        (2.0 / 3.0, -0.49, 0.7, 1.3): 3.3371173077737804,
        (2.0 / 3.0, -0.49, 0.4, 2.5): 2.963728187750964,
        (2.0 / 3.0, -0.499, 0.7, 1.3): 3.4853279502491725,
        (2.0 / 3.0, -0.499, 0.4, 2.5): 3.098506039955275,
    }

    @pytest.mark.parametrize("a", [2.0, 1.0, 2.0 / 3.0])
    def test_integer_two_over_a_next_to_mu_minus_half(self, a, core, monkeypatch):
        # the band grows like d^(mu - 1/2) at both ends, and its pieces take
        # the exponent: at mu <= -0.475 they raised ConvergenceError without
        # it.  At a = 2/3 both signed densities fall to d (1 - t^2)^(mu - 1/2)
        # at t = 1, below their rounding noise within 2^-48 of it; the modulus
        # of that noise adds up to 2.5e-12 of the value at mu = -0.499.
        monkeypatch.setattr(harness, "core", core)
        for mu in (-0.475, -0.49, -0.499):
            p = Params(0.5 * (mu * a + 1.0), a)
            for x, y in ((0.7, 1.3), (0.4, 2.5)):
                want = self._NEAR_HALF[(a, mu, x, y)]
                assert abs(tv_norm(p, x, y) - want) <= 5e-12 * want, (a, mu, x, y)


def _dense_sign_breaks(g, scan: int = 1023) -> list[float]:
    """Zeros of the two signed band densities by a scan of scan equal cells
    in t (and the points 2^-40 from the ends) and bisection of each bracket
    to 1e-13; a zero on a scan node is kept as it is."""
    def s_pair(t):
        Z = math.sqrt(g.Z1 * g.Z1 + 2.0 * g.X * g.Y * (1.0 - t))
        even, odd = harness._band_terms(g, Z, 1.0 - t, 1.0 + t)
        return (even + odd).real, (even - odd).real

    end = 2.0 ** -40
    ts = [-1.0 + end] + [-1.0 + 2.0 * (i + 0.5) / scan for i in range(scan)] + [1.0 - end]
    vals = [s_pair(t) for t in ts]
    found = []
    for comp in (0, 1):
        found += [t for t, v in zip(ts, vals) if v[comp] == 0.0]
        for i in range(len(ts) - 1):
            lo, hi, f_lo = ts[i], ts[i + 1], vals[i][comp]
            if f_lo * vals[i + 1][comp] >= 0.0:
                continue
            while hi - lo > 1e-13:
                mid = 0.5 * (lo + hi)
                f_mid = s_pair(mid)[comp]
                if f_mid == 0.0:
                    lo = hi = mid
                elif (f_mid < 0.0) == (f_lo < 0.0):
                    lo, f_lo = mid, f_mid
                else:
                    hi = mid
            found.append(0.5 * (lo + hi))
    breaks = []
    for t in sorted(found):
        if not breaks or t - breaks[-1] > 1e-12:
            breaks.append(t)
    return breaks


class TestHankelIdentities:
    @pytest.mark.parametrize("mu,nu", [(0.5, 0.5), (0.4, 0.9), (0.25, 1.75)])
    @pytest.mark.parametrize("pt", [(1.0, 1.0, 1.0), (0.8, 1.1, 1.3), (1.4, 0.6, 0.7)])
    def test_both_identities(self, mu, nu, pt):
        x, y, t = pt
        assert hankel_identity_eq1(mu, nu, x, y, t, SPEC).rel_residual <= 1e-5
        assert hankel_identity_eq2(mu, nu, x, y, t, SPEC).rel_residual <= 1e-5

    @pytest.mark.parametrize("mu", [-0.475, -0.49, -0.499])
    def test_both_identities_near_the_boundary_order(self, mu):
        # every piece grows like d^(mu - 1/2) at its edges; the plain rule
        # raised ConvergenceError after about 1 s on each of these
        for nu in (mu + 1.0, 0.9, 1.75):
            for x, y, t in HANKEL_POINTS:
                assert hankel_identity_eq1(mu, nu, x, y, t, SPEC).rel_residual <= 1e-9
                assert hankel_identity_eq2(mu, nu, x, y, t, SPEC).rel_residual <= 1e-9

    @pytest.mark.parametrize("mu,nu", [(0.5, 0.5), (0.5, 1.5), (-0.49, 0.51), (1.0, 3.0)])
    def test_first_identity_at_integer_offsets(self, mu, nu, core, monkeypatch):
        # nu - mu an integer: the band is the whole support, integrated by the
        # Gauss-Jacobi rules of the weight (1 - t^2)^(mu - 1/2)
        mpmath = pytest.importorskip("mpmath")
        monkeypatch.setattr(harness, "core", core)
        for x, y, t in HANKEL_POINTS:
            with mpmath.workdps(30):
                m, n, xm, ym, tm = (mpmath.mpf(v) for v in (mu, nu, x, y, t))

                def jt(s):   # J~_nu(s)
                    return mpmath.gamma(n + 1) * (s / 2) ** (-n) * mpmath.besselj(n, s)

                lhs = float((xm * ym) ** n * tm ** (2 * (n - m)) * jt(xm * tm) * jt(ym * tm))
            rhs = hankel_identity_eq1(mu, nu, x, y, t).rhs
            assert abs(rhs - lhs) <= 1e-13 * (1.0 + abs(lhs)), (x, y, t)

    @pytest.mark.parametrize("mu,nu", [(0.5, 0.5), (0.4, 0.9), (0.25, 1.75), (0.5, 1.5),
                                       (1.0, 3.0), (-0.49, 0.51), (0.25, 2.25)])
    def test_second_identity_against_mpmath(self, mu, nu, core, monkeypatch):
        # the band in t = cos(theta) of the (x, y) angle, the gap below it
        mpmath = pytest.importorskip("mpmath")
        monkeypatch.setattr(harness, "core", core)
        for x, y, t in HANKEL_POINTS:
            with mpmath.workdps(30):
                m, n, xm, ym, tm = (mpmath.mpf(v) for v in (mu, nu, x, y, t))

                def jt(o, s):   # J~_o(s)
                    return mpmath.gamma(o + 1) * (s / 2) ** (-o) * mpmath.besselj(o, s)

                lhs = float(xm ** n * ym ** m * jt(n, xm * tm) * jt(m, ym * tm))
            rhs = hankel_identity_eq2(mu, nu, x, y, t).rhs
            assert abs(rhs - lhs) <= 2e-15 * (1.0 + abs(lhs)), (x, y, t)

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

    @pytest.mark.parametrize("mu", [-0.46, -0.48, -0.49, -0.499])
    def test_first_kind_near_the_boundary_order(self, mu):
        # the integrand grows like (1 - t)^(mu - 1/2) at t = 1; without the
        # exponent the rule lost accuracy at -0.46 and did not converge at -0.48
        assert legendre_p_integral_check(mu, 0.3, SPEC).rel_residual <= 1e-13

    def test_second_kind_convergence_gate(self):
        with pytest.raises(DomainError, match="tail exponent"):
            legendre_q_integral_check(1.2, 0.6, SPEC)


P_LARGE = Params(86.5, 1.0)  # mu = 172, where Gamma(mu + 1) overflows


class TestLargeOrders:
    """A constant that overflows the double range is a typed error naming it."""

    @pytest.mark.parametrize("call, constant", [
        (lambda: product_residual(P_LARGE, 0.7, 0.8, 1.1), "density constant"),
        (lambda: gamma_mass(P_LARGE, 0.8, 1.1), "density constant"),
        (lambda: tv_norm(P_LARGE, 0.8, 1.1), "density constant"),
        (lambda: translate(P_LARGE, 0.8, gaussian_profile(), 1.1), "density constant"),
        (lambda: hankel_identity_eq1(200.0, 200.5, 0.8, 1.1, 0.7), r"2\^\(2nu-mu\)"),
        (lambda: hankel_identity_eq2(200.0, 200.5, 0.8, 1.1, 0.7), r"2\^mu Gamma\(mu\+1\)"),
        (lambda: legendre_p_integral_check(200.0, 0.5), "closed form"),
    ], ids=["product", "mass", "tv", "translate", "hankel1", "hankel2", "legendre-p"])
    def test_entry_points(self, call, constant):
        with pytest.raises(RangeOverflowError, match=constant + ".* overflows the double range"):
            call()

    @pytest.mark.parametrize("z", [1.5, 5.0], ids=["band", "inner"])
    def test_density_forms_its_constant_first_on_either_core(self, core, monkeypatch, z):
        # the pure core's band kernel used to overflow in Gamma(mu + 1/2)
        # first, while the compiled one returned and the constant overflowed
        monkeypatch.setattr(macdonald, "core", core)
        with pytest.raises(RangeOverflowError, match="density constant .* at mu=172.0"):
            genkernel.delta_density(P_LARGE, 0.8, 1.1, z)


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

    def test_report_carries_the_value_and_the_error_estimate(self):
        f = gaussian_profile(1.0)
        rep = harness.translate_report(P_FRAC, 0.9, f, -1.4, SPEC)
        assert rep.value == translate(P_FRAC, 0.9, f, -1.4, SPEC)
        assert 0.0 < rep.quad_error <= 1e-9
        assert harness.translate_report(P_FRAC, 0.0, f, -1.4, SPEC).quad_error == 0.0

    @pytest.mark.parametrize("p, f", [(P_FRAC, gaussian_profile(1.0)),
                                      (P_FRAC, bump_profile(1.5)),
                                      (P_DUNKL, gaussian_profile(0.7))])
    def test_declared_even_profile_keeps_every_bit(self, p, f):
        # a profile declared even skips the gap, whose odd weight is exactly 0
        assert f.even
        undeclared = Profile(f.fn, f.support, f.name)
        for y, z in [(0.9, 1.4), (0.9, -1.4), (1.3, 0.4), (-0.5, 2.0)]:
            got = harness.translate_report(p, y, f, z, SPEC)
            want = harness.translate_report(p, y, undeclared, z, SPEC)
            assert [v.hex() for v in (got.value.real, got.value.imag, got.quad_error)] == \
                [v.hex() for v in (want.value.real, want.value.imag, want.quad_error)]

    def test_requires_declared_support(self):
        with pytest.raises(DomainError):
            translate(P_DUNKL, 1.0, lambda xi: 1.0, 0.5, SPEC)

    # mu 0.375, 0, 3, and -0.45 at a = 0.8, 4/3 and 2, where the walk reached
    # nodes next to Xi = 0 whose edge powers underflowed before the band was
    # integrated in t = cos(theta) with 1 - t exact
    @pytest.mark.parametrize("p", [P_FRAC, P_DUNKL, Params(2.0, 1.0)]
                             + [Params(0.5 * (1.0 - 0.45 * a), a) for a in (0.8, 4.0 / 3.0, 2.0)])
    @pytest.mark.parametrize("z", [1.0, -1.0])
    def test_equal_magnitudes_are_computed(self, p, z, core, monkeypatch):
        # at |y| = |z| the band reaches Xi = 0
        monkeypatch.setattr(harness, "core", core)
        f = bump_profile()
        v = translate(p, 1.0, f, z)
        assert abs(v - translate(p, 1.0, f, z * (1.0 + 1e-10))) <= 1e-9 * abs(v)

    @pytest.mark.parametrize("z", [1.0, -1.0])
    def test_equal_magnitudes_keep_their_value_where_it_is_computed(self, z, core,
                                                                     monkeypatch):
        # at 1/2 <= mu < 2 the band's edge powers stay finite at the rule's nodes
        monkeypatch.setattr(harness, "core", core)
        p, f = Params(1.0, 1.5), bump_profile()
        v = translate(p, 1.0, f, z)
        assert abs(v - translate(p, 1.0, f, math.nextafter(z, 0.0))) <= 1e-13

    @pytest.mark.parametrize("z", [0.7, -0.7])
    def test_equal_magnitudes_keep_the_degenerate_parameter_error(self, z, core, monkeypatch):
        # mu = 1/2 with 2/a not an integer: the 2F1 connection formula is
        # degenerate at every z, and at |y| = |z| that error is raised as it is
        monkeypatch.setattr(harness, "core", core)
        with pytest.raises(DegenerateParameterError, match="connection formula degenerate"):
            translate(Params(1.25, 3.0), 0.7, gaussian_profile(1.0), z)

    @pytest.mark.parametrize("k, a", [(0.62, 0.8), (0.59, 0.6), (0.92, 0.7)])
    def test_gap_piece_at_small_a(self, k, a):
        # 2/a > 1.93: xi = Xi^(2/a) underflows at the gap rule's outermost
        # nodes, where xi^(k + a - 3/2) raised a math domain error
        p = Params(k, a)
        fone = Profile(lambda xi: 1.0, 1e5, "one")
        assert abs(translate(p, 0.7, fone, 1.3, SPEC) - 1.0) <= 1e-10
        f = gaussian_profile(1.0)
        assert abs(translate(p, 0.7, f, 1.3, SPEC) - translate(p, 1.3, f, 0.7, SPEC)) <= 1e-15

    @pytest.mark.parametrize("a", [0.6, 0.8, 1.3, 2.0])
    @pytest.mark.parametrize("mu", [-0.475, -0.49, -0.499])
    def test_near_the_boundary_order(self, a, mu):
        # band, gap and tail grow like d^(mu - 1/2) at their region edges;
        # without the exponent the rule did not converge from mu = -0.475 on
        p = Params(0.5 * (mu * a + 1.0), a)
        fone = Profile(lambda xi: 1.0, 1e5, "one")
        assert abs(translate(p, 0.7, fone, 1.3, SPEC) - 1.0) <= 1e-10
        f = gaussian_profile(1.0)
        assert abs(translate(p, 0.7, f, 1.3, SPEC) - translate(p, 1.3, f, 0.7, SPEC)) <= 1e-15

    @pytest.mark.parametrize("a", [2.5, 3.0])
    @pytest.mark.parametrize("support", [1e6, 1e7])
    def test_unit_profile_with_a_tail_over_many_decades(self, a, support):
        # the tail (X2, support^(a/2)) spans up to ten decades; one rule
        # over all of it was off by up to 1.2e-3 at a = 3
        fone = Profile(lambda xi: 1.0, support, "one")
        v = translate(Params(0.5 * (0.8 * a + 1.0), a), 0.7, fone, 1.3)
        assert abs(v - 1.0) <= 1e-8

    def test_equal_magnitudes_give_a_domain_error_or_a_unit_value(self):
        # parity skips only terms weighted by zero, so it hides no failure
        fone = Profile(lambda xi: 1.0, 1e5, "one")
        computed = set()
        for a in (0.8, 4.0 / 3.0, 2.0, 3.0):
            for mu in (-0.45, -0.25, 0.0, 0.25, 0.5, 0.8, 1.2, 1.7, 2.5, 3.0):
                if mu * a + 1.0 < 0.0:             # k < 0
                    continue
                p = Params(0.5 * (mu * a + 1.0), a)
                for f in (gaussian_profile(1.0), fone):
                    try:
                        v = translate(p, 0.7, f, -0.7, SPEC)
                    except DegenerateParameterError:   # mu = 1/2, 2/a not an integer
                        continue
                    computed.add((a, mu, f.name))
                    assert math.isfinite(v.real) and math.isfinite(v.imag)
                    if f is fone:
                        assert abs(v - 1.0) <= 1e-8
        for mu in (0.5, 0.8, 1.2, 1.7):
            assert {(2.0, mu, "gaussian"), (2.0, mu, "one")} <= computed

    def test_equal_magnitudes_over_the_domain(self):
        # each call at |y| = |z| returns its neighbour's value; before the
        # walk 82 of these 150 raised, before the band in t 8 did
        rng = random.Random(13)
        profiles = (gaussian_profile(1.0), bump_profile(), Profile(lambda xi: 1.0, 1e5, "one"))
        for i in range(150):
            a = 0.6 * math.exp(rng.random() * math.log(5.0))
            mu = -0.45 + 3.45 * rng.random()
            while mu * a + 1.0 < 0.0:             # k < 0
                mu = -0.45 + 3.45 * rng.random()
            y = 0.3 * math.exp(rng.random() * math.log(10.0)) * rng.choice((1.0, -1.0))
            z = y * rng.choice((1.0, -1.0))
            p, f = Params(0.5 * (mu * a + 1.0), a), profiles[i % 3]
            v = translate(p, y, f, z)
            assert abs(v - translate(p, y, f, z * (1.0 + 1e-10))) <= 1e-9 * abs(v), (a, mu, y, z)

    @pytest.mark.parametrize("p", [P_FRAC, P_DUNKL, Params(0.5, 1.0), Params(1.0, 1.5),
                                   Params(2.0, 1.0)])
    def test_neighbours_of_equal_magnitudes_are_finite_or_typed(self, p):
        for y in (1.0, 0.7, -1.3):
            for edge in (y, -y):
                for z in (math.nextafter(edge, math.inf), math.nextafter(edge, -math.inf)):
                    for f in (bump_profile(), gaussian_profile()):
                        try:
                            v = translate(p, y, f, z)
                        except GfkError:
                            continue
                        assert math.isfinite(v.real) and math.isfinite(v.imag)

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


def _even_and_odd_parts(f: Profile) -> tuple[Profile, Profile]:
    return (Profile(lambda xi: 0.5 * (f.fn(xi) + f.fn(-xi)), f.support, "even"),
            Profile(lambda xi: 0.5 * (f.fn(xi) - f.fn(-xi)), f.support, "odd"))


class _CountingCore:
    """A scalar core whose r_band_core and r_outer_core calls are counted."""

    def __init__(self, core):
        self._core = core
        self.calls = {"r_band_core": 0, "r_outer_core": 0}

    def __getattr__(self, name):
        fn = getattr(self._core, name)
        if name not in self.calls:
            return fn

        def counted(*args):
            self.calls[name] += 1
            return fn(*args)
        return counted


@pytest.fixture
def piece_counts(monkeypatch):
    """Runs a harness call on the counting pure core; returns, per
    integrate_singular_band2 piece in call order, (evaluations, r_band_core
    calls, r_outer_core calls)."""
    def run(call):
        counting = _CountingCore(_corepy)
        monkeypatch.setattr(harness, "core", counting)
        rule, pieces = harness.integrate_singular_band2, []

        def logged(*args, **kwargs):
            before = dict(counting.calls)
            res = rule(*args, **kwargs)
            pieces.append((res.evaluations,
                           counting.calls["r_band_core"] - before["r_band_core"],
                           counting.calls["r_outer_core"] - before["r_outer_core"]))
            return res

        monkeypatch.setattr(harness, "integrate_singular_band2", logged)
        call()
        return pieces
    return run


class TestParity:
    """Terms whose weight (a part of the profile, or the odd weight of the
    gamma side) is zero are not evaluated."""

    SHIFTED = Profile(lambda xi: math.exp(-(xi - 0.4) ** 2), 10.0, "shifted")

    @pytest.mark.parametrize("p, y, z", [(P_DUNKL, 0.8, 1.3), (P_FRAC, 0.9, -1.4)])
    def test_translate_is_linear_in_the_profile_parts(self, p, y, z):
        # the shifted profile runs the both-parts branch, its parts the
        # even-only and odd-only ones; P_FRAC has a gap and a tail
        even, odd = _even_and_odd_parts(self.SHIFTED)
        whole = translate(p, y, self.SHIFTED, z, SPEC)
        parts = translate(p, y, even, z, SPEC) + translate(p, y, odd, z, SPEC)
        assert abs(whole - parts) <= 1e-9 * abs(whole)

    def test_translate_evaluates_only_the_weighted_terms(self, piece_counts):
        even, odd = _even_and_odd_parts(self.SHIFTED)
        for f in (gaussian_profile(1.0), even):
            pieces = piece_counts(lambda: translate(P_FRAC, 0.9, f, 1.4, SPEC))
            (nb, b_band, b_outer), (nt, t_band, t_outer) = pieces[0], pieces[-1]
            assert (b_band, b_outer) == (2 * nb, 0)
            assert (t_band, t_outer) == (0, nt)
            # the gap's term is odd: a profile declared even skips the gap,
            # an undeclared one walks it without a kernel call
            assert [g[1:] for g in pieces[1:-1]] == ([] if f.even else [(0, 0)])
        (nb, b_band, _), (ng, _, g_outer), (_, _, t_outer) = \
            piece_counts(lambda: translate(P_FRAC, 0.9, odd, 1.4, SPEC))
        assert b_band == 2 * nb
        assert 0 < g_outer <= ng                          # nodes where f(xi) - f(-xi) > 0
        assert t_outer == 0                               # the tail's term is even
        (nb, b_band, _), *_ = piece_counts(lambda: translate(P_FRAC, 0.9, self.SHIFTED, 1.4,
                                                             SPEC))
        assert b_band == 4 * nb

    def test_gamma_side_without_odd_weight_evaluates_the_even_terms(self, piece_counts):
        (nb, b_band, _), *_ = piece_counts(lambda: gamma_mass(P_FRAC, 0.9, 1.4, SPEC))
        assert b_band == 2 * nb
        (nb, b_band, _), *_ = piece_counts(lambda: product_residual(P_FRAC, 0.0, 0.9, 1.4, SPEC))
        assert b_band == 2 * nb
        (nb, b_band, _), *_ = piece_counts(lambda: product_residual(P_FRAC, 0.7, 0.9, 1.4, SPEC))
        assert b_band == 4 * nb


class TestLpProbe:
    def test_ratio_one_at_origin_only_grid(self):
        f = gaussian_profile(1.0)
        ys = Axis("y", 0.0, 0.0, 1)
        assert lp_bound_probe(P_DUNKL, 2.0, f, ys, SPEC, z_count=16) == 1.0

    @pytest.mark.parametrize("pexp", [1.0, 2.0, math.inf])
    def test_finite_ratios(self, pexp):
        f = gaussian_profile(1.0)
        ys = Axis("y", 0.1, 5.0, 3, "log")
        spec = QuadratureSpec(abs_tol=1e-8, rel_tol=1e-7)
        r = lp_bound_probe(P_DUNKL, pexp, f, ys, spec, z_count=24)
        assert math.isfinite(r) and r > 0.0

    def test_rejects_other_exponents(self):
        f = gaussian_profile(1.0)
        ys = Axis("y", 0.1, 1.0, 2)
        with pytest.raises(DomainError):
            lp_bound_probe(P_DUNKL, 3.0, f, ys, SPEC)


class TestMetamorphic:
    """Relations that need no reference value.  The measure is dilation
    invariant, so TV and mass depend on (x, y) only through y/x; TV is
    symmetric in (x, y); and the translation of an even profile is
    symmetric in y and z."""

    KA = [(0.75, 4.0 / 3.0), (0.5, 1.0), (1.0, 2.0), (0.62, 0.8), (0.9, 3.0)]

    @staticmethod
    def _draws(rng, n):
        for _ in range(n):
            yield (0.2 * math.exp(rng.random() * math.log(15.0)),
                   0.2 * math.exp(rng.random() * math.log(15.0)),
                   math.exp(rng.uniform(-1.5, 1.5)))

    def test_tv_and_mass_are_dilation_invariant_and_tv_symmetric(self):
        rng = random.Random(2024)
        for k, a in self.KA:
            p = Params(k, a)
            for x, y, s in self._draws(rng, 3):
                tv = tv_norm(p, x, y, TV_SPEC)
                assert abs(tv_norm(p, s * x, s * y, TV_SPEC) - tv) <= 1e-13 * tv, (k, a, x, y, s)
                assert abs(tv_norm(p, y, x, TV_SPEC) - tv) <= 1e-13 * tv, (k, a, x, y)
                mass, _ = gamma_mass(p, x, -y, SPEC)
                assert abs(gamma_mass(p, s * x, -s * y, SPEC)[0] - mass) <= 1e-13, (k, a, x, y, s)

    def test_translation_of_an_even_profile_is_symmetric(self):
        # both sign pairs; a compact (2/a integer) or with a tail; a support
        # that cuts the band (bump of radius 0.6) or covers it; and |y| = |z|
        rng = random.Random(17)
        profiles = (gaussian_profile(1.0), bump_profile(0.6), bump_profile(1.5),
                    Profile(lambda xi: 1.0, 1e3, "one"))
        for a in (2.0, 1.0, 4.0 / 3.0, 0.8, 3.0):
            for mu in (0.0, 0.375, 1.2):
                p = Params(0.5 * (mu * a + 1.0), a)
                for f in profiles:
                    for case in range(3):
                        y = 0.3 * math.exp(rng.random() * math.log(8.0))
                        z = y if case == 2 else 0.3 * math.exp(rng.random() * math.log(8.0))
                        sy = rng.choice((1.0, -1.0))
                        sz = -sy if case == 2 else rng.choice((1.0, -1.0))
                        v = translate(p, sy * y, f, sz * z, SPEC)
                        w = translate(p, sz * z, f, sy * y, SPEC)
                        assert abs(v - w) <= 1e-14 * max(1.0, abs(v)), (a, mu, f.name, y, z)
