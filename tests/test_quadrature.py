"""Quadrature engines: examples, determinism, error paths."""

import math
import random
import subprocess
import sys
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gfkernel import Params, _corepy, delta_density, harness, quadrature
from gfkernel._gauss_jacobi import gauss_jacobi_rule
from gfkernel.errors import ConvergenceError, DomainError
from gfkernel.quadrature import (
    QuadratureSpec,
    _ladder_to,
    integrate_bessel_oscillatory,
    integrate_gauss_jacobi,
    integrate_power_tail,
    integrate_singular_band,
    integrate_singular_band2,
)
from gfkernel._backend import core

SPEC = QuadratureSpec()


class TestSpecValidation:
    def test_defaults(self):
        s = QuadratureSpec()
        assert list(QuadratureSpec._fields) == ["abs_tol", "rel_tol", "max_levels"]
        assert s.abs_tol == 1e-10 and s.rel_tol == 1e-9 and s.max_levels == 12
        assert quadrature._OSC_MAX_ZEROS == 200

    def test_invariants(self):
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(max_levels=3)


def _beta_arc(p):
    """∫_{-1}^{1} (1 - t^2)^p dt = sqrt(pi) Gamma(p + 1) / Gamma(p + 3/2)."""
    return math.exp(0.5 * math.log(math.pi) + math.lgamma(p + 1.0) - math.lgamma(p + 1.5))


class TestEdgeExponent:
    # p* where _SIGMA_MIN^(1 + p) = rel_tol: the plain rule below it
    P_SWITCH = math.log(SPEC.rel_tol) / math.log(quadrature._SIGMA_MIN) - 1.0

    @pytest.mark.parametrize("p", [-0.999, -0.99, -0.975, -0.96])
    def test_reaches_the_edge_mass(self, p):
        r = integrate_singular_band2(lambda t, dlo, dhi: (dlo * dhi) ** p, -1.0, 1.0,
                                     edge_exponent=p)
        assert abs(r.value - _beta_arc(p)) <= 1e-12 * _beta_arc(p)
        assert r.est_error <= 1e-9 * r.value

    def test_plain_rule_misses_that_mass(self):
        p = -0.975
        with pytest.raises(ConvergenceError):
            integrate_singular_band2(lambda t, dlo, dhi: (dlo * dhi) ** p, -1.0, 1.0)

    def test_one_singular_end_on_a_shifted_interval(self):
        # ∫_2^5 (x - 2)^p (x - 1) dx: a regular far end and a scaled half-width
        p = -0.99
        r = integrate_singular_band2(lambda x, dlo, dhi: dlo ** p * (x - 1.0), 2.0, 5.0,
                                     edge_exponent=p)
        want = 3.0 ** (p + 1.0) / (p + 1.0) + 3.0 ** (p + 2.0) / (p + 2.0)
        assert abs(r.value - want) <= 1e-12 * want

    def test_switch_sits_where_the_left_out_mass_meets_rel_tol(self):
        assert -0.947 < self.P_SWITCH < -0.945

    @pytest.mark.parametrize("p", [P_SWITCH + 1e-9, -0.9, -0.5, 0.5])
    def test_above_the_switch_the_plain_rule_runs_bit_for_bit(self, p):
        f = lambda t, dlo, dhi: (dlo * dhi) ** -0.4 * math.cos(t)
        assert integrate_singular_band2(f, -1.0, 2.0, edge_exponent=p) == \
            integrate_singular_band2(f, -1.0, 2.0)

    def test_below_the_switch_the_substitution_runs(self):
        f = lambda t, dlo, dhi: (dlo * dhi) ** -0.4 * math.cos(t)
        assert integrate_singular_band2(f, -1.0, 2.0, edge_exponent=self.P_SWITCH - 1e-9) != \
            integrate_singular_band2(f, -1.0, 2.0)

    def test_failure_carries_the_halves_partial(self):
        # A, 1 below the midpoint, converges on both halves (to 0 on the
        # right); B, sin(200 x) above it, makes the right half fail and is 0
        # on the left.  The failure of A + B carries A's left half plus B's
        # partial right half, bit for bit.
        spec = QuadratureSpec(max_levels=4)

        def run(a, b):
            def f2(x, dlo, dhi):
                g = a if x < 0.5 else (b * math.sin(200.0 * x) if x > 0.5 else 0.0)
                return g * (dlo * dhi) ** -0.99
            return integrate_singular_band2(f2, 0.0, 1.0, spec, edge_exponent=-0.99)

        left = run(1.0, 0.0).value
        with pytest.raises(ConvergenceError) as right:
            run(0.0, 1.0)
        with pytest.raises(ConvergenceError, match="edge exponent -0.99") as both:
            run(1.0, 1.0)
        assert right.value.partial is not None and right.value.partial != 0.0
        assert both.value.partial == left + right.value.partial

    @pytest.mark.parametrize("p", [-1.0, -2.0, math.nan])
    def test_exponent_must_exceed_minus_one(self, p):
        with pytest.raises(DomainError, match="edge_exponent"):
            integrate_singular_band2(lambda t, dlo, dhi: 1.0, 0.0, 1.0, edge_exponent=p)


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


def _full_ladder(f2, lo, hi, spec=SPEC):
    """The tanh-sinh rule without the walk: every node of every level.
    Returns (value, est_error, evaluations)."""
    half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
    evals, running, prev = 0, 0.0, None
    for level in range(spec.max_levels + 1):
        new = 0.0
        for xu, wu, sigma in quadrature._de_nodes(level):
            d_near, d_far = half * sigma, half * (1.0 + xu)
            if d_near <= 0.0:
                continue
            if xu == 0.0:
                new += wu * f2(mid, half, half)
                evals += 1
                continue
            new += wu * f2(hi - d_near, d_far, d_near)
            new += wu * f2(lo + d_near, d_near, d_far)
            evals += 2
        running = running + new
        total = 0.5 ** level * running
        if level >= 3 and prev is not None:
            diff = abs(total - prev)
            if diff <= max(spec.abs_tol, spec.rel_tol * abs(total)):
                return half * total, half * diff, evals
        prev = total
    raise AssertionError("the full ladder did not converge")


def _vanishing_between(a, b):
    """(a - x)^4 left of a, (x - b)^4 right of b, exactly 0 between."""
    return lambda x, dlo, dhi: (a - x) ** 4 if x <= a else ((x - b) ** 4 if x >= b else 0.0)


class TestWalk:
    """Each level stops walking toward an end after two terms in a row that
    leave its sum unchanged; the value and error estimate keep every bit of
    the full ladder."""

    @staticmethod
    def assert_as_the_full_ladder(f2, lo, hi):
        r = integrate_singular_band2(f2, lo, hi)
        value, est_error, evals = _full_ladder(f2, lo, hi)
        assert (r.value, r.est_error) == (value, est_error)
        assert r.evaluations <= evals
        return r.evaluations, evals

    @pytest.mark.parametrize("q", [-0.9, -0.5, 0.0, 1.5])
    @pytest.mark.parametrize("p", [-0.9, -0.5, 0.0, 1.5])
    def test_edge_powers(self, p, q):
        self.assert_as_the_full_ladder(
            lambda x, dlo, dhi: dlo ** p * dhi ** q / (2.0 + x), -1.0, 2.0)

    def test_oscillating(self):
        self.assert_as_the_full_ladder(lambda x, dlo, dhi: math.cos(40.0 * x), 0.0, 3.0)

    def test_complex(self):
        self.assert_as_the_full_ladder(
            lambda x, dlo, dhi: complex(math.cos(3.0 * x), math.sin(3.0 * x)) * dlo ** -0.5,
            0.0, 2.0)

    @pytest.mark.parametrize("a, b", [(-0.3, 0.3), (0.2, 0.6), (0.4, 0.95)])
    def test_integrand_that_vanishes_on_a_stretch(self, a, b):
        # the walk passes the zeros on one side to the mass beyond them
        self.assert_as_the_full_ladder(_vanishing_between(a, b), -1.0, 1.0)

    def test_smooth_integrand_stops_short_of_the_full_levels(self):
        walked, full = self.assert_as_the_full_ladder(lambda x, dlo, dhi: math.exp(x), 0.0, 1.0)
        assert full == 89 > walked         # levels 0 to 3: 11 + 12 + 22 + 44 nodes


class TestPowerTail:
    def test_inverse_square(self):
        r = integrate_power_tail(lambda t: t ** -2.0, 1.0, -2.0)
        assert_allclose(r.value, 1.0, rtol=1e-12)

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
        # cos(t) J_0(t) ~ cos(t) cos(t - pi/4) / sqrt(t) keeps a part that
        # neither decays nor alternates, so the 200-zero budget runs out
        with pytest.raises(ConvergenceError) as err:
            integrate_bessel_oscillatory(math.cos, 0.0, 1.0, 0.0)
        assert "within 200 zeros" in str(err.value)
        assert err.value.partial is not None

    @pytest.mark.parametrize("g", [lambda t: t, lambda t: math.sqrt(1.0 + t)],
                             ids=["t", "sqrt(1+t)"])
    def test_divergent_integral_is_refused(self, g):
        # the cells of t J_0(t) grow like x^(1/2), those of sqrt(1+t) J_0(t)
        # level off; the mW estimates settle on -1.5e-11 and 1.0656 all the same
        with pytest.raises(ConvergenceError, match="integrate_bessel_oscillatory") as err:
            integrate_bessel_oscillatory(g, 0.0, 1.0, 0.0)
        assert err.value.partial is not None

    def test_head_singularity_is_refused(self):
        # int_0 J_0(t) / t diverges at 0: the head's tanh-sinh levels never
        # agree there
        with pytest.raises(ConvergenceError, match="tanh-sinh rule did not converge"):
            integrate_bessel_oscillatory(lambda t: 1.0 / t, 0.0, 1.0, 0.0)

    def test_vanishing_integrand(self):
        # a cell that sums to exactly zero ends the integral instead of
        # dividing the W table by it
        r = integrate_bessel_oscillatory(lambda t: 0.0, 0.5, 1.0, 3.0)
        assert (r.value, r.est_error, r.evaluations) == (0.0, 0.0, 64)

    def test_estimate_covers_the_error_of_closed_forms(self):
        # seeded draws of the Laplace transform of J_nu, int e^(-pt) J_nu(ct) dt
        # = c^-nu (s - p)^nu / s = (c / (s + p))^nu / s with s = hypot(p, c),
        # and of Weber's int J_nu(ct) dt = 1/c, at three tolerances; 48 more
        # at non-integer orders, 32 of them in (-1, 1), where the head's end
        # at t = 0 is singular or not smooth.  Orders from about -0.9 down
        # are left out: there two Newton steps leave the ladder's first zero
        # off (J_-0.95 is 7e-5 at it), and the tail's error, up to 2.5e-11
        # on Weber's integral, stands above its estimate at any tolerance.
        specs = (SPEC, QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12),
                 QuadratureSpec(abs_tol=1e-6, rel_tol=1e-6))
        rng = random.Random(22)
        orders = [None] * 40 + [-0.45, -0.3, 0.375, 0.5, 1.5, 2.7] * 8
        for nu in orders:
            nu = rng.choice([0.0, 1.0, 2.0, rng.uniform(1.0, 5.0)]) if nu is None else nu
            c = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
            p = math.exp(rng.uniform(math.log(0.05), math.log(5.0))) if rng.random() < 0.7 else 0.0
            s = math.hypot(p, c)
            want = (c / (s + p)) ** nu / s
            r = integrate_bessel_oscillatory(lambda t: math.exp(-p * t), nu, c, 0.0,
                                             rng.choice(specs))
            assert abs(r.value - want) <= r.est_error, (nu, c, p)

    def test_estimate_covers_the_error_of_product_tails(self, monkeypatch):
        # the tails of product_residual at three points, against the rule at
        # 1e-15 absolute and 1e-14 relative tolerance
        calls = []

        def captured(g, order, freq, lo, spec):
            r = integrate_bessel_oscillatory(g, order, freq, lo, spec)
            calls.append((g, order, freq, lo, r))
            return r

        monkeypatch.setattr(harness, "integrate_bessel_oscillatory", captured)
        for k, a, lam, x, y in [(0.75, 4.0 / 3.0, 0.7, 0.4, 1.2), (0.75, 4.0 / 3.0, 1.9, 1.2, 2.5),
                                (0.3, 1.6, 0.9, 0.7, 1.5)]:
            harness.product_residual(Params(k, a), lam, x, y, SPEC)
        assert len(calls) == 3
        deep_spec = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-14)
        for g, order, freq, lo, r in calls:
            deep = integrate_bessel_oscillatory(g, order, freq, lo, deep_spec)
            assert deep.est_error <= 1e-2 * r.est_error
            assert abs(r.value - deep.value) <= r.est_error, (order, freq, lo)

    def test_validation(self):
        with pytest.raises(DomainError):
            integrate_bessel_oscillatory(lambda t: 1.0, 0.0, -1.0, 0.0)

    @pytest.mark.parametrize("freq, lo", [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf),
                                          (1.0, math.nan), (1.0, -1.0)])
    def test_non_finite_frequency_or_limit_is_refused(self, freq, lo):
        # an infinite frequency or limit would grow the zero ladder forever
        with pytest.raises(DomainError):
            integrate_bessel_oscillatory(lambda t: 1.0, 0.0, freq, lo)


def test_gauss_legendre_rule_is_numpys_bit_for_bit():
    x, w = np.polynomial.legendre.leggauss(16)
    assert [v.hex() for v in quadrature._GL_X] == [float(v).hex() for v in x]
    assert [v.hex() for v in quadrature._GL_W] == [float(v).hex() for v in w]
    assert all(type(v) is float for v in quadrature._GL_X + quadrature._GL_W)


class TestGaussJacobi:
    NS = [8, 12, 24, 64]
    ALPHAS = [-0.99, -0.5, -0.3, 0.0, 0.25, 1.5, 3.0]

    @pytest.fixture(scope="class")
    def mpmath_rules(self):
        # Golub-Welsch in 40 digits; the positive half, in increasing t
        mpmath = pytest.importorskip("mpmath")
        rules = {}
        with mpmath.workdps(40):
            for n in self.NS:
                for alpha in self.ALPHAS:
                    a = mpmath.mpf(alpha)
                    xs, ws = mpmath.mp.gauss_quadrature(n, "jacobi", a, a)
                    rules[n, alpha] = sorted((x, w) for x, w in zip(xs, ws) if x > 0)
        return rules

    @pytest.mark.parametrize("n", NS)
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_rule_is_correctly_rounded(self, mpmath_rules, n, alpha):
        # 0 ulps: each node, its distances to -1 and 1 and its weight is the
        # double nearest the 40-digit value
        ref = mpmath_rules[n, alpha]
        rule = gauss_jacobi_rule(n, alpha)
        assert len(rule) == len(ref) == n // 2
        for (t, w, opt, omt), (x, wx) in zip(rule, ref):
            assert (t, w, opt, omt) == (float(x), float(wx), float(1 + x), float(1 - x))

    @pytest.mark.parametrize("n", NS)
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_rule_against_scipy(self, n, alpha):
        special = pytest.importorskip("scipy.special")
        xs, ws = special.roots_jacobi(n, alpha, alpha)
        rule = gauss_jacobi_rule(n, alpha)
        assert_allclose([t for t, _, _, _ in rule], xs[n // 2:], rtol=0, atol=2.3e-16)
        # scipy's own weights stray from the 40-digit ones, by up to 7e-11
        # at n = 64, alpha = -0.99
        assert_allclose([w for _, w, _, _ in rule], ws[n // 2:], rtol=1e-10)

    @pytest.mark.parametrize("n", [3, 7])
    def test_odd_rules_hold_the_middle_node(self, n):
        rule = gauss_jacobi_rule(n, 0.4)
        assert rule[0][0] == 0.0 and len(rule) == (n + 1) // 2
        # ∫ t^2 (1 - t^2)^0.4 dt, exact for these rules
        got = sum(w * t * t * (1 if t == 0.0 else 2) for t, w, _, _ in rule)
        assert abs(got - _beta_arc(0.4) / 3.8) <= 1e-15

    def test_import_builds_no_rule_and_loads_no_array_library(self):
        # the rule module is compiled on the engine's first call
        code = ("import sys, gfkernel; loaded = sorted(m for m in ('numpy', 'scipy', "
                "'gfkernel._gauss_jacobi') if m in sys.modules); "
                "from gfkernel._gauss_jacobi import gauss_jacobi_rule; "
                "print(loaded, gauss_jacobi_rule.cache_info().currsize)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        assert proc.stdout.strip() == "[] 0"

    @pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 2.25])
    def test_smooth_factor_stops_at_the_first_pair(self, alpha):
        # ∫_{1/2}^{5/2} ((x - 1/2)(5/2 - x))^alpha x^2 dx, half-width 1
        r = integrate_gauss_jacobi(lambda x, dlo, dhi: (dlo * dhi) ** alpha * x * x,
                                   0.5, 2.5, edge_exponent=alpha)
        want = _beta_arc(alpha) * (2.25 + 1.0 / (2.0 * alpha + 3.0))
        assert r.evaluations == 20
        assert abs(r.value - want) <= 1e-14 * want

    def test_oscillating_factor_climbs_the_ladder(self):
        # ∫ (1 - t^2)^0.3 cos(20 t) dt = sqrt(pi) Gamma(1.3) (1/10)^0.8 J_0.8(20)
        # = 0.0286; successive rules differ by 3.8e-5 at (16, 24), 2.2e-14
        # at (24, 32) and 4.8e-16 at (32, 48)
        a = 0.3

        def f2(t, dlo, dhi):
            return (dlo * dhi) ** a * math.cos(20.0 * t)

        want = math.sqrt(math.pi) * math.gamma(a + 1.0) * 0.1 ** (a + 0.5) * core.bessel_j(a + 0.5, 20.0)
        r = integrate_gauss_jacobi(f2, -1.0, 1.0, edge_exponent=a)
        assert r.evaluations == 8 + 12 + 16 + 24 + 32
        assert abs(r.value - want) <= 1e-12 * abs(want)
        # at a tolerance of 1e-13 the (24, 32) difference is above 1e-2 of it
        tight = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13)
        r = integrate_gauss_jacobi(f2, -1.0, 1.0, tight, edge_exponent=a)
        assert r.evaluations == 8 + 12 + 16 + 24 + 32 + 48
        assert abs(r.value - want) <= 1e-13 * abs(want)

    def test_other_edge_powers_take_the_tanh_sinh_fallback(self, monkeypatch):
        # (1 + t)^(p + 1/4) (1 - t)^p: no rule of the weight (1 - t^2)^p
        # resolves the extra quarter power at t = -1
        p = -0.3
        calls = []
        fallback = quadrature.integrate_singular_band2

        def counted(*args, **kwargs):
            calls.append(kwargs.get("edge_exponent"))
            return fallback(*args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate_singular_band2", counted)
        r = integrate_gauss_jacobi(lambda t, dlo, dhi: dlo ** (p + 0.25) * dhi ** p,
                                   -1.0, 1.0, edge_exponent=p)
        a, b = p + 0.25, p
        want = 2.0 ** (a + b + 1.0) * math.exp(math.lgamma(a + 1.0) + math.lgamma(b + 1.0)
                                                - math.lgamma(a + b + 2.0))
        assert calls == [p]
        assert r.evaluations > sum(quadrature._GJ_LADDER)
        assert abs(r.value - want) <= 1e-9 * want

    def test_validation(self):
        with pytest.raises(DomainError):
            integrate_gauss_jacobi(lambda t, dlo, dhi: 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            integrate_gauss_jacobi(lambda t, dlo, dhi: 1.0, -1.0, 1.0, edge_exponent=-1.0)
        with pytest.raises(DomainError):
            gauss_jacobi_rule(0, 0.0)


class TestBesselZeros:
    @pytest.mark.parametrize("order", [0.0, 0.375, 1.875, 4.5])
    def test_zeros_are_zeros(self, order):
        zs = _ladder_to(order, 12)[:12]
        assert all(b > a for a, b in zip(zs, zs[1:]))
        for z in zs:
            assert abs(core.bessel_j(order, z)) < 1e-9

    @pytest.mark.parametrize("order", [-0.45, 0.0, 1.875])
    def test_ladder_from_a_later_zero(self, order):
        # zeros 37 to 56 are the same whether the ladder reaches them from
        # its 37th zero or grows to them at once
        quadrature._zero_ladder.cache_clear()
        at_once = _ladder_to(order, 56)[36:56]
        quadrature._zero_ladder.cache_clear()
        _ladder_to(order, 37)
        assert _ladder_to(order, 56)[36:56] == at_once

    def test_table_hands_out_copies_grown_as_far_as_asked(self):
        quadrature._zero_ladder.cache_clear()
        zs = _ladder_to(0.375, 7)[2:7]
        assert len(quadrature._zero_ladder(core, 0.375)) == 7     # zeros 1 to 7
        want = list(zs)
        zs[0] = -1.0
        zs.extend(want)                                    # a slice is a copy
        assert _ladder_to(0.375, 7)[2:7] == want
        longer = _ladder_to(0.375, 11)[2:11]
        assert longer[:5] == want and len(quadrature._zero_ladder(core, 0.375)) == 11
        quadrature._zero_ladder.cache_clear()
        assert _ladder_to(0.375, 11)[2:11] == longer       # cold, the same values

    def test_oscillatory_rule_computes_the_zeros_its_cells_reach(self):
        quadrature._zero_ladder.cache_clear()
        integrate_bessel_oscillatory(lambda t: math.exp(-t), 0.0, 1.0, 0.0)
        assert len(quadrature._zero_ladder(core, 0.0)) == 7    # its head and 6 cells

    def test_cells_start_at_the_first_zero_past_the_lower_limit(self, monkeypatch):
        # lo*freq = 41 lies between the 13th and 14th zeros of J_0; the
        # ladder runs from the first zero, and the head ends at the 14th.
        # The value, its estimate and the evaluations are the bits of the
        # pure-Python core, the reference; the value is at least as close to
        # mpmath's as the Euler-averaged rule's -0x1.8a1f741c5480cp-15 was
        # (1.3e-16 against 2.8e-12)
        monkeypatch.setattr(quadrature, "core", _corepy)
        quadrature._zero_ladder.cache_clear()
        r = integrate_bessel_oscillatory(lambda t: 1.0 / (1.0 + t * t), 0.0, 1.0, 41.0)
        assert (r.value.hex(), r.est_error.hex(), r.evaluations) == \
            ("-0x1.8a1f7292ec3b2p-15", "0x1.dd8fb4330afe5p-39", 144)
        assert quadrature._zero_ladder.cache_info().currsize == 1
        assert len(quadrature._zero_ladder(_corepy, 0.0)) == 20
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(20):
            ref = mpmath.quadosc(lambda t: mpmath.besselj(0, t) / (1 + t * t), [41, mpmath.inf],
                                 zeros=lambda n: mpmath.besseljzero(0, n + 13))
        assert abs(r.value - ref) <= abs(float.fromhex("-0x1.8a1f741c5480cp-15") - ref)

    def test_threads_growing_one_ladder_store_each_zero_once(self):
        quadrature._zero_ladder.cache_clear()
        want = _ladder_to(1.875, 123)[3:123]
        quadrature._zero_ladder.cache_clear()
        results = []

        def worker(step):
            results.extend(_ladder_to(1.875, n + 3)[3:n + 3] == want[:n]
                           for n in range(1, 121, step))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in (1, 3, 5, 7)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert all(results) and len(results) == 120 + 40 + 24 + 18
        assert quadrature._zero_ladder(core, 1.875)[3:] == want

    def test_import_computes_no_zero(self):
        code = "import gfkernel.quadrature as q; print(q._zero_ladder.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        assert proc.stdout.strip() == "0"

    def test_known_j0_zeros(self):
        zs = _ladder_to(0.0, 3)[:3]
        assert_allclose(zs, [2.404825557695773, 5.520078110286311, 8.653727912911013],
                        rtol=1e-9)
