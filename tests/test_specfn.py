"""Special-function layer: closed forms, cross-path consistency, envelopes."""

import math
import random
import sys

import mpmath
import pytest
from numpy.testing import assert_allclose

from gfkernel import _corepy, specfn
from gfkernel._backend import core
from gfkernel.errors import (
    DegenerateParameterError,
    DomainError,
    PoleError,
    RangeOverflowError,
)
from oracles import bessel_series_oracle, gegenbauer_series_oracle, legendre_poly_oracle


class TestLogGamma:
    def test_gamma_one(self):
        assert specfn.log_gamma(1.0).log_abs == 0.0

    def test_gamma_five(self):
        assert_allclose(specfn.log_gamma(5.0).log_abs, math.log(24.0), rtol=1e-15)

    def test_half_via_duplication(self):
        # Gamma(1/2) = sqrt(pi)
        assert_allclose(specfn.log_gamma(0.5).log_abs, 0.5 * math.log(math.pi), rtol=1e-15)

    def test_sign_flags(self):
        assert specfn.log_gamma(2.5).sign == 1
        assert specfn.log_gamma(-0.5).sign == -1
        assert specfn.log_gamma(-1.5).sign == 1

    def test_pole(self):
        with pytest.raises(PoleError):
            specfn.log_gamma(-3.0)


class TestGamma:
    @pytest.mark.parametrize("x", [1e-3, 0.5, 1.0, 5.0, 10.3, 100.7, 170.2,
                                   -0.5, -1.5, -2.3, -7.7, -20.2, -100.25])
    def test_against_mpmath(self, x):
        # exp of log|Gamma|: the rounding of a log of size L costs L ulps
        with mpmath.workdps(30):
            want = float(mpmath.gamma(mpmath.mpf(x)))
        assert_allclose(specfn.gamma(x), want, rtol=2e-16 * max(1.0, abs(math.log(abs(want)))) + 1e-15)

    @pytest.mark.parametrize("x, want", [(200.0, math.inf), (1e-320, math.inf),
                                         (-1e-320, -math.inf)])
    def test_overflow_saturates_with_its_sign(self, x, want):
        with mpmath.workdps(30):
            assert abs(mpmath.gamma(mpmath.mpf(x))) > sys.float_info.max
        assert specfn.gamma(x) == want

    def test_pole(self):
        with pytest.raises(PoleError):
            specfn.gamma(-3.0)


class TestBesselJ:
    def test_at_zero(self):
        assert specfn.bessel_j(0.0, 0.0) == 1.0
        assert specfn.bessel_j(1.0, 0.0) == 0.0

    def test_half_order_closed_form(self):
        # J_{1/2}(z) = sqrt(2/(pi z)) sin z
        z = 0.5 * math.pi
        assert_allclose(specfn.bessel_j(0.5, z), 2.0 / math.pi, rtol=1e-14)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.3, 2.0])
    @pytest.mark.parametrize("x", [0.3, 1.0, 2.7, 4.5])
    def test_against_series_oracle(self, nu, x):
        assert_allclose(specfn.bessel_j(nu, x), bessel_series_oracle(nu, x), rtol=1e-13)

    def test_order_validation(self):
        with pytest.raises(DomainError):
            specfn.bessel_j(-1.5, 1.0)
        with pytest.raises(DomainError):
            specfn.bessel_j(0.5, -1.0)

    @pytest.mark.parametrize("nu", [-0.4, 0.0, 0.5, 1.7, 4.5])
    def test_crossover_consistency(self, nu):
        # series and asymptotic paths agree where the switch happens: the
        # series up to the crossover, the asymptotic expansion one ulp past it
        xc = _corepy.bessel_crossover(nu)
        series = core.normalized_bessel_j(nu, xc)
        asym = core.normalized_bessel_j(nu, math.nextafter(xc, math.inf))
        assert series == _corepy.normalized_bessel_series(nu, xc)
        assert_allclose(series, asym, rtol=1e-12)


class TestNormalizedBessel:
    @pytest.mark.parametrize("nu", [-0.4, 0.0, 0.5, 1.7, 4.2])
    def test_unit_at_zero(self, nu):
        assert specfn.normalized_bessel_j(nu, 0.0) == 1.0

    @pytest.mark.parametrize("nu", [-1.0, -1.5, -3.0])
    def test_order_at_or_below_minus_one_refused(self, nu):
        with pytest.raises(DomainError, match=f"order nu={nu!r} must exceed -1"):
            specfn.normalized_bessel_j(nu, 1.0)

    @pytest.mark.parametrize("x", [-1e-300, -0.5, -30.0])
    def test_negative_argument_refused(self, x):
        with pytest.raises(DomainError, match=f"argument x={x!r} must be nonnegative"):
            specfn.normalized_bessel_j(0.5, x)

    def test_sinc_closed_form(self):
        assert_allclose(specfn.normalized_bessel_j(0.5, 2.0), 0.5 * math.sin(2.0), rtol=1e-14)

    def test_two_paths_at_one(self):
        nb = specfn.normalized_bessel_j(0.3, 1.0)
        via_j = math.gamma(1.3) * 0.5 ** (-0.3) * specfn.bessel_j(0.3, 1.0)
        assert abs(nb - via_j) <= 1e-12 * abs(nb)

    @pytest.mark.parametrize("nu", [-0.4, 0.0, 0.5, 1.7])
    @pytest.mark.parametrize("x", [0.1, 0.9, 3.3, 8.0, 14.0, 20.0])
    def test_path_consistency_window(self, nu, x):
        # the 1e-12 window holds across [0.1, 20] including the cancelling range
        nb = specfn.normalized_bessel_j(nu, x)
        recon = math.exp(math.lgamma(nu + 1.0) - nu * math.log(0.5 * x)) * specfn.bessel_j(nu, x)
        assert abs(nb - recon) <= 1e-12 * abs(nb)


# Bit pins of the pure-Python series, each the exact sum rounded once
# (test_series_returns_the_exact_sum_rounded_once checks them).  They cover
# nu in (-1, 6] and x from 1e-3 up to the crossover, including the
# cancelling range x ~ 15-25.
_SERIES_PINS = [
    (-0.9, 0.001, "0x1.ffffac1d2a7c6p-1"),
    (-0.9, 0.7, "-0x1.43cb893cfb889p-3"),
    (-0.9, 24.5, "0x1.d404120d8a06dp+3"),
    (-0.4, 0.05, "0x1.ff777e4af40bdp-1"),
    (-0.4, 17.3, "-0x1.7eb428f6a466ep-4"),
    (0.0, 2.404825557695773, "-0x1.19b7921f03c8ep-54"),
    (0.0, 25.0, "0x1.8a4f09ddc8214p-4"),
    (0.5, 3.14159, "0x1.c579d0d27ee95p-21"),
    (0.5, 19.75, "0x1.4506cd4cc3ea6p-5"),
    (1.7, 8.6, "0x1.414324c3a3ca8p-6"),
    (1.7, 15.2, "0x1.ea2bee14f0082p-8"),
    (3.5, 0.4, "0x1.fb7724bf82ed9p-1"),
    (3.5, 22.1, "-0x1.af2f67df58136p-12"),
    (6.0, 0.001, "0x1.fffffecd3774dp-1"),
    (6.0, 11.0, "-0x1.57a189f931f4ap-8"),
    (6.0, 36.0, "0x1.33ab29813bf63p-20"),
]

# Where the series cancels far below its largest term, next to a zero of
# J: the exact sum rounded once, on both cores.  The last point is the odd
# term of `eval-kernel --k 6 --a 1 --lambda 100 --x 150`.
_CANCELLING_PINS = [
    (0.375, 12.374426060366297, "0x1.04a09f281b098p-52"),
    (8.412812664076785, 42.685656955835164, "-0x1.bd9e286d5fdd1p-26"),
    (13.0, 244.94897427831782, "-0x1.12a594ed9ea8cp-63"),
]


@pytest.mark.parametrize("nu, x, expected", _SERIES_PINS)
def test_pure_series_bit_pins(nu, x, expected):
    # _corepy directly, so the pins hold whichever backend is selected
    assert _corepy.normalized_bessel_series(nu, x).hex() == expected


@pytest.mark.parametrize("nu, x, expected", _CANCELLING_PINS)
def test_series_is_correctly_rounded_where_it_cancels(core, nu, x, expected):
    # below the crossover normalized_bessel_j is the series
    assert core.normalized_bessel_j(nu, x).hex() == expected


def _exact_sum(nu, x, done):
    """(num, den, tail): the series summed as one exact rational num / den,
    term by term until done(num, den, tail), where the rest of the series
    lies within tail / den.  Past the term ratio 1/2 the tail alternates and
    falls, so it is within the last term."""
    nu_num, nu_den = nu.as_integer_ratio()
    xn, xd = x.as_integer_ratio()
    a, d = -xn * xn * nu_den, 4 * xd * xd  # ratio of term n to n-1: a / (d n (nu_num + n nu_den))
    num = den = term = 1  # the last term is term / den
    n = 0
    while True:
        n += 1
        b = d * n * (nu_num + n * nu_den)
        term *= a
        num = num * b + term
        den *= b
        if 2 * abs(a) < b and done(num, den, abs(term)):
            return num, den, abs(term)


def _exact_series(nu, x):
    """The series' exact sum rounded once: summed until both ends of its
    tail round to the same double (int / int rounds correctly)."""
    def rounded(num, den, tail):
        return (tail << 64) < abs(num) and (num - tail) / den == (num + tail) / den
    num, den, _ = _exact_sum(nu, x, rounded)
    return num / den


def early_stop_points():
    """20,000 seeded series arguments: 40 orders in (-1, 12), each with 500
    log-uniform x in [1e-3, bessel_crossover(nu)]."""
    rng = random.Random(20261018)
    for _ in range(40):
        nu = -1.0 + 13.0 * (1.0 - rng.random())
        top = math.log(_corepy.bessel_crossover(nu) / 1e-3)
        for _ in range(500):
            yield nu, 1e-3 * math.exp(top * rng.random())


def test_series_returns_the_exact_sum_rounded_once():
    points = list(early_stop_points()) + [(nu, x) for nu, x, _ in _SERIES_PINS + _CANCELLING_PINS]
    assert max(x for _, x in points) > 240.0
    wrong = [(nu, x) for nu, x in points
             if _corepy.normalized_bessel_series(nu, x) != _exact_series(nu, x)]
    assert not wrong, wrong[:5]


@pytest.mark.parametrize("bits", [16, None])
def test_series_error_bound_contains_the_error(bits):
    """At 16 fraction bits, where the floors of the terms show, and at the
    working precision: |S - 2^p sum| <= E at seeded points up to x = 2 nu^2."""
    rng = random.Random(20261019)
    for _ in range(1000):
        nu = rng.uniform(-0.999, 12.0)
        x = _corepy.bessel_crossover(nu) * rng.random() ** 2
        p = bits or 72 + int(1.45 * x)
        s, e = _corepy._series_sum(nu, x, p)
        num, den, tail = _exact_sum(nu, x, lambda num, den, tail: (tail << (p + 8)) < den)
        assert abs(s * den - (num << p)) + (tail << p) <= e * den, (nu, x, p)


@pytest.mark.parametrize("fn, args", [
    (specfn.log_gamma, (math.nan,)),
    (specfn.bessel_j, (0.5, math.nan)),
    (specfn.bessel_j, (0.5, math.inf)),
    (specfn.normalized_bessel_j, (0.5, math.nan)),
    (specfn.hyp2f1, (1.0, 1.0, 2.0, math.nan)),
    (specfn.hyp2f1, (math.nan, 1.0, 2.0, 0.3)),
    (specfn.legendre_p, (0.2, math.inf, 0.5)),
    (specfn.legendre_q_phase_free, (0.2, 0.5, math.inf)),
    (specfn.gegenbauer, (3, 0.5, math.nan)),
    (specfn.digamma, (math.inf,)),
    (specfn.gamma, (math.nan,)),
], ids=lambda v: getattr(v, "__name__", None))
def test_non_finite_argument_rejected(fn, args):
    with pytest.raises(DomainError, match="must be finite"):
        fn(*args)


class TestHyp2f1:
    def test_empty_sum(self):
        assert specfn.hyp2f1(0.7, 1.3, 2.1, 0.0).value == 1.0

    def test_terminating_at_zero_parameter(self):
        assert specfn.hyp2f1(0.0, 1.3, 2.1, 0.37).value == 1.0

    def test_log_closed_form(self):
        # 2F1(1,1;2;z) = -log(1-z)/z
        res = specfn.hyp2f1(1.0, 1.0, 2.0, 0.5)
        assert_allclose(res.value, 2.0 * math.log(2.0), rtol=1e-14)
        assert res.est_error < 1e-12

    def test_binomial_closed_form(self):
        # 2F1(a,b;b;z) = (1-z)^(-a)
        res = specfn.hyp2f1(0.7, 1.9, 1.9, 0.3)
        assert_allclose(res.value, (1.0 - 0.3) ** -0.7, rtol=1e-13)

    def test_transformation_branch(self):
        # (1-z)^(-a) closed form crosses the z > 1/2 connection path
        res = specfn.hyp2f1(0.7, 1.9, 1.9, 0.84)
        assert_allclose(res.value, (1.0 - 0.84) ** -0.7, rtol=1e-12)

    @pytest.mark.parametrize("z", [0.45, 0.48, 0.52, 0.55])
    def test_series_vs_transformation(self, z):
        import random
        rng = random.Random(7)
        for _ in range(12):
            a = rng.uniform(-1.5, 2.5)
            b = rng.uniform(-1.5, 2.5)
            c = rng.uniform(0.4, 3.0)
            d = c - a - b
            if abs(d - round(d)) < 0.05 or abs(a - round(a)) < 1e-6 or abs(b - round(b)) < 1e-6:
                continue
            direct, _ = _corepy.gauss_series(a, b, c, z)
            routed, _ = core.hyp2f1(a, b, c, z)
            assert abs(direct - routed) <= 1e-10 * max(abs(routed), 1.0)

    def test_pole_parameter(self):
        with pytest.raises(PoleError):
            specfn.hyp2f1(0.5, 0.5, -1.0, 0.3)

    def test_degenerate_connection(self):
        with pytest.raises(DegenerateParameterError):
            specfn.hyp2f1(0.9, 0.35, 1.25, 0.7)  # c-a-b = 0

    def test_domain(self):
        with pytest.raises(DomainError):
            specfn.hyp2f1(0.5, 0.5, 1.5, 1.2)

    def test_connection_power_overflow_is_typed(self):
        # c-a-b = -600.05: (1-z)^(c-a-b) leaves the double range while the
        # gamma ratio beside it does not
        with pytest.raises(RangeOverflowError, match=r"\(1-z\)\^\(c-a-b\) overflow"):
            _corepy.hyp2f1(300.3, 300.45, 0.7, 0.9)


class TestLegendreP:
    def test_unit_degree_zero(self):
        assert specfn.legendre_p(0.0, 0.0, 0.3) == 1.0

    def test_degree_one(self):
        assert_allclose(specfn.legendre_p(0.0, 1.0, 0.4), 0.4, rtol=1e-14)

    def test_at_one(self):
        assert specfn.legendre_p(0.0, 2.3, 1.0) == 1.0
        assert specfn.legendre_p(-0.7, 2.3, 1.0) == 0.0
        with pytest.raises(RangeOverflowError):
            specfn.legendre_p(0.7, 2.3, 1.0)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("t", [-0.9, -0.2, 0.55])
    def test_integer_degrees_vs_recurrence(self, n, t):
        assert_allclose(specfn.legendre_p(0.0, float(n), t),
                        legendre_poly_oracle(n, t), rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("mu,nu,t", [
        (0.3, 0.8, 0.4), (0.125, 1.375, -0.3), (-0.4, 2.1, 0.7),
        (0.45, 0.2, -0.8), (0.0, 1.3, 0.25),
    ])
    def test_degree_recurrence(self, mu, nu, t):
        # contiguous relation P^mu_{nu+1} = t P^mu_nu - (mu+nu) sqrt(1-t^2) P^{mu-1}_nu
        lhs = specfn.legendre_p(mu, nu + 1.0, t)
        rhs = (t * specfn.legendre_p(mu, nu, t)
               - (mu + nu) * math.sqrt(1.0 - t * t) * specfn.legendre_p(mu - 1.0, nu, t))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-4)

    @pytest.mark.parametrize("mu,nu", [(0.6, 0.9), (-0.3, 1.4), (0.2, 2.2)])
    def test_bound_envelope(self, mu, nu):
        # |P^mu_nu(t)| <= C (1-t^2)^(-mu/2) on [0, 1): fit C once on a grid
        # that reaches the endpoint scaling, then hold it on interleaved points
        fit = [0.05 * i for i in range(20)] + [1.0 - 10.0 ** -j for j in range(2, 9)]
        c_fit = max(abs(specfn.legendre_p(mu, nu, t)) * (1.0 - t * t) ** (0.5 * mu)
                    for t in fit)
        probe = ([0.025 + 0.05 * i for i in range(19)]
                 + [1.0 - 3.0 * 10.0 ** -j for j in range(2, 9)])
        for t in probe:
            assert (abs(specfn.legendre_p(mu, nu, t)) * (1.0 - t * t) ** (0.5 * mu)
                    <= 1.05 * c_fit)

    def test_degree_reflection(self):
        # P^mu_nu = P^mu_{-1-nu}
        assert_allclose(specfn.legendre_p(0.2, -1.8, 0.3),
                        specfn.legendre_p(0.2, 0.8, 0.3), rtol=1e-14)


class TestLegendreQ:
    def test_log_closed_form(self):
        # Q_0(t) = (1/2) log((t+1)/(t-1))
        assert_allclose(specfn.legendre_q_phase_free(0.0, 0.0, 2.0),
                        0.5 * math.log(3.0), rtol=1e-13)

    def test_far_asymptote(self):
        got = specfn.legendre_q_phase_free(0.0, 0.0, 1e6)
        assert_allclose(got, math.atanh(1e-6), rtol=1e-9)

    @pytest.mark.parametrize("mu,nu", [(0.3, 0.9), (-0.25, 1.4), (0.125, 1.375)])
    def test_monotone_decay(self, mu, nu):
        vals = [specfn.legendre_q_phase_free(mu, nu, t) for t in (10.0, 100.0, 1000.0)]
        assert vals[0] > vals[1] > vals[2] > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            specfn.legendre_q_phase_free(0.3, 0.9, 0.8)


class TestGegenbauer:
    def test_degree_zero(self):
        assert specfn.gegenbauer(0, 0.7, 0.3) == 1.0

    def test_degree_one(self):
        assert_allclose(specfn.gegenbauer(1, 0.7, 0.5), 0.7, rtol=1e-15)

    def test_degree_two_zero_crossing(self):
        # C_2^mu(t) = 2 mu (mu+1) t^2 - mu
        assert abs(specfn.gegenbauer(2, 1.0, 0.5)) < 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("mu", [0.4, 1.1])
    def test_against_sum_oracle(self, n, mu):
        for t in (-0.7, 0.2, 0.9):
            assert_allclose(specfn.gegenbauer(n, mu, t),
                            gegenbauer_series_oracle(n, mu, t), rtol=1e-12, atol=1e-13)

    def test_validation(self):
        with pytest.raises(DomainError):
            specfn.gegenbauer(2, 0.0, 0.5)
        with pytest.raises(DomainError):
            specfn.gegenbauer(-1, 0.5, 0.5)


class TestDigamma:
    def test_euler_gamma(self):
        assert_allclose(specfn.digamma(1.0), -0.5772156649015328606, rtol=1e-13)

    def test_recurrence(self):
        x = 0.37
        assert_allclose(specfn.digamma(x + 1.0), specfn.digamma(x) + 1.0 / x, rtol=1e-13)

    def test_reflection(self):
        x = 0.3
        lhs = specfn.digamma(1.0 - x) - specfn.digamma(x)
        assert_allclose(lhs, math.pi / math.tan(math.pi * x), rtol=1e-12)
