"""Compiled core vs pure-Python core: one implementation, two builds.

The compiled core is ``src/gfkernel/_core.c``; the ``c_core`` and ``core``
fixtures (``conftest.py``) build or import it.
"""

import ast
import contextlib
import ctypes
import ctypes.util
import inspect
import math
import os
import random
import re
import signal
import subprocess
import sys
import types
from pathlib import Path

import pytest

from gfkernel import _corepy as py_core
from gfkernel import backend_name
from gfkernel.errors import ConvergenceError, DomainError, GfkError, PoleError, RangeOverflowError
from test_specfn import _CANCELLING_PINS, _SERIES_PINS, early_stop_points

ROOT = Path(__file__).resolve().parents[1]
CORE_C = ROOT / "src" / "gfkernel" / "_core.c"


@contextlib.contextmanager
def _deadline(seconds):
    """Fail with TimeoutError, instead of hanging the suite, past seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestBackendAgreement:
    def rel(self, a, b):
        if a == b:
            return 0.0  # covers the shared infinities at x = 0, nu < 0
        return abs(a - b) / max(abs(a), abs(b), 1e-300)

    def test_bessel_family(self, c_core):
        for nu in (-0.4, 0.0, 0.5, 1.7, 4.5):
            for x in (0.0, 0.3, 2.0, 19.0, 26.0, 120.0):
                assert self.rel(py_core.normalized_bessel_j(nu, x),
                                c_core.normalized_bessel_j(nu, x)) <= 1e-13
                assert self.rel(py_core.bessel_j(nu, x),
                                c_core.bessel_j(nu, x)) <= 1e-13

    def test_hyp2f1(self, c_core):
        for args in [(0.9, 0.35, 1.4, 0.3), (1.375, 0.125, 0.875, 0.77),
                     (2.4, -0.8, 1.1, 0.52), (0.9, -3.0, 1.2, 0.9)]:
            assert self.rel(py_core.hyp2f1(*args)[0], c_core.hyp2f1(*args)[0]) <= 1e-13

    def test_kernel_branches(self, c_core):
        for (mu, nu, x, y, z) in [(0.375, 1.875, 1.0, 1.2, 2.6), (0.4, 0.9, 0.8, 1.1, 2.2)]:
            assert self.rel(py_core.r_outer(mu, nu, x, y, z),
                            c_core.r_outer(mu, nu, x, y, z)) <= 1e-13
        for (mu, nu, x, y, z) in [(0.375, 1.875, 1.0, 1.2, 1.5), (1.5, 4.5, 1.0, 1.0, 1.6)]:
            assert self.rel(py_core.r_band(mu, nu, x, y, z),
                            c_core.r_band(mu, nu, x, y, z)) <= 1e-13

    def test_gamma_helpers(self, c_core, libm_lgamma):
        # the compiled log_abs_gamma and sinpi, reached through the outer
        # kernel at sin((mu - nu) pi) and Gamma(nu - mu + 1) of either sign,
        # and through the gamma ratios of the 2F1 connection formula at
        # negative arguments: the same doubles under one lgamma, also where
        # nu - mu is within 1e-12 of a negative integer (reflection)
        for mu, nu in [(0.3, 0.8), (0.45, 1.6), (2.7, 0.3), (1.9, 0.45), (3.1, 0.2),
                       (1.0, 0.0), (1.5, 0.5 + 5e-13), (2.0, -5e-13), (0.7, -0.3)]:
            assert (py_core.r_outer(mu, nu, 1.0, 1.2, 2.6).hex()
                    == c_core.r_outer(mu, nu, 1.0, 1.2, 2.6).hex()), (mu, nu)
        for args in [(2.3, 0.4, 0.6, 0.8), (-1.7, 0.6, 0.3, 0.7), (3.4, -2.2, -0.5, 0.9)]:
            assert py_core.hyp2f1(*args) == c_core.hyp2f1(*args), args

    def test_exception_parity(self, c_core):
        from gfkernel.errors import DegenerateParameterError, PoleError
        for mod in (py_core, c_core):
            with pytest.raises(PoleError):
                mod.hyp2f1(0.9, 0.35, -1.0, 0.7)
            with pytest.raises(DegenerateParameterError):
                mod.hyp2f1(0.9, 0.35, 1.25, 0.7)


# valid arguments of each compiled entry, hyp2f1 without its optional zc
_CONTRACT_ARGS = {
    "bessel_j": (0.5, 1.0),
    "normalized_bessel_j": (0.5, 1.0),
    "hyp2f1": (1.375, 0.125, 0.875, 0.77),
    "band_terms": (0.6, 1.1, 1.0, 1.2, 1.5, 0.8125, 1.1875, 31),
    "r_outer_core": (0.375, 1.875, 1.0, 1.2, 2.6, 2.3, 1.3),
    "r_band": (0.375, 1.875, 1.0, 1.2, 1.5),
    "r_outer": (0.375, 1.875, 1.0, 1.2, 2.6),
}


@pytest.mark.parametrize("name", sorted(_CONTRACT_ARGS))
def test_compiled_entries_take_the_pure_argument_contract(c_core, name):
    # a count the entry does not take, or an argument that does not convert,
    # is answered by _corepy: its error class and message; a keyword is
    # refused by CPython (every compiled entry is positional-only)
    assert sorted(_CONTRACT_ARGS) == sorted(n for n, _ in _compiled_entries())
    args, most = _CONTRACT_ARGS[name], dict(_compiled_entries())[name]
    calls = [args[:-1], args + (0.5,) * (most + 1 - len(args))]
    calls += [args[:i] + ("x",) + args[i + 1:] for i in range(len(args))]
    for call in calls:
        want = _outcome(getattr(py_core, name), *call)
        assert want[1] is not None, (name, call)
        assert _outcome(getattr(c_core, name), *call) == want, (name, call)
    last = list(inspect.signature(getattr(py_core, name)).parameters)[len(args) - 1]
    with pytest.raises(TypeError, match="keyword"):
        getattr(c_core, name)(*args[:-1], **{last: args[-1]})


def test_hyp2f1_takes_zc_by_position(c_core, libm_lgamma):
    args = (1.375, 0.125, 0.875, 0.77)
    assert c_core.hyp2f1(*args, None) == c_core.hyp2f1(*args)
    assert c_core.hyp2f1(*args, 0.23) == py_core.hyp2f1(*args, 0.23) != c_core.hyp2f1(*args)
    assert str(inspect.signature(c_core.hyp2f1)) == "(a, b, c, z, zc=None, /)"
    with pytest.raises(TypeError, match="keyword"):
        c_core.hyp2f1(*args, zc=0.23)
    # a failure defers to the pure core with the arguments as they were given
    for zc in (-0.5, None):
        with pytest.raises(DomainError, match=r"z=1\.5 outside \[0, 1\)"):
            c_core.hyp2f1(*args[:3], 1.5, zc)


# Exact-sum cases where the compiled double-double loop cannot certify the
# rounding (a zero of J, and sums that cancel far below their largest term):
# the compiled sum is NaN there, and each entry answers with _corepy
_UNCERTIFIED = [(0.0, 2.404825557695773), (6.0, 36.0)]
_UNCERTIFIED += [(nu, x) for nu, x, _ in _CANCELLING_PINS]


@pytest.mark.parametrize("nu, x", _UNCERTIFIED)
def test_uncertified_bessel_sum_is_the_pure_double(c_core, libm_lgamma, nu, x):
    for name in ("bessel_j", "normalized_bessel_j"):
        assert getattr(c_core, name)(nu, x).hex() == getattr(py_core, name)(nu, x).hex(), name


@pytest.mark.parametrize("name, args", [
    ("hyp2f1", (-1e15, 1.0, 2.0, 0.3)),
    ("legendre_p", (0.0, 1e15, 0.5)),
])
def test_huge_terminating_parameter_raises(core, name, args):
    # the terminating 2F1 sum and the Legendre recurrence stop at 4000 terms,
    # where the Gauss loop stops
    with _deadline(5), pytest.raises(ConvergenceError, match="1000000000000000 terms"):
        getattr(core, name)(*args)


@pytest.mark.parametrize("args", [(-200.0, 1.0, 2.0, 0.3), (-4000.0, 1.0, 2.0, 0.3)])
def test_cancelling_terminating_series_raises(core, args):
    # exact values (1 - 0.7^(1-a)) / ((1-a) 0.3): 0.016584 and 8.33e-4; the
    # alternating terms reach 1e114, so the double sum is noise or nan
    with pytest.raises(ConvergenceError, match="terminating 2F1 series lost every digit"):
        core.hyp2f1(*args)


@pytest.mark.parametrize("a", [-3.0, -60.0, -100.0])
def test_terminating_series_within_its_estimate_is_returned(core, a):
    value, err = core.hyp2f1(a, 1.0, 2.0, 0.3)
    assert abs(value - (1.0 - 0.7 ** (1.0 - a)) / ((1.0 - a) * 0.3)) <= err < abs(value)


@pytest.mark.parametrize("nu, x, expected", _SERIES_PINS)
def test_compiled_series_bit_pins(c_core, nu, x, expected):
    # every pin lies in (0, bessel_crossover(nu)], where normalized_bessel_j
    # returns the compiled series unchanged
    assert c_core.normalized_bessel_j(nu, x).hex() == expected


def test_compiled_series_early_stop_matches_the_pure_core(c_core):
    changed = [(nu, x) for nu, x in early_stop_points()
               if c_core.normalized_bessel_j(nu, x).hex()
               != py_core.normalized_bessel_series(nu, x).hex()]
    assert not changed, changed[:5]


@pytest.mark.parametrize("z", [0.0, 0.1])
@pytest.mark.parametrize("c", [0.0, -2.0, -2.0 + 1e-13])
def test_gauss_series_at_a_pole_of_c_raises(core, c, z):
    # before the series: at z = 0 it would end at its first term, and at
    # c = -2 its ratio of term 3 would divide by zero.  The compiled series
    # is reached through hyp2f1 only; the pure one is public as well.
    for fn in (py_core.gauss_series, core.hyp2f1):
        for _ in range(2):
            with pytest.raises(PoleError, match="2F1 parameter c=.* is a nonpositive integer"):
                fn(1.5, 1.0, c, z)


def _outcome(fn, *args):
    """fn(*args) as (value, None), or (None, (exception class, message))."""
    try:
        return fn(*args), None
    except Exception as exc:  # compared, not handled
        return None, (type(exc), str(exc))


@pytest.mark.parametrize("name, args, cls", [
    ("hyp2f1", (300.3, 300.45, 0.7, 0.9), RangeOverflowError),
    ("hyp2f1", (-1e15, 1.0, 2.0, 0.3), ConvergenceError),
    ("legendre_p", (0.0, 1e15, 0.5), ConvergenceError),
    # non-finite parameters and orders, refused before any other check
    ("hyp2f1", (math.nan, 0.5, 1.5, 0.3), DomainError),
    ("hyp2f1", (math.inf, 0.5, 1.5, 0.7), DomainError),
    ("hyp2f1", (0.5, 0.25, math.nan, 0.0), DomainError),
    ("gauss_series", (0.5, -math.inf, 1.5, 0.3), DomainError),
    ("r_band_core", (math.inf, 1.1, 1.0, 1.2, 2.2, 1.0, 1.0), DomainError),
    ("r_band_core", (0.6, math.nan, 1.0, 1.2, 0.9, 0.7, 1.3), DomainError),
    ("r_outer_core", (math.nan, 1.1, 1.0, 1.2, 2.2, 1.5, 0.5), DomainError),
    ("r_outer_core", (0.3, math.inf, 1.0, 1.2, 1e150, 1e300, 1e300), DomainError),
    # orders at or below -1 and non-finite arguments of the Bessel series
    ("normalized_bessel_series", (-1.0, 1.0), DomainError),
    ("normalized_bessel_series", (-2.0, 1.0), DomainError),
    ("normalized_bessel_series", (math.nan, 1.0), DomainError),
    ("normalized_bessel_series", (math.inf, 1.0), DomainError),
    ("normalized_bessel_series", (0.5, math.nan), DomainError),
    ("normalized_bessel_series", (0.5, -math.inf), DomainError),
    ("bessel_j", (-1.5, 2.0), DomainError),
    ("bessel_j", (-2.0, 2.0), DomainError),
    ("normalized_bessel_j", (-3.0, 2.0), DomainError),
    # past the fixed-point cap: refused by the pure sum on both cores
    ("normalized_bessel_series", (0.5, 1e6), ConvergenceError),
    # NaN Legendre orders and degrees, and a NaN Gegenbauer band order
    ("legendre_p", (math.nan, 0.5, 0.3), DomainError),
    ("legendre_p", (math.nan, 0.5, 1.0), DomainError),
    ("legendre_p", (0.0, math.nan, 0.3), DomainError),
    ("legendre_q_phase_free", (0.2, math.nan, 1.3), DomainError),
    ("legendre_q_phase_free", (math.nan, 0.5, 1.3), DomainError),
    ("r_gegenbauer_band", (math.nan, 2, 1.0, 1.2, 1.5), DomainError),
    # NaN and -inf arguments of the gamma helpers, and a non-finite sinpi argument
    ("log_abs_gamma", (math.nan,), DomainError),
    ("log_abs_gamma", (-math.inf,), DomainError),
    ("gammafn", (math.nan,), DomainError),
    ("gammafn", (-math.inf,), DomainError),
    ("rgamma", (math.nan,), DomainError),
    ("rgamma", (-math.inf,), DomainError),
    ("digamma", (math.nan,), DomainError),
    ("digamma", (-math.inf,), DomainError),
    ("sinpi", (math.nan,), DomainError),
    ("sinpi", (math.inf,), DomainError),
    ("sinpi", (-math.inf,), DomainError),
    # finite orders whose difference overflows
    ("r_outer_core", (1e308, -1e308, 1.0, 1.2, 2.5, 1.5, 0.5), DomainError),
    # the checks of the compiled helpers, reached through the kernels that
    # call them: the Bessel series' order and argument, the 2F1 parameters
    # (the Gauss series' entry made them), and sinpi at -inf
    ("normalized_bessel_j", (-1.0, 1.0), DomainError),
    ("normalized_bessel_j", (-1.25, 1.0), DomainError),
    ("normalized_bessel_j", (-2.0, 1.0), DomainError),
    ("normalized_bessel_j", (math.nan, 1.0), DomainError),
    ("normalized_bessel_j", (math.inf, 1.0), DomainError),
    ("normalized_bessel_j", (-math.inf, 1.0), DomainError),
    ("normalized_bessel_j", (0.5, -math.inf), DomainError),
    ("bessel_j", (math.nan, 2.0), DomainError),
    ("normalized_bessel_j", (800.0, 1e6), ConvergenceError),
    ("hyp2f1", (0.5, -math.inf, 1.5, 0.3), DomainError),
    ("r_outer_core", (-1e308, 1e308, 1.0, 1.2, 2.5, 1.5, 0.5), DomainError),
    # a failed sinpi before the return of an underflowing value, which
    # would hide it
    ("r_outer_core", (-1e308, 1e308, 1.0, 1.2, 2.5, 1e300, 1e300), DomainError),
    # NaN from the C library, where the pure core's math raises
    ("bessel_j", (0.5, math.inf), ValueError),
    ("normalized_bessel_j", (0.5, math.inf), ValueError),
    # a raw outer triple whose u - 1 rounds to or below 0 (here -inf), which
    # r_outer_core refuses rather than take its logarithm
    ("r_outer", (1.5, 30.0, -2.5, 30.0, -1e300), DomainError),
    # non-finite orders of a node's band kernels
    ("band_terms", (math.inf, 1.1, 1.0, 1.2, 2.2, 1.0, 1.0, 31), DomainError),
    ("band_terms", (0.6, math.nan, 1.0, 1.2, 0.9, 0.7, 1.3, 14), DomainError),
    # a raw outer triple whose 2 xa ya is 0, at a zero side or by underflow,
    # which r_outer refuses rather than divide by
    ("r_outer", (0.3, 0.8, 0.0, 1.2, 2.5), DomainError),
    ("r_outer", (0.3, 0.8, 1.0, -0.0, 2.5), DomainError),
    ("r_outer", (0.3, 0.8, 1e-200, 1e-200, 2.5), DomainError),
    ("r_outer", (math.nan, 0.8, 0.0, 1.2, 2.5), DomainError),
])
def test_compiled_core_raises_the_pure_error(c_core, name, args, cls):
    with _deadline(5):
        expected = _outcome(getattr(py_core, name), *args)
    assert expected[1][0] is cls
    if name in _shared_names():
        # _corepy's own on the compiled build as well
        assert getattr(c_core, name) is getattr(py_core, name)
    else:
        assert _outcome(getattr(c_core, name), *args) == expected


def _outer_by_mpmath(mu, nu, x, y, z):
    """R_{mu,nu}(x, y, z) off the band from its closed form at 40 digits,
    with sin((mu-nu) pi) and Gamma(nu-mu+1) taken apart: an integer nu - mu
    is moved by 1e-30 off the pole."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        m, n, x, y, z = (mpmath.mpf(v) for v in (mu, nu, x, y, z))
        if n - m == mpmath.nint(n - m):
            n += mpmath.mpf("1e-30")
        d = n - m
        u = (z * z - x * x - y * y) / (2 * x * y)
        return float(mpmath.sinpi(m - n) * (x * y) ** (m - 1) * mpmath.sqrt(mpmath.pi)
                     * mpmath.gamma(d + 1) / mpmath.gamma(n + 1) * u ** (-(d + 1))
                     * 2 ** (-(n + 0.5)) * mpmath.hyp2f1(d / 2 + 1, (d + 1) / 2, n + 1, u ** -2)
                     / (mpmath.sqrt(mpmath.pi ** 3 / 2) * z ** m))


@pytest.mark.parametrize("mu, nu", [(1.0, 0.0), (1.5, 0.5), (2.0, 0.0), (0.7, -0.3),
                                    (3.25, 0.25)])
def test_outer_kernel_at_a_negative_integer_offset(core, mu, nu):
    # nu - mu = -n, or within 1e-12 of it: sin((mu-nu) pi) Gamma(nu-mu+1) is
    # pi/Gamma(n), which vanishes at no n >= 1 (both cores returned 0.0 here;
    # R_{1,0}(x, y, z) is 1/z)
    for d in (0.0, 5e-13, -5e-13):
        want = _outer_by_mpmath(mu, nu + d, 1.0, 1.2, 3.0)
        got = core.r_outer(mu, nu + d, 1.0, 1.2, 3.0)
        assert abs(got - want) <= 1e-13 * abs(want), (d, got, want)


def test_gamma_helpers_keep_their_values_at_plus_infinity(core):
    assert core.log_abs_gamma(math.inf) == (math.inf, 1.0)
    assert core.gammafn(math.inf) == core.digamma(math.inf) == math.inf
    assert core.rgamma(math.inf) == 0.0


def test_bessel_series_at_a_huge_order(core):
    # the series' top term index comes from hypot(nu, x): nu^2 would
    # overflow past |nu| = 1.3e154
    assert core.normalized_bessel_j(1e300, 0.2) == 1.0
    assert core.bessel_j(1e300, 0.2) == 0.0


# ---------------------------------------------------------------------------
# Seeded parity sweep over every compiled export
# ---------------------------------------------------------------------------


def _band(rng):
    xa, ya = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
    return xa, ya, rng.uniform(abs(xa - ya), xa + ya)


def _outer(rng):
    xa, ya = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
    return xa, ya, xa + ya + rng.uniform(0.01, 5.0)


def _either(rng, p, special, general):
    return special() if rng.random() < p else general()


def _hyp2f1_args(rng):
    def par():
        return _either(rng, 0.1, lambda: float(rng.randint(-8, 0)),
                       lambda: rng.uniform(-6.0, 6.0))
    a, b = par(), par()
    c = _either(rng, 0.05, lambda: float(rng.randint(-3, 0)),
                lambda: _either(rng, 0.05, lambda: a + b + rng.randint(-2, 2),
                                lambda: rng.uniform(-3.0, 6.0)))
    z = rng.uniform(-0.05, 1.05)
    r = rng.random()
    return (a, b, c, z) if r < 0.5 else (a, b, c, z, 1.0 - z if r < 0.8 else rng.uniform(0.0, 1.0))


def _orders(rng):
    return rng.uniform(-0.45, 3.0), rng.uniform(-0.45, 4.0)


def _band_orders(rng):
    """Orders for the band kernel; a quarter with nu - mu an integer n >= 0,
    where the 2F1 is summed in its Euler form."""
    def integer_offset():
        mu = rng.uniform(-0.45, 3.0)
        return mu, mu + rng.randint(0, 4)
    return _either(rng, 0.25, integer_offset, lambda: _orders(rng))


def _band_terms_args(rng):
    xa, ya, za = _band(rng)
    twoxy, d, s = 2.0 * xa * ya, xa - ya, xa + ya
    return _band_orders(rng) + (xa, ya, za, (za - d) * (za + d) / twoxy,
                                (s - za) * (s + za) / twoxy, rng.randrange(32))


def _r_outer_core_args(rng):
    xa, ya, za = _outer(rng)
    s = xa + ya
    um1 = (za - s) * (za + s) / (2.0 * xa * ya)
    return _orders(rng) + (xa, ya, za, 1.0 + um1, um1)


# compiled export -> argument sampler: each domain with its poles, edges and
# error cases
_SAMPLERS = {
    "bessel_j": lambda rng: (rng.uniform(-0.99, 12.0),
                             _either(rng, 0.05, lambda: 0.0, lambda: rng.uniform(0.0, 300.0))),
    "normalized_bessel_j": lambda rng: (rng.uniform(-0.99, 12.0),
                                        _either(rng, 0.05, lambda: 0.0,
                                                lambda: rng.uniform(0.0, 300.0))),
    "hyp2f1": _hyp2f1_args,
    "band_terms": _band_terms_args,
    "r_outer_core": _r_outer_core_args,
    "r_band": lambda rng: _band_orders(rng) + _band(rng),
    "r_outer": lambda rng: _orders(rng) + _outer(rng),
}


def _hex(v):
    return tuple(_hex(p) for p in v) if isinstance(v, tuple) else v.hex()


@pytest.fixture
def libm_lgamma(monkeypatch):
    """_corepy with the C library's lgamma in place of CPython's own.

    lgamma is the one function the two cores do not share: CPython's
    math.lgamma is its own code and can differ from the C library by ulps,
    which cancellation in the 2F1 connection formula grows to about 6e-12
    relative on values of order one (more than the 2F1 error estimate), so
    no fixed tolerance separates it from a drift in the C code.  With one
    lgamma for both, every other operation must give the same double.  The
    plans that keep gamma values are emptied before and after.
    """
    name = ctypes.util.find_library("m")
    if name is None:
        pytest.skip("no C math library to load")
    lgamma = ctypes.CDLL(name).lgamma
    lgamma.restype, lgamma.argtypes = ctypes.c_double, [ctypes.c_double]

    def checked(x):
        if x <= 0.0 and x == math.floor(x):
            raise ValueError("math domain error")
        return lgamma(x)

    patched = types.SimpleNamespace(**vars(math))
    patched.lgamma = checked
    plans = (py_core._hyp2f1_plan, py_core._band_plan, py_core._outer_plan)
    for p in plans:
        p.cache_clear()
    monkeypatch.setattr(py_core, "math", patched)
    yield
    monkeypatch.undo()
    for p in plans:
        p.cache_clear()


def test_seeded_parity_sweep(c_core, libm_lgamma):
    """5,250 seeded points over the 7 compiled exports: the compiled core
    returns the pure core's double, or raises its class with its message.
    Points where the pure core raises an untyped ValueError or OverflowError
    are counted and not compared."""
    assert sorted(_SAMPLERS) == sorted(name for name, _ in _compiled_entries())
    rng = random.Random(20261018)
    compared = untyped = 0
    for name, sampler in _SAMPLERS.items():
        for _ in range(750):
            args = sampler(rng)
            want, want_err = _outcome(getattr(py_core, name), *args)
            if want_err is not None and not issubclass(want_err[0], GfkError):
                untyped += 1
                continue
            got, got_err = _outcome(getattr(c_core, name), *args)
            if want_err is not None or got_err is not None:
                assert got_err == want_err, (name, args)
            else:
                assert _hex(got) == _hex(want), (name, args)
            compared += 1
    assert compared + untyped == 5250 and compared >= 5000, untyped


_EXTREMES = (0.0, 1e-310, -1e-310, 1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan,
             -0.5, -1.0, -2.5)


def _finite(v):
    return all(map(math.isfinite, v)) if isinstance(v, tuple) else math.isfinite(v)


def test_extreme_argument_sweep(c_core, libm_lgamma):
    """2,100 seeded calls of the 7 compiled exports, each argument an extreme
    (zero, subnormal, huge, infinite, NaN, negative) half the time.  A
    compiled error or non-finite value is the pure core's outcome, and a
    finite value the pure core's double.  A finite value where the pure
    core raises is left only where that error is untyped (counted)."""
    rng = random.Random(20261020)
    untyped = 0
    with _deadline(10):
        for name, count in _compiled_entries():
            for _ in range(300):
                args = tuple(rng.choice(_EXTREMES) if rng.random() < 0.5
                             else rng.uniform(-1.0, 4.0) for _ in range(count))
                if name == "hyp2f1" and rng.random() < 0.4:
                    args = args[:4]
                if name == "band_terms":  # the mask is an int
                    args = args[:-1] + (rng.randrange(32),)
                want, want_err = _outcome(getattr(py_core, name), *args)
                got, got_err = _outcome(getattr(c_core, name), *args)
                if got_err is None and want_err is not None:
                    assert _finite(got) and not issubclass(want_err[0], GfkError), (name, args)
                    untyped += 1
                else:
                    assert got_err == want_err, (name, args)
                    assert got_err or _hex(got) == _hex(want), (name, args)
    assert untyped <= 4, untyped


# ---------------------------------------------------------------------------
# The band entry against the kernels it gathers
# ---------------------------------------------------------------------------


def _band_by_kernels(mu, nu, xa, ya, za, omt, opt, mask):
    """band_terms by one pure r_band_core call per kernel, in slot order:
    the permuted angles' complements from the triple's excesses, and
    R_{mu,mu} at (xa, za, ya) under BAND_MM_AT_XZ, else at (xa, ya, za)."""
    twoxy, s, dm = 2.0 * xa * ya, xa + ya + za, abs(xa - ya)
    ez, lo = twoxy * opt / s, twoxy * omt / (za + dm)
    ex, ey = (dm + za, lo) if ya >= xa else (lo, dm + za)
    c_xz = (ex * ez / (2.0 * xa * za), ey * s / (2.0 * xa * za))
    ey, ex = (dm + za, lo) if xa >= ya else (lo, dm + za)
    c_yz = (ey * ez / (2.0 * ya * za), ex * s / (2.0 * ya * za))
    mm, at_xz = mask & py_core.BAND_MM, mask & py_core.BAND_MM_AT_XZ
    calls = [(0, mu, (xa, za, ya) + c_xz if at_xz else (xa, ya, za, omt, opt))] if mm else []
    calls += [(1, nu, (xa, ya, za, omt, opt))] if mask & py_core.BAND_XY else []
    calls += [(2, nu, (xa, za, ya) + c_xz)] if mask & py_core.BAND_XZ else []
    calls += [(3, nu, (ya, za, xa) + c_yz)] if mask & py_core.BAND_YZ else []
    out = [0.0] * 4
    for slot, order, args in calls:
        out[slot] = py_core.r_band_core(mu, order, *args)
    return tuple(out)


def _band_triples():
    """(xa, ya, za, omt, opt): seeded band triples, then xa = ya, za within
    1e-12 relative of |xa - ya| (omt -> 0) and of xa + ya (opt -> 0), and
    an omt past its edge, which puts each angle's 2F1 argument outside
    [0, 1) at its own z: the error names the first kernel to fail."""
    rng = random.Random(20261021)
    sides = [_band(rng) for _ in range(12)]
    sides += [(1.3, 1.3, 0.4), (0.7, 0.7, 1e-8), (0.8, 1.9, 1.1 * (1.0 + 1e-12)),
              (2.2, 0.6, 2.8 * (1.0 - 1e-12)), (1.0, 2.0, 1.5)]
    out = []
    for xa, ya, za in sides:
        twoxy, d, s = 2.0 * xa * ya, xa - ya, xa + ya
        out.append((xa, ya, za, (za - d) * (za + d) / twoxy, (s - za) * (s + za) / twoxy))
    return out + [(1.0, 1.5, 0.5, -3e-12, 2.0 + 3e-12)]


# a general pair, nu - mu = 0, 1 and 3 (the Euler form), at mu = 3/2 a pair
# whose connection formula is degenerate (R raises on an obtuse angle, as the
# one between 1.0 and 1.5 of the triple (1.0, 2.0, 1.5)), a NaN nu, which R
# refuses and R_{mu,mu} does not, and a NaN mu, which both refuse with
# messages that differ (nu=nan against nu=0.6): the error tells which kernel
# came first
_BAND_ORDERS = [(0.6, 1.1), (0.375, 0.375), (0.375, 1.375), (1.5, 4.5), (-0.3, 0.9),
                (1.5, 0.7), (0.6, math.nan), (math.nan, 0.6)]


def test_band_terms_is_the_kernels_it_gathers(core, libm_lgamma):
    # every mask, bit for bit, or the error the first failing kernel raises
    raised = 0
    for mu, nu in _BAND_ORDERS:
        for triple in _band_triples():
            for mask in range(32):
                want = _outcome(_band_by_kernels, mu, nu, *triple, mask)
                got = _outcome(core.band_terms, mu, nu, *triple, mask)
                assert (got[1] or _hex(got[0])) == (want[1] or _hex(want[0])), \
                    (mu, nu, triple, mask)
                raised += want[1] is not None
    assert raised > 0


# ---------------------------------------------------------------------------
# Source twin: checked without a build
# ---------------------------------------------------------------------------


def _compiled_entries():
    """(name, positional parameter count) of each entry of _core.c's method
    table, the count read from the entry's text signature (its "/", which
    marks the parameters positional-only, is no parameter)."""
    src = CORE_C.read_text()
    table = re.search(r"PyMethodDef \w+\[\] = \{(.*?)\n\};", src, re.S).group(1)
    sigs = dict(re.findall(r'"(\w+)\(([^)]*)\)\\n--\\n\\n"', src))
    for name in re.findall(r"ENTRY\((\w+)\)", table):
        yield name, sum(p.strip() not in ("", "/") for p in sigs[name].split(","))


def _shared_names():
    """The names of _core.c's shared[] list: the functions the compiled
    module takes from _corepy at import."""
    src = CORE_C.read_text()
    listed = re.search(r"char \*const shared\[\] = \{(.*?)\};", src, re.S).group(1)
    return re.findall(r'"(\w+)"', listed)


def _core_names_used():
    """Every core.<name> of the package's modules and the benchmark's kernel
    probes (perfbench/probe.py KERNEL_CASES)."""
    names = set()
    for path in (ROOT / "src" / "gfkernel").glob("*.py"):
        names.update(re.findall(r"\bcore\.(\w+)", path.read_text()))
    probe = ast.parse((ROOT / "perfbench" / "probe.py").read_text())
    for node in probe.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "KERNEL_CASES":
            names.update(fn for fn, _ in ast.literal_eval(node.value).values())
    return names


def test_pure_core_mirrors_every_compiled_def():
    entries = dict(_compiled_entries())
    shared = _shared_names()
    assert len(entries) == 7 and len(set(shared)) == len(shared) == 14
    assert not set(entries) & set(shared), sorted(set(entries) & set(shared))
    for name in shared:
        fn = getattr(py_core, name, None)
        assert inspect.isfunction(fn) and fn.__module__ == py_core.__name__, name
    for name, count in entries.items():
        fn = getattr(py_core, name, None)
        assert callable(fn), f"_corepy has no {name}"
        positional = [p for p in inspect.signature(fn).parameters.values()
                      if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        assert len(positional) == count, f"{name}: {len(positional)} != {count}"
    used = _core_names_used()
    assert "hyp2f1" in used and "normalized_bessel_j" in used
    missing = used - set(entries) - set(shared)
    assert not missing, f"missing from _core.c: {sorted(missing)}"


def test_compiled_core_takes_the_shared_functions_from_the_pure_core(c_core):
    for name in _shared_names():
        assert getattr(c_core, name) is getattr(py_core, name), name
    for name, _ in _compiled_entries():
        assert inspect.isbuiltin(getattr(c_core, name)), name


def test_backend_env_override():
    env = dict(os.environ, GFKERNEL_BACKEND="python")
    proc = subprocess.run(
        [sys.executable, "-c", "import gfkernel; print(gfkernel.backend_name())"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "python"


@pytest.mark.parametrize("value", ["pyhton", "pure"])
def test_backend_env_takes_only_python_or_c(value):
    # a misspelt or retired spelling fails the import instead of falling
    # back to whichever core happens to be built
    env = dict(os.environ, GFKERNEL_BACKEND=value)
    proc = subprocess.run([sys.executable, "-c", "import gfkernel"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode != 0
    assert "ImportError" in proc.stderr
    assert f"GFKERNEL_BACKEND={value!r}" in proc.stderr and "'python' or 'c'" in proc.stderr


def test_active_backend_reported():
    assert backend_name() in ("c", "python")


def test_pure_backend_passes_spot_acceptance():
    """A quick product-formula point under the forced pure backend."""
    env = dict(os.environ, GFKERNEL_BACKEND="python")
    code = ("import gfkernel\n"
            "from gfkernel import Params\n"
            "from gfkernel.harness import product_residual\n"
            "assert gfkernel.backend_name() == 'python'\n"
            "r = product_residual(Params(0.75, 4.0/3.0), 1.1, 0.7, 1.3)\n"
            "assert r.rel_residual <= 1e-5, r\n"
            "print('ok')\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
