"""Per-order tables of the pure-Python series kernels.

The tables hold work that depends only on a kernel's parameters; they must
never change a value.  The bit pins below were recorded before the tables
existed; every test here calls ``_corepy`` directly, so it holds whichever
backend is selected.
"""

import gc
import math
import random
import sys
import threading
import tracemalloc

import pytest

from gfkernel import _corepy
from gfkernel.errors import (
    ConvergenceError,
    DegenerateParameterError,
    DomainError,
    PoleError,
    RangeOverflowError,
)
from test_specfn import _SERIES_PINS

# (function, args, kwargs, float.hex of the value or of each (value, err) part)
_PINS = [
    ("gauss_series", (1.25, -0.25, 1.1, 0.3), {}, ("0x1.cdde85b7ac317p-1", "0x1.0094fff19911fp-53")),
    ("gauss_series", (0.7, 1.9, 2.6, 0.49), {}, ("0x1.633c8273a7522p+0", "0x1.4f5e178d9bd72p-53")),
    ("gauss_series", (-0.35, 2.2, 0.8, 0.12), {}, ("0x1.c04ee547f51e0p-1", "0x1.039b2a2e16458p-53")),
    ("gauss_series", (3.0, 2.5, 1.5, 0.45), {}, ("0x1.fb11b66335f12p+3", "0x1.e7e72bfe27bb9p-50")),
    ("gauss_series", (0.2, 0.8, 1.5, 0.05), {}, ("0x1.01654de6f5ce9p+0", "0x1.cfe2109625471p-54")),
    # connection formula, zc supplied near z = 1
    ("hyp2f1", (1.25, -0.25, 1.1, 0.8), {"zc": 0.2}, ("0x1.35336d2c35400p-1", "0x1.1aa45c62f584ap-50")),
    ("hyp2f1", (1.25, -0.25, 1.1, 1.0 - 1e-9), {"zc": 1e-9},
     ("-0x1.14d13e3820222p+0", "0x1.1ea38cc8c8421p-51")),
    ("hyp2f1", (0.7, 1.9, 2.9, 0.95), {"zc": 0.05}, ("0x1.541372c1f83bep+1", "0x1.667af84fe68eep-49")),
    ("hyp2f1", (1.3, 1.15, 1.9, 1.0), {"zc": 2.5e-13}, ("0x1.e36640dc0abcbp+23", "0x1.468e425730217p-28")),
    # terminating branch
    ("hyp2f1", (-3.0, 1.5, 2.5, 0.9), {}, ("0x1.6d6bf577a9662p-3", "0x1.c2266431587fcp-52")),
    ("hyp2f1", (0.5, -2.0, 1.5, 0.7), {}, ("0x1.433e1f671529bp-1", "0x1.68c99e27c17c9p-53")),
    ("r_band_core", (0.6, 1.1, 1.0, 1.2, 0.9, 0.7, 1.3), {}, "0x1.0f6cdcb3a83bep-2"),
    ("r_band_core", (0.25, 0.25, 0.8, 1.5, 1.1, 1e-10, 2.0 - 1e-10), {}, "0x1.5eb69698ac27bp+6"),
    ("r_band_core", (1.75, 2.25, 2.0, 0.5, 1.8, 1.9, 0.1), {}, "-0x1.37cfa3fd6c944p-6"),
    ("r_outer_core", (0.6, 1.1, 1.0, 1.2, 2.9, 1.7, 0.7), {}, "-0x1.11c49f3408d9dp-5"),
    ("r_outer_core", (0.25, 1.75, 0.8, 1.5, 2.31, 1.0 + 1e-9, 1e-9), {}, "0x1.cb7282a749845p+5"),
    ("r_outer_core", (0.125, 0.625, 2.0, 0.5, 40.0, 799.0, 798.0), {}, "-0x1.7e448b099823cp-18"),
    ("legendre_q_phase_free", (0.2, 0.5, 1.3), {}, "0x1.24297deaa6281p-1"),
    ("legendre_q_phase_free", (0.75, 1.2, 1.0 + 1e-8), {}, "0x1.8d4a4c2b66288p+9"),
] + [("normalized_bessel_series", (nu, x), {}, want) for nu, x, want in _SERIES_PINS]


def _hex(v):
    return tuple(_hex(p) for p in v) if isinstance(v, tuple) else v.hex()


def _call(pin):
    name, args, kwargs, _ = pin
    return _hex(getattr(_corepy, name)(*args, **kwargs))


_MEMOS = (_corepy._bessel_table, _corepy._hyp2f1_plan, _corepy._band_plan,
          _corepy._outer_plan)


def _clear_tables():
    for memo in _MEMOS:
        memo.cache_clear()


def _churn(rng, n):
    """Calls with n fresh orders and triples, enough to evict every memo entry."""
    for _ in range(n):
        _corepy.normalized_bessel_series(rng.uniform(-0.9, 8.0), rng.uniform(0.1, 20.0))
        a, b = rng.uniform(-2.5, 3.0), rng.uniform(-2.5, 3.0)
        c = rng.uniform(0.3, 4.0)
        if abs(c - a - b - round(c - a - b)) > 1e-3:
            _corepy.hyp2f1(a, b, c, rng.uniform(0.55, 0.95))
        _corepy.gauss_series(a, b, c, rng.uniform(0.0, 0.5))
        mu, nu = rng.uniform(-0.4, 3.0), rng.uniform(-0.4, 3.0)
        _corepy.r_band_core(mu, nu, 1.0, 1.2, 0.9, 0.7, 1.3)
        _corepy.r_outer_core(mu, nu, 1.0, 1.2, 2.9, 1.7, 0.7)


@pytest.mark.parametrize("pin", _PINS, ids=lambda p: f"{p[0]}{p[1]}")
def test_bit_pins(pin):
    _clear_tables()
    assert _call(pin) == pin[3]   # cold tables
    assert _call(pin) == pin[3]   # warm tables


def test_tables_never_change_a_value():
    want = [pin[3] for pin in _PINS]
    rng = random.Random(5)
    _clear_tables()
    assert [_call(p) for p in _PINS] == want                    # cold
    assert [_call(p) for p in _PINS] == want                    # warm
    _clear_tables()
    assert [_call(p) for p in reversed(_PINS)] == want[::-1]    # other growth order
    got = []
    for pin in _PINS:                                           # every memo evicted
        _churn(rng, 70)                                         # between two calls
        got.append(_call(pin))
    assert got == want


def _in_threads(worker):
    """worker(seed) on 4 threads that switch as often as they can."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)


def test_threads_on_interleaved_parameters():
    want = {i: pin[3] for i, pin in enumerate(_PINS)}
    errors, mismatches = [], []

    def worker(seed):
        rng = random.Random(seed)
        order = list(range(len(_PINS)))
        try:
            for _ in range(6):
                rng.shuffle(order)
                for i in order:
                    if _call(_PINS[i]) != want[i]:
                        mismatches.append(i)
                _churn(rng, 20)
        except Exception as exc:  # reported below; the test fails on any
            errors.append(exc)

    _clear_tables()
    _in_threads(worker)
    assert errors == [] and mismatches == []


def test_stores_stay_within_their_caps():
    rng = random.Random(11)
    _clear_tables()
    for _ in range(1000):
        _churn(rng, 1)
        for memo in _MEMOS:
            info = memo.cache_info()
            assert info.currsize <= info.maxsize


def _fill_with_long_tables():
    """Every memo full, in the order that keeps the most tables alive: band
    and outer plans first, whose 2F1 plans the next 64 then evict from their
    memo.  Every series reaches the row cap, and many run past it."""
    u = math.sqrt(2.0)  # z = 1/u^2 = 1/2
    for i in range(16):
        nu = 7.0 + i / 8.0  # from 7 on, the sum at the crossover reaches the cap
        _corepy.normalized_bessel_series(nu, _corepy.bessel_crossover(nu))
        mu = 0.3 + i / 64.0
        _corepy.r_band_core(mu, 140.37 + i / 64.0, 1.0, 1.2, 0.9, 1.0, 1.0)
        _corepy.r_band_core(mu, 140.37 + i / 64.0, 1.0, 1.2, 0.9, 1.0 + 1e-9, 1.0 - 1e-9)
        _corepy.r_outer_core(mu, 160.37 + i / 64.0, 1.0, 1.2, 2.9, u + 1e-9, u - 1.0 + 1e-9)
        _corepy.r_outer_core(mu, 160.37 + i / 64.0, 1.0, 1.2, 2.9, u - 1e-9, u - 1.0 - 1e-9)
    for i in range(64):
        a, b, c = 140.87 + i / 64.0, -139.87, 1.3
        _corepy.hyp2f1(a, b, c, 0.5)
        _corepy.hyp2f1(a, b, c, 0.5 + 1e-9)


def test_memos_hold_less_than_the_stated_bound():
    bound = 2.5 * 2 ** 20  # 2.5 MiB, as the _corepy docstring states
    _clear_tables()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _fill_with_long_tables()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # 16 Bessel tables, and three Gauss tables in each of 96 plans
    tables = [o for o in gc.get_objects() if isinstance(o, _corepy._Table)]
    assert len(tables) == 16 + 3 * 96
    assert {len(t.rows) for t in tables} == {_corepy._TABLE_ROWS}
    assert held < bound
    _clear_tables()


def test_keys_are_typed_and_signed_zeros_share_a_table():
    _clear_tables()
    assert _corepy.gauss_series(1, 2, 3, 0.25) == _corepy.gauss_series(1.0, 2.0, 3.0, 0.25)
    assert _corepy._hyp2f1_plan.cache_info().currsize == 2
    # +-0.0 compare equal and share a key; both give the same rows, since
    # a + n (n >= 0) rounds a zero of either sign to +0.0 or n, and a zero
    # order of either sign has the integer ratio (0, 1)
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        _clear_tables()
        v1 = _corepy.normalized_bessel_series(first, 3.7), _corepy.gauss_series(first, 1.5, 2.5, 0.4)
        v2 = _corepy.normalized_bessel_series(second, 3.7), _corepy.gauss_series(second, 1.5, 2.5, 0.4)
        _clear_tables()
        v3 = _corepy.normalized_bessel_series(second, 3.7), _corepy.gauss_series(second, 1.5, 2.5, 0.4)
        assert _hex(v1) == _hex(v2) == _hex(v3)
    assert _corepy._bessel_table.__wrapped__(0.0).grown((), 40) == \
        _corepy._bessel_table.__wrapped__(-0.0).grown((), 40)


@pytest.mark.parametrize("name, args, exc, message", [
    ("gauss_series", (1.5, 1.0, -2.0, 0.1), PoleError, "2F1 parameter c=-2.0 is a nonpositive integer"),
    ("gauss_series", (0.5, 0.5, 1.7, 0.9999), ConvergenceError,
     "2F1 series did not converge (a=0.5, b=0.5, c=1.7, z=0.9999)"),
    ("gauss_series", (10 ** 400, 1, 2, 0.3), OverflowError, "int too large to convert to float"),
    ("normalized_bessel_series", (-2.0, 1.0), DomainError,
     "normalized Bessel series needs a finite order nu > -1 and a finite x (nu=-2.0, x=1.0)"),
    ("normalized_bessel_series", (math.nan, 1.0), DomainError,
     "normalized Bessel series needs a finite order nu > -1 and a finite x (nu=nan, x=1.0)"),
    ("hyp2f1", (0.5, 0.5, -1.0, 0.3), PoleError, "2F1 parameter c=-1.0 is a nonpositive integer"),
    ("hyp2f1", (0.5, 0.5, 1.0, 0.8), DegenerateParameterError,
     "2F1 connection formula degenerate: c-a-b=0.0 is (near) an integer"),
    ("hyp2f1", (600.3, 600.45, 0.7, 0.9), RangeOverflowError,
     "gamma ratio overflow in 2F1 connection formula"),
])
def test_bad_input_raises_every_time(name, args, exc, message):
    _clear_tables()
    fn = getattr(_corepy, name)
    for _ in range(3):
        with pytest.raises(exc) as info:
            fn(*args)
        assert str(info.value) == message


# Every branch of the per-parameter plans of hyp2f1, r_band_core and
# r_outer_core: (function, args, kwargs, outcome), the outcome the float.hex
# of the value (of each (value, err) part) or "Type: message" of the error,
# recorded before the plans existed.  A plan must keep each one, including
# where an error is raised relative to the other checks.
_PLAN_CASES = [
    # terminating b: nu = 1/2 makes b = 1/2 - nu = 0
    ("r_band_core", (0.6, 0.5, 1.0, 1.2, 0.9, 0.7, 1.3), {}, "0x1.9a5b39253d48dp-2"),
    ("r_band_core", (0.6, 0.5, 1.0, 1.2, 2.1, 1.6, 0.4), {}, "0x1.0c1682fd7271bp-2"),
    ("hyp2f1", (1.0, 0.0, 1.1, 0.7), {}, ("0x1.0000000000000p+0", "0x1.cd2b297d889bcp-54")),
    ("hyp2f1", (2.5, -3.0, 1.5, 0.95), {}, ("-0x1.2f1a9fbe76e00p-8", "0x1.a5f55dc4ca52cp-50")),
    # c at a pole: raised before any check on z in hyp2f1 and r_band_core,
    # after the u checks in r_outer_core
    ("hyp2f1", (0.5, 0.5, -2.0, 0.0), {}, "PoleError: 2F1 parameter c=-2.0 is a nonpositive integer"),
    ("r_band_core", (-1.5, 0.7, 1.0, 1.2, 0.9, 0.7, 1.3), {},
     "PoleError: 2F1 parameter c=-1.0 is a nonpositive integer"),
    ("r_outer_core", (0.3, -2.0, 1.0, 1.2, 2.9, 1.7, 0.7), {},
     "PoleError: 2F1 parameter c=-1.0 is a nonpositive integer"),
    ("r_outer_core", (0.3, -2.0, 1.0, 1.2, 2.9, -1.0, -2.0), {},
     "DomainError: outer kernel needs u - 1 > 0 (um1=-2.0)"),
    ("r_outer_core", (-3.3, -2.0, 1.0, 1.2, 1e150, 1e300, 1e300), {}, "0x0.0p+0"),
    # degenerate connection: mu = 3/2 gives c - a - b = mu - 1/2 = 1, which
    # only the z > 1/2 path (omt > 1) meets
    ("r_band_core", (1.5, 0.7, 1.0, 1.2, 2.1, 1.6, 0.4), {},
     "DegenerateParameterError: 2F1 connection formula degenerate: c-a-b=1.0 is (near) an integer"),
    ("r_band_core", (1.5, 0.7, 1.0, 1.2, 0.9, 0.7, 1.3), {}, "0x1.5d8f7bd5097dep-2"),
    ("hyp2f1", (0.5, 0.5, 2.0, 0.7), {},
     "DegenerateParameterError: 2F1 connection formula degenerate: c-a-b=1.0 is (near) an integer"),
    ("hyp2f1", (1, 2, 3, 0.7), {},
     "DegenerateParameterError: 2F1 connection formula degenerate: c-a-b=0 is (near) an integer"),
    # integer nu - mu: the outer value is 0 before any other work
    ("r_outer_core", (0.6, 1.6, 1.0, 1.2, 2.9, 1.7, 0.7), {}, "0x0.0p+0"),
    ("r_outer_core", (0.6, 0.6 + 1.0 + 5e-13, 1.0, 1.2, 2.9, 1.7, 0.7), {}, "0x0.0p+0"),
    ("r_outer_core", (1, 3, 1.0, 1.2, 2.9, -1.0, -2.0), {}, "0x0.0p+0"),
    # u^-(nu-mu+1) below the double range: 0 before any 2F1 work
    ("r_outer_core", (0.3, 1.2, 1.0, 1.2, 1e150, 1e300, 1e300), {}, "0x0.0p+0"),
    ("r_outer_core", (0.3, 1.2, 1.0, 1.2, 2.9, 0.0, -1.0), {},
     "DomainError: outer kernel needs u - 1 > 0 (um1=-1.0)"),
    # z = 0
    ("hyp2f1", (0.7, 1.9, 2.9, 0.0), {}, ("0x1.0000000000000p+0", "0x0.0p+0")),
    ("r_band_core", (0.6, 1.1, 1.0, 1.2, 0.2, 0.0, 2.0), {}, "0x0.0p+0"),
    ("r_outer_core", (0.6, 1.1, 1.0, 1.2, 1e200, math.inf, math.inf), {}, "0x0.0p+0"),
    # z in (-1e-12, 0) is taken as 0; below that it is out of range
    ("hyp2f1", (0.7, 1.9, 2.9, -1e-13), {}, ("0x1.0000000000000p+0", "0x1.19799812dea11p-40")),
    ("hyp2f1", (0.7, 1.9, 2.9, -1e-11), {}, "DomainError: 2F1 argument z=-1e-11 outside [0, 1)"),
    ("r_band_core", (0.6, 1.1, 1.0, 1.2, 0.2, -2e-13, 2.0), {}, "ValueError: math domain error"),
    ("r_band_core", (1.5, 1.1, 1.0, 1.2, 0.2, -2e-13, 2.0), {}, "-0x1.130f0afb50021p-40"),
    # z >= 1 needs an accurate positive complement zc
    ("hyp2f1", (0.7, 1.9, 2.9, 1.0), {}, "DomainError: 2F1 argument z=1.0 outside [0, 1)"),
    ("hyp2f1", (0.7, 1.9, 2.9, 1.0), {"zc": 1e-15}, ("0x1.3d86e97d87e52p+2", "0x1.ad09fa92b91b8p-50")),
    ("hyp2f1", (0.7, 1.9, 2.9, 1.0), {"zc": 0.0}, "DomainError: 2F1 argument z=1.0 outside [0, 1)"),
    ("r_band_core", (0.6, 1.1, 1.0, 1.2, 2.2, 2.0, 1e-13), {}, "-0x1.635bdde2fcda9p-1"),
    ("r_band_core", (0.6, 1.1, 1.0, 1.2, 2.2, 2.0, 0.0), {}, "DomainError: 2F1 argument z=1.0 outside [0, 1)"),
    ("r_outer_core", (0.6, 1.1, 1.0, 1.2, 2.2, 1.0, 1e-13), {}, "-0x1.625f21ad35384p-1"),
    # (the outer kernel refuses u - 1 = 0 before its 2F1 meets z = 1)
    ("r_outer_core", (0.6, 1.1, 1.0, 1.2, 2.2, 1.0, 0.0), {},
     "DomainError: outer kernel needs u - 1 > 0 (um1=0.0)"),
    # Gamma(mu+1/2) overflows, but only after the powers of the band value
    ("r_band_core", (200.0, 0.3, 1.0, 1.2, 0.9, 0.7, 1.3), {}, "OverflowError: math range error"),
    ("r_band_core", (200.0, 0.3, 1.0, 1.2, 0.9, -2e-13, 2.0), {}, "ValueError: math domain error"),
    # a connection gamma ratio with a denominator pole is 0
    ("hyp2f1", (1.5, 0.25, 1.5, 0.8), {}, ("0x1.7ecf2d7f7566fp+0", "0x1.029a5bea4634cp-51")),
    # non-finite parameters are refused before any other check
    ("hyp2f1", (math.nan, 0.5, 1.5, 0.0), {},
     "DomainError: 2F1 parameters must be finite (a=nan, b=0.5, c=1.5)"),
    ("hyp2f1", (math.nan, 0.5, 1.5, 0.3), {},
     "DomainError: 2F1 parameters must be finite (a=nan, b=0.5, c=1.5)"),
    ("hyp2f1", (-2.0, math.nan, 1.5, 0.3), {},
     "DomainError: 2F1 parameters must be finite (a=-2.0, b=nan, c=1.5)"),
    ("hyp2f1", (0.5, 0.25, math.inf, 0.3), {},
     "DomainError: 2F1 parameters must be finite (a=0.5, b=0.25, c=inf)"),
    ("hyp2f1", (0.5, 0.25, math.inf, 0.7), {},
     "DomainError: 2F1 parameters must be finite (a=0.5, b=0.25, c=inf)"),
    ("hyp2f1", (0.5, 0.25, math.nan, 0.0), {},
     "DomainError: 2F1 parameters must be finite (a=0.5, b=0.25, c=nan)"),
    ("r_outer_core", (math.nan, 1.1, 1.0, 1.2, 2.2, 1.5, 0.5), {},
     "DomainError: Macdonald orders must be finite (mu=nan, nu=1.1)"),
    ("r_band_core", (math.inf, 1.1, 1.0, 1.2, 2.2, 1.0, 1.0), {},
     "DomainError: Macdonald orders must be finite (mu=inf, nu=1.1)"),
]


def _outcome(case):
    name, args, kwargs, _ = case
    try:
        return _hex(getattr(_corepy, name)(*args, **kwargs))
    except Exception as exc:  # the outcome under test
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("case", _PLAN_CASES, ids=lambda c: f"{c[0]}{c[1]}{c[2] or ''}")
def test_plan_branches(case):
    _clear_tables()
    assert _outcome(case) == case[3]   # cold plans
    assert _outcome(case) == case[3]   # warm plans


def test_plans_never_change_an_outcome():
    want = [case[3] for case in _PLAN_CASES]
    rng = random.Random(17)
    _clear_tables()
    assert [_outcome(c) for c in _PLAN_CASES] == want                     # cold
    assert [_outcome(c) for c in _PLAN_CASES] == want                     # warm
    _clear_tables()
    assert [_outcome(c) for c in reversed(_PLAN_CASES)] == want[::-1]     # other build order
    got = []
    for case in _PLAN_CASES:                                              # every memo evicted
        _churn(rng, 70)                                                   # between two calls
        got.append(_outcome(case))
    assert got == want


def test_threads_on_shuffled_plan_orders():
    mismatches = []

    def worker(seed):
        rng = random.Random(seed)
        order = list(range(len(_PLAN_CASES)))
        for _ in range(6):
            rng.shuffle(order)
            mismatches.extend(i for i in order if _outcome(_PLAN_CASES[i]) != _PLAN_CASES[i][3])
            _churn(rng, 20)

    _clear_tables()
    _in_threads(worker)
    assert mismatches == []
