"""Per-order tables of the pure-Python series kernels.

The tables hold work that depends only on a kernel's parameters; they must
never change a value.  The bit pins below were recorded before the tables
existed; every test here calls ``_corepy`` directly, so it holds whichever
backend is selected.
"""

import math
import random
import sys
import threading

import pytest

from gfkernel import _corepy
from gfkernel.errors import (
    ConvergenceError,
    DegenerateParameterError,
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


def _clear_tables():
    _corepy._BESSEL_ROWS.store.clear()
    _corepy._GAUSS_RATIOS.store.clear()
    _corepy._GAMMA_RATIOS.clear()


def _churn(rng, n):
    """Calls with n fresh orders and triples, enough to empty every store."""
    for _ in range(n):
        _corepy.normalized_bessel_series(rng.uniform(-0.9, 8.0), rng.uniform(0.1, 20.0))
        a, b = rng.uniform(-2.5, 3.0), rng.uniform(-2.5, 3.0)
        c = rng.uniform(0.3, 4.0)
        if abs(c - a - b - round(c - a - b)) > 1e-3:
            _corepy.hyp2f1(a, b, c, rng.uniform(0.55, 0.95))
        _corepy.gauss_series(a, b, c, rng.uniform(0.0, 0.5))


def _stores():
    return ((_corepy._BESSEL_ROWS.store, _corepy._BESSEL_ROWS.cap, _corepy._BESSEL_ROWS.budget),
            (_corepy._GAUSS_RATIOS.store, _corepy._GAUSS_RATIOS.cap, _corepy._GAUSS_RATIOS.budget),
            (_corepy._GAMMA_RATIOS, _corepy._GAMMA_RATIO_CAP, None))


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
    for pin in _PINS:                                           # every store emptied
        _churn(rng, 70)                                         # between two calls
        got.append(_call(pin))
    assert got == want


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
    assert errors == [] and mismatches == []


def test_stores_stay_within_their_caps():
    rng = random.Random(11)
    _clear_tables()
    for _ in range(1000):
        _churn(rng, 1)
        for store, cap, budget in _stores():
            assert len(store) <= cap
            if budget is not None:
                assert sum(map(len, store.values())) <= budget


def test_keys_are_typed_and_signed_zeros_share_a_table():
    _clear_tables()
    assert _corepy.gauss_series(1, 2, 3, 0.25) == _corepy.gauss_series(1.0, 2.0, 3.0, 0.25)
    assert len(_corepy._GAUSS_RATIOS.store) == 2
    # +-0.0 compare equal and share a key; both give the same rows, since
    # a + n and nu + n (n >= 0) round a zero of either sign to +0.0 or n
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        _clear_tables()
        v1 = _corepy.normalized_bessel_series(first, 3.7), _corepy.gauss_series(first, 1.5, 2.5, 0.4)
        v2 = _corepy.normalized_bessel_series(second, 3.7), _corepy.gauss_series(second, 1.5, 2.5, 0.4)
        _clear_tables()
        v3 = _corepy.normalized_bessel_series(second, 3.7), _corepy.gauss_series(second, 1.5, 2.5, 0.4)
        assert _hex(v1) == _hex(v2) == _hex(v3)
    assert _corepy._BESSEL_ROWS.grown((float, 0.0), (0.0,), (), 40) == \
        _corepy._BESSEL_ROWS.grown((float, -0.0), (-0.0,), (), 40)


@pytest.mark.parametrize("name, args, exc, message", [
    ("gauss_series", (1.5, 1.0, -2.0, 0.1), ZeroDivisionError, "float division by zero"),
    ("gauss_series", (0.5, 0.5, 1.7, 0.9999), ConvergenceError,
     "2F1 series did not converge (a=0.5, b=0.5, c=1.7, z=0.9999)"),
    ("gauss_series", (10 ** 400, 1, 2, 0.3), OverflowError, "int too large to convert to float"),
    ("normalized_bessel_series", (-2.0, 1.0), ZeroDivisionError, "float division by zero"),
    ("normalized_bessel_series", (math.nan, 1.0), ConvergenceError,
     "normalized Bessel series did not converge (nu=nan, x=1.0)"),
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


def test_failing_row_is_reached_only_where_the_series_reaches_it():
    _clear_tables()
    # c = -2: the ratio of term 3 divides by zero; at z = 0 the series ends
    # at its first term, before that row
    assert _corepy.gauss_series(1.5, 1.0, -2.0, 0.0) == (1.0, 1e-16)
    with pytest.raises(ZeroDivisionError):
        _corepy.gauss_series(1.5, 1.0, -2.0, 0.1)
    assert _corepy.gauss_series(1.5, 1.0, -2.0, 0.0) == (1.0, 1e-16)
