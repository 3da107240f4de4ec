"""The names that the benchmark's tracer swaps exist in the package.

``perfbench/tracer.py`` patches module attributes by name and wraps each
quadrature engine's first positional argument as the integrand, so a rename
in ``src/`` would otherwise break only the traced benchmark run.  The tracer
is loaded from its file; nothing in ``perfbench/`` is edited or imported as
a package.
"""

import importlib.util
import inspect
import math
from pathlib import Path

import pytest

from gfkernel import _corepy, genkernel, macdonald, quadrature

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# an integrand and the other positional arguments for each engine
_ENGINE_CALLS = {
    "integrate_singular_band2": (lambda x, dlo, dhi: 1.0, 0.0, 1.0),
    "integrate_singular_band": (lambda t: 1.0, 0.0, 1.0),
    "integrate_power_tail": (lambda t: t ** -2.0, 1.0, -2.0),
    "integrate_bessel_oscillatory": (lambda t: math.exp(-t), 0.0, 1.0, 0.0),
}


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("gfkernel_bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_core_groups_name_core_functions(tracer):
    for fns in tracer.CORE_GROUPS.values():
        for fn in fns:
            assert callable(getattr(_corepy, fn, None)), fn


def test_module_groups_name_layer_functions(tracer):
    mods = {"macdonald": macdonald, "genkernel": genkernel}
    for modname, fns in tracer.MODULE_GROUPS.values():
        for fn in fns:
            assert callable(getattr(mods[modname], fn, None)), f"{modname}.{fn}"


def test_engines_take_the_integrand_first(tracer):
    assert set(tracer.ENGINES) == set(_ENGINE_CALLS)
    for name in tracer.ENGINES:
        first = next(iter(inspect.signature(getattr(quadrature, name)).parameters.values()))
        assert first.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD, name
    t = tracer.Tracer()
    t.install()
    try:
        for name, args in _ENGINE_CALLS.items():
            t.run_op(0, getattr(quadrature, name), *args)
    finally:
        t.uninstall()
    names, parent, _, _ = t.arrays()
    ids = {n: i for i, n in enumerate(t.names)}
    integrand = ids[tracer.INTEGRAND]
    for group in set(tracer.ENGINES.values()):
        spans = {i for i, n in enumerate(names) if n == ids[group]}
        assert spans, group
        # the wrapped first argument was called, inside the engine's span
        assert any(names[i] == integrand and parent[i] in spans
                   for i in range(len(names))), group
