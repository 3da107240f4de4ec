"""Compiled core vs pure-Python core: one implementation, two builds."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gfkernel import backend_name

try:
    from gfkernel import _core as c_core
    HAS_C = True
except ImportError:
    HAS_C = False
from gfkernel import _corepy as py_core

needs_both = pytest.mark.skipif(not HAS_C, reason="compiled core not built")


@needs_both
class TestBackendAgreement:
    def rel(self, a, b):
        if a == b:
            return 0.0  # covers the shared infinities at x = 0, nu < 0
        return abs(a - b) / max(abs(a), abs(b), 1e-300)

    def test_bessel_family(self):
        for nu in (-0.4, 0.0, 0.5, 1.7, 4.5):
            for x in (0.0, 0.3, 2.0, 19.0, 26.0, 120.0):
                assert self.rel(py_core.normalized_bessel_j(nu, x),
                                c_core.normalized_bessel_j(nu, x)) <= 1e-13
                assert self.rel(py_core.bessel_j(nu, x),
                                c_core.bessel_j(nu, x)) <= 1e-13

    def test_hyp2f1(self):
        for args in [(0.9, 0.35, 1.4, 0.3), (1.375, 0.125, 0.875, 0.77),
                     (2.4, -0.8, 1.1, 0.52), (0.9, -3.0, 1.2, 0.9)]:
            assert self.rel(py_core.hyp2f1(*args)[0], c_core.hyp2f1(*args)[0]) <= 1e-13

    def test_legendre(self):
        for (mu, nu, t) in [(0.25, 1.25, -0.7), (0.0, 0.6, -0.6), (0.125, 1.375, 0.3),
                            (-1.0, 4.0, -0.9), (0.0, 3.0, 0.4)]:
            assert self.rel(py_core.legendre_p(mu, nu, t),
                            c_core.legendre_p(mu, nu, t)) <= 1e-12
        for (mu, nu, t) in [(0.0, 0.0, 2.0), (0.125, 1.375, 1.5), (-0.7, 0.1, 3.0)]:
            assert self.rel(py_core.legendre_q_phase_free(mu, nu, t),
                            c_core.legendre_q_phase_free(mu, nu, t)) <= 1e-13

    def test_kernel_branches(self):
        for (mu, nu, x, y, z) in [(0.375, 1.875, 1.0, 1.2, 2.6), (0.4, 0.9, 0.8, 1.1, 2.2)]:
            assert self.rel(py_core.r_outer(mu, nu, x, y, z),
                            c_core.r_outer(mu, nu, x, y, z)) <= 1e-13
        for (mu, nu, x, y, z) in [(0.375, 1.875, 1.0, 1.2, 1.5), (1.5, 4.5, 1.0, 1.0, 1.6)]:
            assert self.rel(py_core.r_band(mu, nu, x, y, z),
                            c_core.r_band(mu, nu, x, y, z)) <= 1e-13
        for n in range(4):
            assert self.rel(py_core.r_gegenbauer_band(0.8, n, 1.0, 1.2, 1.5),
                            c_core.r_gegenbauer_band(0.8, n, 1.0, 1.2, 1.5)) <= 1e-13

    def test_gamma_helpers(self):
        # CPython ships its own lgamma; it can differ from libm by an ulp
        for x in (0.5, 5.0, -0.5, -1.5, 12.3):
            la, sa = py_core.log_abs_gamma(x)
            lb, sb = c_core.log_abs_gamma(x)
            assert sa == sb and self.rel(la, lb) <= 1e-14
        for x in (0.3, -2.3, 7.7):
            assert self.rel(py_core.digamma(x), c_core.digamma(x)) <= 1e-14
        assert py_core.sinpi(3.0) == c_core.sinpi(3.0) == 0.0
        assert py_core.rgamma(-2.0) == c_core.rgamma(-2.0) == 0.0

    def test_exception_parity(self):
        from gfkernel.errors import DegenerateParameterError, PoleError
        for mod in (py_core, c_core):
            with pytest.raises(PoleError):
                mod.log_abs_gamma(-1.0)
            with pytest.raises(DegenerateParameterError):
                mod.hyp2f1(0.9, 0.35, 1.25, 0.7)


def _compiled_defs():
    """(name, positional parameter count) of each Python-visible def and
    cpdef in _core.pyx, read from the source, so no build is needed."""
    src = (Path(__file__).resolve().parents[1] / "src" / "gfkernel" / "_core.pyx").read_text()
    for m in re.finditer(r"^(?:cp)?def\s+(?:\w+\s+)*?(\w+)\(", src, re.M):
        depth, i = 1, m.end()
        while depth:
            depth += {"(": 1, ")": -1}.get(src[i], 0)
            i += 1
        params = src[m.end():i - 1]
        depth, count = 0, 1 if params.strip() else 0
        for ch in params:
            depth += {"(": 1, ")": -1}.get(ch, 0)
            count += ch == "," and depth == 0
        yield m.group(1), count


def test_pure_core_mirrors_every_compiled_def():
    defs = dict(_compiled_defs())
    assert len(defs) >= 20
    for name, count in defs.items():
        fn = getattr(py_core, name, None)
        assert callable(fn), f"_corepy has no {name}"
        positional = [p for p in inspect.signature(fn).parameters.values()
                      if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        assert len(positional) == count, f"{name}: {len(positional)} != {count}"


def test_backend_env_override():
    env = dict(os.environ, GFKERNEL_BACKEND="python")
    proc = subprocess.run(
        [sys.executable, "-c", "import gfkernel; print(gfkernel.backend_name())"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "python"


def test_active_backend_reported():
    assert backend_name() in ("c", "python")


@needs_both
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
