"""gfkernel: one-dimensional (k,a)-deformed Fourier kernels and their
product-formula measures, with quadrature-based verification tools.

Layers
------
specfn      real special functions (gamma, Bessel, 2F1, Legendre, Gegenbauer)
macdonald   triple-Bessel kernel R_{mu,nu} and its region geometry
genkernel   the deformed kernel B and the product-formula density Delta
quadrature  singular-interval, power-tail and Bessel-oscillatory engines
harness     residual checks: product formula, TV norms, Hankel and Legendre
            identities, generalized translation and its L^p probe
cli         command-line front end (``gfkernel --help``)

The scalar hot path has a compiled core with a pure-Python fallback; see
``backend_name()`` and the GFKERNEL_BACKEND environment variable.  The
backend is chosen when the package is imported, so a bad GFKERNEL_BACKEND
fails there.  Every other public name is imported from its home module on
first use (PEP 562), so ``import gfkernel`` compiles no layer that the
caller does not touch.
"""

from ._backend import backend_name

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {
    "Params": "genkernel", "m_const": "genkernel", "b_kernel": "genkernel",
    "delta_density": "genkernel",
    "MacdonaldOrders": "macdonald", "Region": "macdonald", "classify": "macdonald",
    "r_kernel": "macdonald", "r_kernel_gegenbauer": "macdonald",
    "QuadratureSpec": "quadrature", "IntegralResult": "quadrature",
    "integrate_singular_band": "quadrature", "integrate_power_tail": "quadrature",
    "integrate_bessel_oscillatory": "quadrature",
}

__all__ = ["backend_name", *_HOMES, "__version__"]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
