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
``backend_name()`` and the GFKERNEL_BACKEND environment variable.
"""

from ._backend import backend_name
from .genkernel import Params, b_kernel, delta_density, m_const
from .macdonald import MacdonaldOrders, Region, classify, r_kernel, r_kernel_gegenbauer
from .quadrature import (
    IntegralResult,
    QuadratureSpec,
    integrate_bessel_oscillatory,
    integrate_power_tail,
    integrate_singular_band,
)

__version__ = "0.1.0"

__all__ = [
    "backend_name",
    "Params", "m_const", "b_kernel", "delta_density",
    "MacdonaldOrders", "Region", "classify",
    "r_kernel", "r_kernel_gegenbauer",
    "QuadratureSpec", "IntegralResult",
    "integrate_singular_band", "integrate_power_tail", "integrate_bessel_oscillatory",
    "__version__",
]
