"""Real special functions underlying every formula in the package.

Thin validated wrappers over the scalar backend.  All functions are pure;
admissible ranges are stated per operation (Bessel order > -1, etc.) and
violations raise :class:`~gfkernel.errors.DomainError` subclasses, as does a
non-finite argument.  The harness calls the backend directly and validates
its own inputs, so these checks cost its integrands nothing.
"""

from __future__ import annotations

from typing import NamedTuple

from ._backend import core
from .errors import DomainError, require_finite

__all__ = [
    "EvalResult", "LogGamma",
    "log_gamma", "bessel_j", "normalized_bessel_j", "hyp2f1",
    "legendre_p", "legendre_q_phase_free", "gegenbauer",
]


class EvalResult(NamedTuple):
    """Value plus a bound on the truncation error of the series used."""

    value: float
    est_error: float


class LogGamma(NamedTuple):
    log_abs: float
    sign: int


def log_gamma(x: float) -> LogGamma:
    """log|Gamma(x)| with the sign of Gamma(x); pole error at 0, -1, -2, ..."""
    require_finite(x=x)
    ln, s = core.log_abs_gamma(x)
    return LogGamma(ln, int(s))


def bessel_j(nu: float, x: float) -> float:
    """J_nu(x) for nu > -1 and x >= 0.

    Power series (summed exactly and correctly rounded) below the
    crossover max(25, 2 nu^2), Hankel asymptotic expansion beyond it.
    """
    require_finite(nu=nu, x=x)
    if not nu > -1.0:
        raise DomainError(f"bessel_j order nu={nu!r} must exceed -1")
    if x < 0.0:
        raise DomainError(f"bessel_j argument x={x!r} must be nonnegative")
    return core.bessel_j(nu, x)


def normalized_bessel_j(nu: float, x: float) -> float:
    """Gamma(nu+1) (x/2)^(-nu) J_nu(x), regular at x = 0 where it equals 1."""
    require_finite(nu=nu, x=x)
    if not nu > -1.0:
        raise DomainError(f"normalized_bessel_j order nu={nu!r} must exceed -1")
    if x < 0.0:
        raise DomainError(f"normalized_bessel_j argument x={x!r} must be nonnegative")
    return core.normalized_bessel_j(nu, x)


def hyp2f1(a: float, b: float, c: float, z: float) -> EvalResult:
    """Gauss 2F1(a, b; c; z) on z in [0, 1) with a truncation-error bound.

    Series for z <= 1/2; the linear connection formula for z > 1/2, where
    c-a-b within 1e-8 of an integer raises DegenerateParameterError.
    """
    require_finite(a=a, b=b, c=c, z=z)
    val, err = core.hyp2f1(a, b, c, z)
    return EvalResult(val, err)


def legendre_p(mu: float, nu_deg: float, t: float) -> float:
    """Associated Legendre P^mu_nu(t) on the cut, -1 < t <= 1.

    At t = 1 the value is the limit: 1 for mu = 0, 0 for mu < 0; for mu > 0
    the prefactor diverges and a range error is raised.  At mu = 0, a
    non-integer degree and t < 0 the logarithmic connection series cancels
    as the degree grows: against mpmath over degrees -0.3 to 10.1 and t down
    to -1 + 1e-6 the error is within 1e-11 max(1, |P|) (7.5e-12 at degree
    10.1 and t = -0.05, 2e-15 up to degree 2).
    """
    require_finite(mu=mu, nu_deg=nu_deg, t=t)
    return core.legendre_p(mu, nu_deg, t)


def legendre_q_phase_free(mu: float, nu_deg: float, t: float) -> float:
    """The real value e^(-mu pi i) Q^mu_nu(t) for t > 1.

    The phase factor of the second-kind Legendre function cancels against
    its companion in the triple-Bessel outer branch, so only this real
    combination is ever needed; it decays like t^(-nu-1) as t grows.
    """
    require_finite(mu=mu, nu_deg=nu_deg, t=t)
    return core.legendre_q_phase_free(mu, nu_deg, t)


def gegenbauer(n: int, mu: float, t: float) -> float:
    """Gegenbauer polynomial C_n^mu(t), mu > -1/2 and mu != 0."""
    require_finite(n=n, mu=mu, t=t)
    if n < 0 or n != int(n):
        raise DomainError(f"gegenbauer degree n={n!r} must be a nonnegative integer")
    if not mu > -0.5 or mu == 0.0:
        raise DomainError(f"gegenbauer parameter mu={mu!r} must exceed -1/2 and be nonzero")
    return core.gegenbauer(int(n), mu, t)


def digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x)."""
    require_finite(x=x)
    return core.digamma(x)


def gamma(x: float) -> float:
    """Gamma(x) via log_gamma (signed, overflow saturates)."""
    require_finite(x=x)
    return core.gammafn(x)
