"""Independent high-precision oracle: mpmath at 40 digits, 60 for Bessel.

Triple geometry: a seeded sweep of 300 triples, a fifth of them with c
within 1e-10 relative of |a-b| and a fifth within it of a+b, checks to
1e-15 relative the complements 1 -+ cos(theta) of the angles between a and
c and between b and c, which ``band_terms`` forms from those of the angle
between a and b, and cosh(theta) - 1 off the band from the gap, each input
computed in mpmath and rounded to double as the callers supply it.

Bessel: a seeded sweep of the normalized Bessel function
Gamma(nu+1) (x/2)^(-nu) J_nu(x) against ``mpmath.besselj`` at 60 digits, over
nu in (-1, 12] and x log-uniform on [1e-3, 1e3], on both cores.  Each region
has its own tolerance:

* the power series, x <= bessel_crossover(nu) = max(25, 2 nu^2): the value
  is mpmath's rounded once to double, exactly;
* the Hankel expansion beyond it: |err| <= (2e-16 x + 5e-15) times the
  envelope Gamma(nu+1) (x/2)^(-nu) sqrt(2 / (pi x)), the phase
  x - (nu/2 + 1/4) pi being known to an ulp of x.

Band kernel at integer offsets: ``r_band_core`` on both cores for
nu - mu = n in {0, 1, 2, 3}, where its 2F1 is summed as the terminating
Euler polynomial, against ``mpmath.hyp2f1`` of the defining form, at seeded
angles with distances to t = +-1 down to 1e-14.  The error is measured
relative to max(|R|, P), P the value with the polynomial replaced by 1, so
that a zero of R inside the band asks for no more than the rounding of its
terms.  The tolerance is 1e-13.

Legendre P at mu = 0, a non-integer degree and t < 0, where ``legendre_p``
sums the logarithmic connection series: degrees -0.3 to 10.1 and t down to
-1 + 1e-6, within 1e-11 of max(1, |P|), the accuracy ``specfn.legendre_p``
states.  The series cancels as the degree grows (7.5e-12 at nu = 10.1,
t = -0.05; 1.9e-11 relative at t = -0.1).

Digamma at x < 0, by reflection: a seeded sweep of (-12, 0) and points
1e-12..1e-1 from each integer, within 4 eps max(1, |x|) / d of max(1, |psi|),
d the distance to the nearest integer.

"""

import math
import random
from types import SimpleNamespace

import pytest

from gfkernel import _corepy, harness

mpmath = pytest.importorskip("mpmath")

_POINTS = 2000


def _reference(nu, x):
    """(value, envelope) of the normalized Bessel function in 60 digits."""
    with mpmath.workdps(60):
        nu_m, x_m = mpmath.mpf(nu), mpmath.mpf(x)
        pre = mpmath.gamma(nu_m + 1) * (x_m / 2) ** (-nu_m)
        return pre * mpmath.besselj(nu_m, x_m), pre * mpmath.sqrt(2 / (mpmath.pi * x_m))


def _sweep():
    rng = random.Random(20231)
    lo, hi = math.log(1e-3), math.log(1e3)
    return [(12.0 - rng.random() * 13.0, math.exp(rng.uniform(lo, hi)))  # nu in (-1, 12]
            for _ in range(_POINTS)]


def test_normalized_bessel_j_against_mpmath(c_core):
    counts = {"series": 0, "hankel": 0}
    bad = []
    for nu, x in _sweep():
        ref, envelope = _reference(nu, x)
        region = "series" if x <= _corepy.bessel_crossover(nu) else "hankel"
        counts[region] += 1
        for core in (_corepy, c_core):
            got = core.normalized_bessel_j(nu, x)
            if region == "series":
                ok = got == float(ref)
            else:
                ok = abs(got - ref) <= (2e-16 * x + 5e-15) * envelope
            if not ok:
                bad.append((core.__name__, nu, x, got, float(ref)))
    assert min(counts.values()) > _POINTS // 8, counts
    assert not bad, f"{len(bad)} points outside tolerance, e.g. {bad[:3]}"


_TRIPLES = 300
_GEOM_RTOL = 1e-15


def _triples():
    """(a, b, c) with c on the band (|a-b|, a+b) or above it, near its
    edges for two kinds in five."""
    rng = random.Random(20233)
    out = []
    for i in range(_TRIPLES):
        a, b = (math.exp(rng.uniform(-3.0, 3.0)) for _ in range(2))
        near = 1e-10 * rng.random() + 1e-14
        kind = i % 5
        if kind == 0:
            c = abs(a - b) + (a + b - abs(a - b)) * rng.uniform(0.01, 0.99)
        elif kind == 1:
            c = abs(a - b) * (1.0 + near) if a != b else near * a
        elif kind == 2:
            c = (a + b) * (1.0 - near)
        elif kind == 3:
            c = (a + b) * rng.uniform(1.01, 30.0)
        else:
            c = (a + b) * (1.0 + near)
        out.append((a, b, c))
    return out


def _rel(got, ref):
    return abs(got - ref) / abs(ref)


def _complements_of(a, b, c):
    """(1 - cos(theta), 1 + cos(theta)) of the angle between mpmath sides a
    and b of the triple (a, b, c)."""
    return (c * c - (a - b) ** 2) / (2 * a * b), ((a + b) ** 2 - c * c) / (2 * a * b)


def test_triple_complements_against_mpmath(monkeypatch):
    # the recorders return the complements that band_terms hands to
    # r_band_core and the (u, u - 1) that _r_outer hands to the core
    monkeypatch.setattr(_corepy, "r_band_core", lambda *args: args[5:])
    monkeypatch.setattr(harness, "core", SimpleNamespace(r_outer_core=lambda *args: args[5:]))
    permuted = _corepy.BAND_XZ | _corepy.BAND_YZ
    bad = []
    with mpmath.workdps(40):
        for a, b, c in _triples():
            am, bm, cm = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)
            if c < a + b:
                omt, opt = (float(v) for v in _complements_of(am, bm, cm))
                _, _, c_ac, c_bc = _corepy.band_terms(0.3, 0.8, a, b, c, omt, opt, permuted)
                refs = _complements_of(am, cm, bm) + _complements_of(bm, cm, am)
                err = max(_rel(got, ref) for got, ref in zip(c_ac + c_bc, refs))
            else:
                u, um1 = harness._r_outer(0.3, 0.8, a, b, c, float(cm - am - bm),
                                          float(am + bm + cm))
                ref_um1 = (cm * cm - (am + bm) ** 2) / (2 * am * bm)
                err = max(_rel(um1, ref_um1), _rel(u, ref_um1 + 1))
            if err > _GEOM_RTOL:
                bad.append((a, b, c, float(err)))
    assert not bad, f"{len(bad)} of {_TRIPLES} triples outside tolerance, e.g. {bad[:3]}"


# (mu, nu) with nu - mu = 0, 1, 2, 3: the R_{mu,mu} term, the a = 2 and a = 1
# compact-support pairs, the a = 2/3 pair of the c02 grid, and mu near -1/2
_INTEGER_OFFSETS = [(0.0, 0.0), (0.375, 0.375), (0.0, 1.0), (0.0, 2.0), (1.5, 4.5),
                    (-0.45, 2.55)]
_BAND_POINTS = 90
_BAND_RTOL = 1e-13


def _band_points():
    """(xa, ya, za, omt, opt): a third each within 1e-14..1 of t = 1 and of
    t = -1 (log-uniform), a third with t uniform on (-1, 1)."""
    rng = random.Random(20260)
    out = []
    for i in range(_BAND_POINTS):
        xa, ya = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        d = math.exp(rng.uniform(math.log(1e-14), 0.0))
        kind = i % 3
        if kind == 0:
            omt, opt = d, 2.0 - d
        elif kind == 1:
            omt, opt = 2.0 - d, d
        else:
            t = rng.uniform(-1.0, 1.0)
            omt, opt = 1.0 - t, 1.0 + t
        out.append((xa, ya, math.sqrt((xa - ya) ** 2 + 2.0 * xa * ya * omt), omt, opt))
    return out


def _band_reference(mu, nu, xa, ya, za, omt, opt):
    """(R, P) in 40 digits, with 2F1 at z from the smaller complement."""
    with mpmath.workdps(40):
        m, n, h = mpmath.mpf(mu), mpmath.mpf(nu), mpmath.mpf(0.5)
        z = mpmath.mpf(omt) / 2 if omt <= opt else 1 - mpmath.mpf(opt) / 2
        pre = ((mpmath.mpf(xa) * ya) ** (m - 1) * mpmath.mpf(omt) ** (m - h)
               / (mpmath.sqrt(2 * mpmath.pi) * mpmath.mpf(za) ** m * mpmath.gamma(m + h)))
        r = pre * mpmath.hyp2f1(n + h, h - n, m + h, z)
        return r, max(abs(r), abs(pre * (1 - z) ** (m - h)))


@pytest.mark.parametrize("mu, nu", _INTEGER_OFFSETS)
def test_band_kernel_at_integer_offsets_against_mpmath(core, mu, nu):
    bad = []
    for args in _band_points():
        ref, scale = _band_reference(mu, nu, *args)
        err = float(abs(core.r_band_core(mu, nu, *args) - ref) / scale)
        if err > _BAND_RTOL:
            bad.append((args, err))
    assert not bad, f"{len(bad)} of {_BAND_POINTS} points outside tolerance, e.g. {bad[:3]}"


# the degrees -0.3, -0.1, ..., 10.1 (none an integer), and t down to
# -1 + 1e-6, with the two points where the log series cancels most named
_LOG_DEGREES = [round(-0.3 + 0.2 * i, 10) for i in range(53)]
_LOG_TS = [-1e-3, -0.05, -0.1, -0.2, -0.3, -0.5, -0.7, -0.9, -0.99, -0.9999, -1.0 + 1e-6]
_LOG_TOL = 1e-11  # specfn.legendre_p's stated accuracy, relative to max(1, |P|)


def test_legendre_log_series_against_mpmath():
    assert 10.1 in _LOG_DEGREES and {-0.1, -0.5} <= set(_LOG_TS)
    bad = []
    with mpmath.workdps(40):
        for nu in _LOG_DEGREES:
            for t in _LOG_TS:
                ref = mpmath.legenp(nu, 0, t)
                err = float(abs(_corepy.legendre_p(0.0, nu, t) - ref) / max(1, abs(ref)))
                if err > _LOG_TOL:
                    bad.append((nu, t, err))
    assert not bad, f"{len(bad)} points outside tolerance, e.g. {bad[:3]}"


def test_digamma_reflection_against_mpmath():
    # psi(x) = psi(1 - x) - pi cot(pi x) for x < 0, with tan taken at the
    # exact pi (x - round(x)): the error stays at a few eps of max(1, |psi|)
    # however near the pole (5.1 eps measured; it grew like eps |x| / d, d
    # the distance to the pole, while tan took the rounded pi x)
    rng = random.Random(20261)
    xs = [-rng.uniform(0.0, 12.0) for _ in range(1000)]
    xs += [-k + s * 10.0 ** -e for k in range(12) for s in (1, -1) for e in (1, 4, 9, 12)]
    xs += [-20.000001, -8.9969]
    tol = 2.0 ** -49
    bad = []
    with mpmath.workdps(40):
        for x in xs:
            if x >= 0.0:
                continue
            ref = mpmath.digamma(x)
            err = float(abs(_corepy.digamma(x) - ref) / max(1, abs(ref)))
            if err > tol:
                bad.append((x, err))
    assert not bad, f"{len(bad)} points outside tolerance, e.g. {bad[:3]}"
