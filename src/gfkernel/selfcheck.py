"""Acceptance criteria, runnable from the CLI (`gfkernel selftest`) and from
the test suite.  Each criterion pins its tolerance here; a criterion either
passes or the run fails, there is no warn-and-continue.
"""

from __future__ import annotations

import cmath
import math
import time
from typing import Callable, NamedTuple

from ._backend import core
from .errors import GfkError
from .genkernel import Params, b_kernel, delta_density
from .harness import (
    Axis,
    gamma_mass,
    gaussian_profile,
    hankel_identity_eq1,
    hankel_identity_eq2,
    legendre_p_integral_check,
    legendre_q_integral_check,
    lp_bound_probe,
    product_residual,
    translate,
    tv_norm,
    Profile,
)
from .macdonald import MacdonaldOrders, r_kernel, r_kernel_gegenbauer
from .quadrature import QuadratureSpec

__all__ = ["CriterionResult", "CRITERIA", "run_criterion", "run_all"]

_SPEC = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-9)
_TV_SPEC = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-7)

PRODUCT_GRID_KA = [(0.5, 2.0), (1.0, 2.0), (0.5, 1.0), (0.75, 4.0 / 3.0), (1.0, 2.0 / 3.0)]
PRODUCT_GRID_LAMBDA = [0.7, 1.9]
PRODUCT_GRID_XY = [0.4, 1.2, 2.5]

LEGENDRE_P_PAIRS = [(0.5, 0.5), (1.0, 0.5), (0.8, 1.3), (0.3, 0.9), (0.5, 1.5)]
LEGENDRE_Q_PAIRS = [(0.25, 1.25), (0.75, 1.2), (-0.2, 0.9), (1.0, 2.5), (0.3, 2.0)]

HANKEL_ORDERS = [(0.5, 0.5), (0.4, 0.9), (0.25, 1.75)]
HANKEL_POINTS = [(1.0, 1.0, 1.0), (0.8, 1.1, 1.3), (1.4, 0.6, 0.7)]

# golden regression value for criterion 5, recorded on the first run of the
# acceptance suite at (k, a) = (0.75, 4/3) on the 9x9 log grid over [0.1, 10]
TV_GOLDEN_MAX = 1.5340381033147308
TV_GOLDEN_RTOL = 1e-6


class CriterionResult(NamedTuple):
    cid: str
    description: str
    passed: bool
    detail: str
    seconds: float


def _c1_closed_form_kernel() -> tuple[bool, str]:
    p = Params(0.0, 2.0)
    worst = 0.0
    for lam in (0.5, 1.0, 2.0, 3.0, 5.0):
        for x in (0.5, 1.0, 2.0, 3.0, 5.0):
            got = b_kernel(p, lam, x)
            want = cmath.exp(-1j * lam * x)
            worst = max(worst, abs(got - want))
    return worst <= 1e-12, f"max |B - exp(-i lambda x)| = {worst:.3e} (tol 1e-12)"


def _c2_product_formula() -> tuple[bool, str]:
    worst = 0.0
    slowest = 0.0
    for k, a in PRODUCT_GRID_KA:
        p = Params(k, a)
        for lam in PRODUCT_GRID_LAMBDA:
            for x in PRODUCT_GRID_XY:
                for y in PRODUCT_GRID_XY:
                    r = product_residual(p, lam, x, y, _SPEC)
                    worst = max(worst, r.rel_residual)
                    slowest = max(slowest, r.wall_time)
    ok = worst <= 1e-5 and slowest <= 10.0
    return ok, f"max rel_residual = {worst:.3e} (tol 1e-5), slowest point {slowest:.2f}s (cap 10s)"


def _c3_mass_normalization() -> tuple[bool, str]:
    worst = 0.0
    for k, a in PRODUCT_GRID_KA:
        p = Params(k, a)
        for x in PRODUCT_GRID_XY:
            for y in PRODUCT_GRID_XY:
                mass, _ = gamma_mass(p, x, y, _SPEC)
                worst = max(worst, abs(mass - 1.0))
    return worst <= 1e-6, f"max |mass - 1| = {worst:.3e} (tol 1e-6)"


def _outer_density_magnitude(p: Params, x: float, y: float, cosh_theta: float) -> float:
    xa = math.pow(abs(x), 0.5 * p.a)
    ya = math.pow(abs(y), 0.5 * p.a)
    zz = math.sqrt(xa * xa + ya * ya + 2.0 * xa * ya * cosh_theta)
    z = math.pow(zz, 2.0 / p.a)
    return abs(delta_density(p, x, y, z)) * math.pow(z, p.w)


def _c4_support_dichotomy() -> tuple[bool, str]:
    vanish = []
    for k, a in [(0.5, 2.0), (0.5, 1.0), (1.0, 2.0 / 3.0)]:
        v = max(_outer_density_magnitude(Params(k, a), 1.0, 1.2, u) for u in (1.2, 1.5, 2.0))
        vanish.append(v)
    live = []
    for k, a in [(0.75, 4.0 / 3.0), (1.0, 3.0)]:
        v = max(_outer_density_magnitude(Params(k, a), 1.0, 1.2, u) for u in (1.2, 1.5, 2.0))
        live.append(v)
    ok = max(vanish) <= 1e-10 and min(live) >= 1e-4
    return ok, (f"compact a in {{2,1,2/3}}: max outer |density| = {max(vanish):.2e} (tol 1e-10); "
                f"a in {{4/3,3}}: min sampled outer |density| = {min(live):.2e} (floor 1e-4)")


def _tv_grid_max(p: Params, count: int) -> float:
    pts = Axis("x", 0.1, 10.0, count, "log").values()
    best = 0.0
    for x in pts:
        for y in pts:
            best = max(best, tv_norm(p, x, y, _TV_SPEC))
    return best


def _c5_tv_bounded() -> tuple[bool, str]:
    p = Params(0.75, 4.0 / 3.0)
    coarse = _tv_grid_max(p, 9)
    fine = _tv_grid_max(p, 17)
    if not (math.isfinite(coarse) and math.isfinite(fine)):
        return False, "TV norm not finite on the grid"
    drift = abs(fine - coarse) / coarse
    golden_ok = abs(coarse - TV_GOLDEN_MAX) <= TV_GOLDEN_RTOL * TV_GOLDEN_MAX
    ok = drift < 0.05 and golden_ok
    return ok, (f"max TV 9x9 = {coarse:.12f}, 17x17 = {fine:.12f}, drift {100 * drift:.2f}% "
                f"(cap 5%), golden {TV_GOLDEN_MAX:.12f} matched: {golden_ok}")


def _c6_hankel_identities() -> tuple[bool, str]:
    worst = 0.0
    for mu, nu in HANKEL_ORDERS:
        for x, y, t in HANKEL_POINTS:
            r1 = hankel_identity_eq1(mu, nu, x, y, t, _SPEC)
            r2 = hankel_identity_eq2(mu, nu, x, y, t, _SPEC)
            worst = max(worst, r1.rel_residual, r2.rel_residual)
    return worst <= 1e-5, f"max rel_residual over both identities = {worst:.3e} (tol 1e-5)"


def _c7_legendre_identities() -> tuple[bool, str]:
    worst = 0.0
    p00 = legendre_p_integral_check(0.5, 0.5, _SPEC)
    p00_ok = abs(p00.lhs - 2.0) <= 1e-6 and abs(p00.rhs - 2.0) <= 1e-12
    for mu, nu in LEGENDRE_P_PAIRS:
        worst = max(worst, legendre_p_integral_check(mu, nu, _SPEC).rel_residual)
    for mu, nu in LEGENDRE_Q_PAIRS:
        worst = max(worst, legendre_q_integral_check(mu, nu, _SPEC).rel_residual)
    ok = worst <= 1e-6 and p00_ok
    return ok, (f"max rel_residual = {worst:.3e} (tol 1e-6); "
                f"both sides equal 2 at the constant-integrand pair: {p00_ok}")


def _c8_macdonald_special() -> tuple[bool, str]:
    orders = MacdonaldOrders(0.5, 0.5)
    worst_band = 0.0
    vals = (0.5, 0.8, 1.2, 1.9, 2.6)
    fracs = (0.15, 0.35, 0.5, 0.7, 0.9)
    for x in vals:
        for y in vals:
            lo, hi = abs(x - y), x + y
            for fz in fracs:
                z = lo + fz * (hi - lo)
                got = r_kernel(orders, x, y, z)
                want = 1.0 / math.sqrt(2.0 * math.pi * x * y * z)
                worst_band = max(worst_band, abs(got - want) / want)
    worst_geg = 0.0
    mu = 0.8
    for n in range(4):
        for x, y, z in [(1.0, 1.2, 1.5), (0.7, 0.9, 1.1), (2.0, 0.6, 1.8)]:
            got = r_kernel_gegenbauer(mu, n, x, y, z)
            want = r_kernel(MacdonaldOrders(mu, mu + n), x, y, z)
            scale = max(abs(want), 1e-3)
            worst_geg = max(worst_geg, abs(got - want) / scale)
    ok = worst_band <= 1e-10 and worst_geg <= 1e-10
    return ok, (f"closed-form band max rel err = {worst_band:.3e} over 125 triples; "
                f"gegenbauer-vs-general max err = {worst_geg:.3e} (tol 1e-10)")


def _c9_translation() -> tuple[bool, str]:
    p = Params(0.5, 2.0)
    f = gaussian_profile(1.0)
    worst_id = max(abs(translate(p, 0.0, f, z) - f(z)) for z in (-2.0, -0.7, 0.3, 1.1, 2.5))
    fone = Profile(lambda xi: 1.0, 60.0, "one")
    worst_one = 0.0
    for y, z in [(0.8, 0.5), (1.5, 2.2), (0.3, 3.0)]:
        worst_one = max(worst_one, abs(translate(p, y, fone, z) - 1.0))
    p2 = Params(0.75, 4.0 / 3.0)
    fone2 = Profile(lambda xi: 1.0, 400.0, "one")
    worst_one = max(worst_one, abs(translate(p2, 0.9, fone2, 1.4) - 1.0))
    probe_spec = QuadratureSpec(abs_tol=1e-8, rel_tol=1e-7)
    stable = True
    ratios = {}
    for pexp in (1.0, 2.0, math.inf):
        coarse = lp_bound_probe(p, pexp, f, Axis("y", 0.0, 5.0, 4), probe_spec, z_count=32)
        fine = lp_bound_probe(p, pexp, f, Axis("y", 0.0, 5.0, 7), probe_spec, z_count=64)
        ratios[pexp] = (coarse, fine)
        if not (math.isfinite(fine) and abs(fine - coarse) <= 0.05 * abs(fine)):
            stable = False
    ok = worst_id <= 1e-8 and worst_one <= 1e-5 and stable
    rtxt = ", ".join(f"p={k}: {v[0]:.4f}->{v[1]:.4f}" for k, v in ratios.items())
    return ok, (f"identity err {worst_id:.2e} (tol 1e-8); unit-function err {worst_one:.2e} "
                f"(tol 1e-5); L^p ratios stable within 5%: {stable} [{rtxt}]")


def _c10_specfn_crosschecks() -> tuple[bool, str]:
    checks: list[tuple[str, float, float]] = []  # (label, got-want, tol)
    ln, sg = core.log_abs_gamma(0.5)
    checks.append(("lgamma(1/2)", abs(ln - 0.5 * math.log(math.pi)), 1e-14))
    checks.append(("lgamma(5)", abs(core.log_abs_gamma(5.0)[0] - math.log(24.0)), 1e-14))
    checks.append(("J_{1/2}(pi/2)", abs(core.bessel_j(0.5, 0.5 * math.pi) - 2.0 / math.pi), 1e-14))
    checks.append(("nJ_{1/2}(2)", abs(core.normalized_bessel_j(0.5, 2.0) - 0.5 * math.sin(2.0)), 1e-14))
    nb = core.normalized_bessel_j(0.3, 1.0)
    recon = math.gamma(1.3) * math.pow(0.5, -0.3) * core.bessel_j(0.3, 1.0)
    checks.append(("two-path nJ(0.3, 1)", abs(nb - recon) / abs(nb), 1e-12))
    v, _ = core.hyp2f1(1.0, 1.0, 2.0, 0.5)
    checks.append(("2F1(1,1;2;1/2)", abs(v - 2.0 * math.log(2.0)), 1e-14))
    checks.append(("P_1(0.4)", abs(core.legendre_p(0.0, 1.0, 0.4) - 0.4), 1e-14))
    checks.append(("Q_0(2)", abs(core.legendre_q_phase_free(0.0, 0.0, 2.0) - 0.5 * math.log(3.0)), 1e-14))
    q6 = core.legendre_q_phase_free(0.0, 0.0, 1e6)
    checks.append(("Q_0(1e6)", abs(q6 - math.atanh(1e-6)) / q6, 1e-9))
    checks.append(("C_1^0.7(0.5)", abs(core.gegenbauer(1, 0.7, 0.5) - 0.7), 1e-14))
    checks.append(("C_2^1(0.5)", abs(core.gegenbauer(2, 1.0, 0.5)), 1e-14))
    # path consistency sweep: series vs prefactor-reconstructed J across the cut
    worst_path = 0.0
    for nuv in (-0.4, 0.0, 0.5, 1.7):
        for xv in (0.1, 0.7, 3.0, 11.0, 20.0):
            nbv = core.normalized_bessel_j(nuv, xv)
            rec = math.exp(math.lgamma(nuv + 1.0) - nuv * math.log(0.5 * xv)) * core.bessel_j(nuv, xv)
            worst_path = max(worst_path, abs(nbv - rec) / abs(nbv))
    checks.append(("bessel path consistency", worst_path, 1e-12))
    # series vs connection-formula agreement across z = 1/2
    worst_2f1 = 0.0
    for aa, bb, cc in [(0.9, 0.35, 1.4), (1.375, 0.125, 0.875), (2.4, -0.8, 1.1)]:
        for zz in (0.45, 0.5, 0.52, 0.55):
            direct, _ = core.gauss_series(aa, bb, cc, zz)
            routed, _ = core.hyp2f1(aa, bb, cc, zz)
            worst_2f1 = max(worst_2f1, abs(direct - routed) / abs(routed))
    checks.append(("2F1 path agreement", worst_2f1, 1e-10))
    bad = [(lbl, err, tol) for lbl, err, tol in checks if not err <= tol]
    if bad:
        return False, "failed: " + "; ".join(f"{l} err={e:.2e} tol={t:g}" for l, e, t in bad)
    worst = max(err / tol for _, err, tol in checks)
    return True, f"all {len(checks)} cross-checks passed (worst err/tol = {worst:.2e})"


CRITERIA: dict[str, tuple[str, Callable[[], tuple[bool, str]]]] = {
    "c01": ("closed-form kernel at (k=0, a=2) equals exp(-i lambda x) to 1e-12", _c1_closed_form_kernel),
    "c02": ("product formula rel_residual <= 1e-5 on the 90-point grid", _c2_product_formula),
    "c03": ("product-measure mass equals 1 to 1e-6 on the grid", _c3_mass_normalization),
    "c04": ("compact-support dichotomy across a in {2, 1, 2/3} vs {4/3, 3}", _c4_support_dichotomy),
    "c05": ("TV norm uniformly bounded, grid-refinement stable, golden value", _c5_tv_bounded),
    "c06": ("Hankel-transform identities (both forms) to 1e-5", _c6_hankel_identities),
    "c07": ("Legendre integral identities to 1e-6 (second kind up to sign)", _c7_legendre_identities),
    "c08": ("triple-Bessel special cases: closed-form band and Gegenbauer path", _c8_macdonald_special),
    "c09": ("translation operator: identity, unit mass, L^p stability", _c9_translation),
    "c10": ("special-function closed forms and path-consistency invariants", _c10_specfn_crosschecks),
}


def run_criterion(cid: str) -> CriterionResult:
    desc, fn = CRITERIA[cid]
    t0 = time.perf_counter()
    try:
        passed, detail = fn()
    except GfkError as exc:
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CriterionResult(cid, desc, passed, detail, time.perf_counter() - t0)


def run_all() -> list[CriterionResult]:
    results = []
    for cid in sorted(CRITERIA):
        res = run_criterion(cid)
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {cid} {res.description} ({res.seconds:.1f}s): {res.detail}")
    return results
