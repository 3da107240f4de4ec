"""Seeded inputs, operations and correctness checks of the three workloads.

Nothing here imports gfkernel at module level: the set-up probe times the
package import itself, so the import happens inside :func:`load` or in the
``gfkernel.cli`` child processes.

An *op* is one call of a public ``gfkernel.harness`` check (``product``,
``tv_translate``) or one ``python -m gfkernel.cli`` process (``cli``).  A
*pass* is the seed's whole op list; runs are made of whole passes, so the
mix of every run, and the share of known defects in it, is fixed by the seed.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from types import SimpleNamespace

WORKLOADS = ("product", "tv_translate", "cli")

# A failed op is charged this much on top of its own time when latencies
# are ranked, so it ranks above every completed op: fixing a failure can
# never read as a latency regression.  In-process ops past OP_DEADLINE_S are
# interrupted and fail; no healthy op of these workloads takes a third of it.
OP_DEADLINE_S = 1.0
CLI_DEADLINE_S = 30.0

FAIL_TYPES = ("DomainError", "ConvergenceError", "ValueError", "Deadline", "CheckFailed", "Other")

# copies of the acceptance grids of criteria c02/c03 (gfkernel.selfcheck), so
# that the inputs stay fixed when the program changes
GRID_KA = [(0.5, 2.0), (1.0, 2.0), (0.5, 1.0), (0.75, 4.0 / 3.0), (1.0, 2.0 / 3.0)]
GRID_LAMBDA = [0.7, 1.9]
GRID_XY = [0.4, 1.2, 2.5]

PRODUCT_DRAWS = 50
COMPACT_A = (2.0, 1.0, 2.0 / 3.0)
MU_RANGE = (-0.5, 2.0)
A_RANGE = (0.6, 3.0)
LXY_RANGE = (0.3, 3.0)

TV_GOLDEN_KA = (0.75, 4.0 / 3.0)
# the maximum of the golden 9x9 TV grid, pinned here (not read from
# gfkernel.selfcheck) so that a change to the program's constant shows
TV_GOLDEN_MAX = 1.5340381033147308
TV_GOLDEN_RTOL = 1e-6
TV_SIGNBREAK_KA = (0.5, 1.0)
TRANSLATE_KA = [(0.5, 2.0), (0.75, 4.0 / 3.0)]      # compact, tail-bearing
UNIT_SUPPORT = {(0.5, 2.0): 60.0, (0.75, 4.0 / 3.0): 400.0}   # as criterion c09
TRANSLATE_PROFILES = ("gaussian", "bump", "unit")
TRANSLATE_AXIS = 10
TRANSLATE_RANGE = (0.2, 3.0)

PRODUCT_RTOL = 1e-5
MASS_TOL = 1e-6
UNIT_TOL = 1e-5
SYMMETRY_TOL = 1e-8


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple

    def describe(self) -> str:
        return f"{self.kind}{self.args}"


class OpDeadline(BaseException):
    """Raised by the SIGALRM handler when an in-process op runs past its
    deadline.  A BaseException, so no ``except Exception`` in the library
    can swallow it."""


class CheckFailed(Exception):
    """An op returned a value that fails its correctness check."""


def fail_type(exc: BaseException) -> str:
    if isinstance(exc, OpDeadline):
        return "Deadline"
    if isinstance(exc, CheckFailed):
        return "CheckFailed"
    for cls in type(exc).__mro__:
        if cls.__name__ in ("DomainError", "ConvergenceError"):
            return cls.__name__
    if type(exc) is ValueError:
        return "ValueError"
    return "Other"


# ---------------------------------------------------------------------------
# seeded input generation
# ---------------------------------------------------------------------------


def _strata(rng: random.Random, n: int) -> list[float]:
    """n stratified uniforms on (0, 1), one per stratum, in random order."""
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    return u


def _log_scale(u: float, lo: float, hi: float) -> float:
    return lo * math.exp(u * math.log(hi / lo))


def product_ops(seed: int) -> list[Op]:
    """The c02/c03 grid plus PRODUCT_DRAWS stratified draws of the domain.

    Draws cover w > -1 and mu > -1/2 without a carve-out near mu = -1/2: mu
    sits at the midpoints of PRODUCT_DRAWS equal strata of MU_RANGE, so every
    seed holds the same number of draws next to mu = -1/2 (one, at -0.475,
    where product_residual does not converge).  The seed pairs mu with a,
    lambda, x and y; 40% of the draws use a compact-support a.
    """
    ops = []
    for k, a in GRID_KA:
        for lam in GRID_LAMBDA:
            for x in GRID_XY:
                for y in GRID_XY:
                    ops.append(Op("product_residual", (k, a, lam, x, y)))
        for x in GRID_XY:
            for y in GRID_XY:
                ops.append(Op("gamma_mass", (k, a, x, y)))
    rng = random.Random(seed)
    n = PRODUCT_DRAWS
    n_compact = round(0.4 * n)
    kinds = [COMPACT_A[i % 3] for i in range(n_compact)] + [None] * (n - n_compact)
    rng.shuffle(kinds)
    ua, ul, ux, uy = (_strata(rng, n) for _ in range(4))
    for i in range(n):
        mu = MU_RANGE[0] + (MU_RANGE[1] - MU_RANGE[0]) * (i + 0.5) / n
        a = kinds[i] if kinds[i] is not None else _log_scale(ua[i], *A_RANGE)
        k = 0.5 * (mu * a + 1.0)
        while not (k >= 0.0 and 2.0 * k + a - 2.0 > -1.0 and (2.0 * k - 1.0) / a > -0.5):
            a = _log_scale(rng.random(), *A_RANGE)     # rejection: k < 0
            k = 0.5 * (mu * a + 1.0)
        lam, x, y = (_log_scale(u[i], *LXY_RANGE) for u in (ul, ux, uy))
        ops.append(Op("product_residual", (k, a, lam, x, y)))
    return ops


def _log_grid(lo: float, hi: float, n: int) -> list[float]:
    r = math.log(hi / lo)
    return [lo * math.exp(r * i / (n - 1)) for i in range(n)]


def translate_axis(seed: int) -> list[float]:
    """TRANSLATE_AXIS points with stratified log-uniform magnitudes and
    alternating signs; y and z both run over it, so |y| = |z| exactly on the
    diagonal of every table."""
    rng = random.Random(seed + 7919)
    mags = sorted(_log_scale(u, *TRANSLATE_RANGE) for u in _strata(rng, TRANSLATE_AXIS))
    s0 = rng.choice((1.0, -1.0))
    return [m * (s0 if i % 2 == 0 else -s0) for i, m in enumerate(mags)]


def tv_translate_ops(seed: int) -> list[Op]:
    """Two 9x9 TV grids (golden point, sign-break point) and six translate
    tables tau_y f(z) over one shared axis."""
    grid = _log_grid(0.1, 10.0, 9)
    ops = []
    for k, a in (TV_GOLDEN_KA, TV_SIGNBREAK_KA):
        ops += [Op("tv_norm_report", (k, a, x, y)) for x in grid for y in grid]
    axis = translate_axis(seed)
    for k, a in TRANSLATE_KA:
        for prof in TRANSLATE_PROFILES:
            ops += [Op("translate", (k, a, prof, y, z)) for y in axis for z in axis]
    return ops


def _fmt(v: float) -> str:
    return format(v, ".6g")


def cli_ops(seed: int) -> list[Op]:
    """Thirteen CLI calls covering every command except selftest.

    One translate call sits at z = -y, where the CLI prints a traceback; the
    other commands use seeded values or seeded picks from the acceptance
    grids, which all converge.
    """
    rng = random.Random(seed + 104729)
    ops = []

    def ka():
        while True:
            k, a = rng.uniform(0.2, 1.5), rng.uniform(0.7, 2.5)
            if (2.0 * k - 1.0) / a > -0.4:
                return k, a

    for _ in range(2):
        k, a = ka()
        ops.append(Op("cli", ("eval-kernel", "--k", _fmt(k), "--a", _fmt(a),
                              "--lambda", _fmt(rng.uniform(0.3, 3.0)),
                              "--x", _fmt(rng.uniform(0.3, 3.0)))))
    for _ in range(2):
        k, a = ka()
        x, y = rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)
        z = rng.uniform(abs(x - y) + 0.05, x + y - 0.05) if rng.random() < 0.7 else x + y + rng.uniform(0.1, 1.0)
        ops.append(Op("cli", ("eval-density", "--k", _fmt(k), "--a", _fmt(a),
                              "--x", _fmt(x), "--y", _fmt(y), "--z", _fmt(z))))
    for _ in range(2):
        k, a = rng.choice(GRID_KA)
        ops.append(Op("cli", ("verify-product", "--k", _fmt(k), "--a", _fmt(a),
                              "--lambda", _fmt(rng.choice(GRID_LAMBDA)),
                              "--x", _fmt(rng.choice(GRID_XY)), "--y", _fmt(rng.choice(GRID_XY)))))
    k, a = rng.choice(TRANSLATE_KA)
    y = rng.uniform(0.3, 2.0)
    z = -y * rng.uniform(0.3, 0.8)
    prof = rng.choice(("gaussian", "bump"))
    ops.append(Op("cli", ("translate", "--k", _fmt(k), "--a", _fmt(a), "--y", _fmt(y),
                          "--z", _fmt(z), "--profile", prof)))
    ops.append(Op("cli", ("translate", "--k", _fmt(k), "--a", _fmt(a), "--y", _fmt(y),
                          "--z", _fmt(-y), "--profile", prof)))
    # copies of the c06/c07 acceptance pairs in gfkernel.selfcheck
    hankel_orders = [(0.5, 0.5), (0.4, 0.9), (0.25, 1.75)]
    hankel_points = [(1.0, 1.0, 1.0), (0.8, 1.1, 1.3), (1.4, 0.6, 0.7)]
    for eq in ("1", "2"):
        (mu, nu), (x, y, t) = rng.choice(hankel_orders), rng.choice(hankel_points)
        ops.append(Op("cli", ("hankel-check", "--eq", eq, "--mu", _fmt(mu), "--nu", _fmt(nu),
                              "--x", _fmt(x), "--y", _fmt(y), "--t", _fmt(t))))
    p_pairs = [(0.5, 0.5), (1.0, 0.5), (0.8, 1.3), (0.3, 0.9), (0.5, 1.5)]
    q_pairs = [(0.25, 1.25), (0.75, 1.2), (-0.2, 0.9), (1.0, 2.5), (0.3, 2.0)]
    for ident, pairs in (("P", p_pairs), ("Q", q_pairs)):
        mu, nu = rng.choice(pairs)
        ops.append(Op("cli", ("legendre-check", "--identity", ident,
                              "--mu", _fmt(mu), "--nu", _fmt(nu))))
    lo = _log_scale(rng.random(), 0.3, 0.45)     # the sweep's cost grows with lo
    ops.append(Op("cli", ("tv-sweep", "--k", "0.75", "--a", "1.3333333333333333",
                          "--x-min", _fmt(lo), "--x-max", _fmt(lo * 8.0), "--x-count", "3",
                          "--y-min", _fmt(lo), "--y-max", _fmt(lo * 8.0), "--y-count", "3",
                          "--jobs", "2")))
    rng.shuffle(ops)
    return ops


BUILDERS = {"product": product_ops, "tv_translate": tv_translate_ops, "cli": cli_ops}


def warmup_ops(ops: list[Op]) -> list[Op]:
    """The first op of each kind (first command of each name for cli),
    passing over translate at |y| = |z|, which raises before any work."""
    seen, out = set(), []
    for op in ops:
        key = op.args[0] if op.kind == "cli" else op.kind
        if op.kind == "translate" and abs(op.args[3]) == abs(op.args[4]):
            continue
        if key not in seen:
            seen.add(key)
            out.append(op)
    return out


# ---------------------------------------------------------------------------
# in-process execution
# ---------------------------------------------------------------------------


def load(src: str | None) -> SimpleNamespace:
    """Import gfkernel (from ``src`` if given) and collect what the ops call."""
    if src and src not in sys.path:
        sys.path.insert(0, src)
    import gfkernel
    from gfkernel import cli, genkernel, harness, quadrature, selfcheck

    return SimpleNamespace(
        gfkernel=gfkernel, cli=cli, genkernel=genkernel, harness=harness, selfcheck=selfcheck,
        spec=quadrature.QuadratureSpec(),
        tv_spec=quadrature.QuadratureSpec(abs_tol=1e-9, rel_tol=1e-7),   # as criterion c05
        profiles={})


def _profile(gf, name: str, k: float, a: float):
    key = (name, k, a)
    if key not in gf.profiles:
        h = gf.harness
        if name == "gaussian":
            gf.profiles[key] = h.gaussian_profile(1.0)
        elif name == "bump":
            gf.profiles[key] = h.bump_profile(1.5)
        else:
            gf.profiles[key] = h.Profile(lambda xi: 1.0, UNIT_SUPPORT[(k, a)], "one")
    return gf.profiles[key]


def execute(gf, op: Op):
    """Run one in-process op and apply its own check; returns its value."""
    h = gf.harness
    if op.kind == "product_residual":
        k, a, lam, x, y = op.args
        rep = h.product_residual(gf.genkernel.Params(k, a), lam, x, y, gf.spec)
        if not rep.rel_residual <= PRODUCT_RTOL:
            raise CheckFailed(f"rel_residual {rep.rel_residual:.3e} > {PRODUCT_RTOL}")
        return rep.rel_residual
    if op.kind == "gamma_mass":
        k, a, x, y = op.args
        mass, _ = h.gamma_mass(gf.genkernel.Params(k, a), x, y, gf.spec)
        if not abs(mass - 1.0) <= MASS_TOL:
            raise CheckFailed(f"|mass - 1| = {abs(mass - 1.0):.3e} > {MASS_TOL}")
        return mass
    if op.kind == "tv_norm_report":
        k, a, x, y = op.args
        tv = h.tv_norm_report(gf.genkernel.Params(k, a), x, y, gf.tv_spec).value
        if not (math.isfinite(tv) and tv >= 1.0 - MASS_TOL):
            raise CheckFailed(f"TV norm {tv!r} is not a finite value >= 1")
        return tv
    if op.kind == "translate":
        k, a, prof, y, z = op.args
        v = h.translate(gf.genkernel.Params(k, a), y, _profile(gf, prof, k, a), z, gf.spec)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise CheckFailed(f"translate returned {v!r}")
        if prof == "unit" and not abs(v - 1.0) <= UNIT_TOL:
            raise CheckFailed(f"|tau 1 - 1| = {abs(v - 1.0):.3e} > {UNIT_TOL}")
        return v
    if op.kind == "cli":
        return execute_cli_inprocess(gf, op)
    raise ValueError(f"unknown op kind {op.kind!r}")


def execute_cli_inprocess(gf, op: Op):
    """``gfkernel.cli.main`` in this process, output captured (traced runs)."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gf.cli.main(list(op.args))
    if code != 0:
        raise _cli_error(code, err.getvalue())
    return strip_wall_ms(out.getvalue())


def pass_checks(gf, ops: list[Op], values: dict[int, object]) -> dict[int, str]:
    """Checks that span several ops of one pass; returns {op index: reason}.

    values maps op index to the value of each op that completed.
    """
    bad: dict[int, str] = {}
    golden = {i: v for i, v in values.items()
              if ops[i].kind == "tv_norm_report" and ops[i].args[:2] == TV_GOLDEN_KA}
    n_golden = sum(1 for op in ops if op.kind == "tv_norm_report" and op.args[:2] == TV_GOLDEN_KA)
    if golden and len(golden) == n_golden:
        want = TV_GOLDEN_MAX
        i_max = max(golden, key=golden.get)
        if not abs(golden[i_max] - want) <= TV_GOLDEN_RTOL * want:
            bad[i_max] = f"9x9 grid max TV {golden[i_max]!r} != golden {want!r}"
    index = {op: i for i, op in enumerate(ops)}
    for i, v in values.items():
        op = ops[i]
        if op.kind != "translate" or op.args[2] == "unit":
            continue
        j = index.get(Op("translate", op.args[:3] + (op.args[4], op.args[3])))
        if j is not None and j in values and not abs(v - values[j]) <= SYMMETRY_TOL:
            bad[i] = f"tau_y f(z) - tau_z f(y) = {abs(v - values[j]):.3e} > {SYMMETRY_TOL}"
    return bad


# ---------------------------------------------------------------------------
# CLI ops in child processes
# ---------------------------------------------------------------------------


def strip_wall_ms(text: str) -> str:
    """CSV output with the wall_ms column removed (the one column that is
    allowed to differ between repeated calls)."""
    lines = text.splitlines()
    if not lines or "wall_ms" not in lines[0].split(","):
        return text
    drop = lines[0].split(",").index("wall_ms")
    return "\n".join(",".join(c for j, c in enumerate(line.split(",")) if j != drop)
                     for line in lines) + "\n"


class CliFailure(Exception):
    def __init__(self, kind: str, detail: str):
        super().__init__(detail)
        self.kind = kind


def _cli_error(code: int, stderr: str) -> CliFailure:
    last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    if code == 2:
        kind = "DomainError"
    elif code == 3 and stderr.startswith("numerical failure"):
        kind = "ConvergenceError"
    elif code == 3 and not stderr:
        kind = "CheckFailed"      # a residual above the asserted tolerance
    else:
        name = last.split(":", 1)[0].rsplit(".", 1)[-1]
        kind = name if name in FAIL_TYPES else "Other"
    return CliFailure(kind, f"exit {code}: {last}")


def cli_env(pythonpath: str, backend: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = pythonpath + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["GFKERNEL_BACKEND"] = backend
    return env


def run_cli(op: Op, env: dict, cwd: str) -> str:
    """One ``python -m gfkernel.cli`` process; returns its normalised stdout."""
    try:
        proc = subprocess.run([sys.executable, "-m", "gfkernel.cli", *op.args], env=env, cwd=cwd,
                              capture_output=True, text=True, timeout=CLI_DEADLINE_S)
    except subprocess.TimeoutExpired as exc:
        raise CliFailure("Deadline", f"no exit within {CLI_DEADLINE_S}s") from exc
    if proc.returncode != 0:
        raise _cli_error(proc.returncode, proc.stderr)
    return strip_wall_ms(proc.stdout)

