"""Command-line front end.

Commands evaluate the kernel and density, verify the product formula and
the transform identities, sweep total-variation norms, apply the
generalized translation, and run the acceptance suite.  Output is CSV (17
significant digits, locale-independent) or JSON; re-running a command with
an identical configuration produces byte-identical files.

Exit codes: 0 all asserted tolerances met, 2 invalid input, 3 numerical
failure (nonconvergence).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from ._backend import backend_name
from .errors import ConvergenceError, DomainError, GfkError
from .genkernel import Params, b_kernel, delta_density
from .harness import (
    Axis,
    SweepGrid,
    bump_profile,
    gaussian_profile,
    hankel_identity_eq1,
    hankel_identity_eq2,
    legendre_p_integral_check,
    legendre_q_integral_check,
    product_residual,
    translate,
    tv_norm_report,
)
from .quadrature import QuadratureSpec

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _write_rows(columns: list[str], rows: list[dict], out: str | None, fmt: str) -> None:
    if fmt == "json":
        # json floats round-trip exactly (repr emits the shortest exact form)
        text = json.dumps([{c: r[c] for c in columns} for r in rows], indent=1) + "\n"
    else:
        lines = [",".join(columns)]
        for r in rows:
            lines.append(",".join(_fmt(r[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _spec_from(ns: dict) -> QuadratureSpec:
    return QuadratureSpec(
        abs_tol=ns.get("abs_tol", 1e-10),
        rel_tol=ns.get("rel_tol", 1e-9),
        max_levels=int(ns.get("max_levels", 12)),
        osc_max_zeros=int(ns.get("osc_max_zeros", 200)),
        accel_terms=int(ns.get("accel_terms", 12)),
    )


def _residual_row(prefix: dict, rep) -> dict:
    row = dict(prefix)
    row.update(
        lhs_re=rep.lhs.real, lhs_im=rep.lhs.imag,
        rhs_re=rep.rhs.real, rhs_im=rep.rhs.imag,
        abs_res=rep.abs_residual, rel_res=rep.rel_residual,
        quad_err=rep.quad_error, wall_ms=1e3 * rep.wall_time,
    )
    return row


def _need(ns: dict, *names: str) -> None:
    missing = [n for n in names if ns.get(n) is None]
    if missing:
        raise DomainError(f"missing required option(s): {', '.join('--' + m.replace('_', '-') for m in missing)}")


def _axis_from(ns: dict, name: str, default_min: float, default_max: float,
               default_count: int) -> Axis:
    return Axis(name,
                float(ns.get(f"{name}_min", default_min)),
                float(ns.get(f"{name}_max", default_max)),
                int(ns.get(f"{name}_count", default_count)),
                ns.get(f"{name}_spacing", "log"))


def _cmd_eval_kernel(ns: dict) -> int:
    _need(ns, "k", "a", "lam", "x")
    p = Params(ns["k"], ns["a"])
    v = b_kernel(p, ns["lam"], ns["x"])
    rows = [dict(k=p.k, a=p.a, **{"lambda": ns["lam"]}, x=ns["x"],
                 re=v.real, im=v.imag, quad_error=0.0)]
    _write_rows(["k", "a", "lambda", "x", "re", "im", "quad_error"], rows,
                ns.get("out"), ns.get("format", "csv"))
    return EXIT_OK


def _cmd_eval_density(ns: dict) -> int:
    _need(ns, "k", "a", "x", "y", "z")
    p = Params(ns["k"], ns["a"])
    p.require_macdonald()
    v = delta_density(p, ns["x"], ns["y"], ns["z"])
    rows = [dict(k=p.k, a=p.a, x=ns["x"], y=ns["y"], z=ns["z"],
                 re=v.real, im=v.imag, quad_error=0.0)]
    _write_rows(["k", "a", "x", "y", "z", "re", "im", "quad_error"], rows,
                ns.get("out"), ns.get("format", "csv"))
    return EXIT_OK


def _cmd_verify_product(ns: dict) -> int:
    _need(ns, "k", "a", "lam", "x", "y")
    p = Params(ns["k"], ns["a"])
    p.require_macdonald()
    rep = product_residual(p, ns["lam"], ns["x"], ns["y"], _spec_from(ns))
    row = _residual_row(dict(k=p.k, a=p.a, **{"lambda": ns["lam"]}, x=ns["x"], y=ns["y"]), rep)
    _write_rows(["k", "a", "lambda", "x", "y", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
                 "abs_res", "rel_res", "quad_err", "wall_ms"], [row],
                ns.get("out"), ns.get("format", "csv"))
    tol = float(ns.get("assert_tol", 1e-5))
    return EXIT_OK if rep.rel_residual <= tol else EXIT_NUMERICAL


def _tv_point(args):
    k, a, x, y, spec = args
    rep = tv_norm_report(Params(k, a), x, y, spec)
    return dict(k=k, a=a, x=x, y=y, tv=rep.value, quad_err=rep.quad_error,
                trunc_bound=rep.truncation_bound, wall_ms=1e3 * rep.wall_time)


def _cmd_tv_sweep(ns: dict) -> int:
    _need(ns, "k", "a")
    p = Params(ns["k"], ns["a"])
    p.require_macdonald()
    grid = SweepGrid((_axis_from(ns, "x", 0.1, 10.0, 9),
                      _axis_from(ns, "y", 0.1, 10.0, 9)))
    spec = _spec_from(ns)
    tasks = [(p.k, p.a, pt["x"], pt["y"], spec) for pt in grid.points()]
    jobs = int(ns.get("jobs", 1))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_tv_point, tasks))
    else:
        rows = [_tv_point(t) for t in tasks]
    rows.sort(key=lambda r: (r["x"], r["y"]))
    _write_rows(["k", "a", "x", "y", "tv", "quad_err", "trunc_bound", "wall_ms"],
                rows, ns.get("out"), ns.get("format", "csv"))
    return EXIT_OK if all(math.isfinite(r["tv"]) for r in rows) else EXIT_NUMERICAL


def _cmd_hankel_check(ns: dict) -> int:
    _need(ns, "mu", "nu", "x", "y", "t")
    eq = int(ns.get("eq", 1))
    fn = hankel_identity_eq1 if eq == 1 else hankel_identity_eq2
    rep = fn(ns["mu"], ns["nu"], ns["x"], ns["y"], ns["t"], _spec_from(ns))
    row = _residual_row(dict(eq=eq, mu=ns["mu"], nu=ns["nu"], x=ns["x"], y=ns["y"], t=ns["t"]), rep)
    _write_rows(["eq", "mu", "nu", "x", "y", "t", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
                 "abs_res", "rel_res", "quad_err", "wall_ms"], [row],
                ns.get("out"), ns.get("format", "csv"))
    tol = float(ns.get("assert_tol", 1e-5))
    return EXIT_OK if rep.rel_residual <= tol else EXIT_NUMERICAL


def _cmd_legendre_check(ns: dict) -> int:
    _need(ns, "mu", "nu")
    ident = ns.get("identity", "P").upper()
    if ident not in ("P", "Q"):
        raise DomainError("--identity must be P or Q")
    fn = legendre_p_integral_check if ident == "P" else legendre_q_integral_check
    rep = fn(ns["mu"], ns["nu"], _spec_from(ns))
    row = _residual_row(dict(identity=ident, mu=ns["mu"], nu=ns["nu"]), rep)
    _write_rows(["identity", "mu", "nu", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
                 "abs_res", "rel_res", "quad_err", "wall_ms"], [row],
                ns.get("out"), ns.get("format", "csv"))
    tol = float(ns.get("assert_tol", 1e-6))
    return EXIT_OK if rep.rel_residual <= tol else EXIT_NUMERICAL


def _cmd_translate(ns: dict) -> int:
    _need(ns, "k", "a", "y", "z")
    p = Params(ns["k"], ns["a"])
    p.require_macdonald()
    profile = ns.get("profile", "gaussian")
    width = float(ns.get("width", 1.0))
    if profile == "gaussian":
        f = gaussian_profile(width)
    elif profile == "bump":
        f = bump_profile(width)
    else:
        raise DomainError(f"unknown profile {profile!r} (gaussian or bump)")
    v = translate(p, ns["y"], f, ns["z"], _spec_from(ns))
    rows = [dict(k=p.k, a=p.a, y=ns["y"], z=ns["z"], profile=profile, width=width,
                 re=v.real, im=v.imag, quad_error=0.0)]
    _write_rows(["k", "a", "y", "z", "profile", "width", "re", "im", "quad_error"],
                rows, ns.get("out"), ns.get("format", "csv"))
    return EXIT_OK


def _cmd_selftest(ns: dict) -> int:
    import random

    from . import selfcheck

    results = selfcheck.run_all()
    seed = int(ns.get("seed", 0))
    rng = random.Random(seed)
    spot_fail = False
    for _ in range(3):
        k = rng.uniform(0.3, 1.5)
        a = rng.uniform(0.8, 2.5)
        p = Params(k, a)
        if not p.macdonald_admissible:
            continue
        lam = rng.uniform(0.3, 2.0)
        x = rng.uniform(0.3, 2.0)
        y = rng.uniform(0.3, 2.0)
        rep = product_residual(p, lam, x, y, _spec_from(ns))
        ok = rep.rel_residual <= 1e-5
        spot_fail = spot_fail or not ok
        print(f"[{'PASS' if ok else 'FAIL'}] spot product (k={k:.3f}, a={a:.3f}, "
              f"lambda={lam:.3f}, x={x:.3f}, y={y:.3f}): rel_residual={rep.rel_residual:.3e}")
    rows = [dict(cid=r.cid, passed=int(r.passed), seconds=r.seconds, detail=r.detail)
            for r in results]
    if ns.get("out"):
        _write_rows(["cid", "passed", "seconds", "detail"], rows, ns["out"],
                    ns.get("format", "csv"))
    failed = [r for r in results if not r.passed]
    return EXIT_OK if not failed and not spot_fail else 1


_COMMANDS = {
    "eval-kernel": _cmd_eval_kernel,
    "eval-density": _cmd_eval_density,
    "verify-product": _cmd_verify_product,
    "tv-sweep": _cmd_tv_sweep,
    "hankel-check": _cmd_hankel_check,
    "legendre-check": _cmd_legendre_check,
    "translate": _cmd_translate,
    "selftest": _cmd_selftest,
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file supplying options; explicit flags win")
    sub.add_argument("--out", help="output file (default: stdout)")
    sub.add_argument("--format", choices=["csv", "json"], help="output format (default csv)")
    sub.add_argument("--abs-tol", dest="abs_tol", type=float, help="quadrature absolute tolerance")
    sub.add_argument("--rel-tol", dest="rel_tol", type=float, help="quadrature relative tolerance")
    sub.add_argument("--max-levels", dest="max_levels", type=int, help="tanh-sinh refinement cap")
    sub.add_argument("--osc-max-zeros", dest="osc_max_zeros", type=int, help="oscillatory cell cap")
    sub.add_argument("--accel-terms", dest="accel_terms", type=int, help="acceleration window")
    sub.add_argument("--seed", type=int, help="seed for randomized spot checks (default 0)")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gfkernel",
        description=("deformed Fourier kernel evaluation and product-formula "
                     f"verification (backend: {backend_name()})"))
    sp = ap.add_subparsers(dest="command", required=True)

    def scalar_opts(sub, *names):
        for n in names:
            flag = "--lambda" if n == "lam" else f"--{n}"
            sub.add_argument(flag, dest=n, type=float)

    s = sp.add_parser("eval-kernel", help="evaluate B(lambda, x)")
    scalar_opts(s, "k", "a", "lam", "x")
    _add_common(s)

    s = sp.add_parser("eval-density", help="evaluate the product density Delta(x, y, z)")
    scalar_opts(s, "k", "a", "x", "y", "z")
    _add_common(s)

    s = sp.add_parser("verify-product", help="product-formula residual at one point")
    scalar_opts(s, "k", "a", "lam", "x", "y")
    s.add_argument("--assert-tol", dest="assert_tol", type=float,
                   help="rel_residual threshold for exit status (default 1e-5)")
    _add_common(s)

    s = sp.add_parser("tv-sweep", help="total-variation norms over an (x, y) grid")
    scalar_opts(s, "k", "a")
    for axn in ("x", "y"):
        s.add_argument(f"--{axn}-min", dest=f"{axn}_min", type=float)
        s.add_argument(f"--{axn}-max", dest=f"{axn}_max", type=float)
        s.add_argument(f"--{axn}-count", dest=f"{axn}_count", type=int)
        s.add_argument(f"--{axn}-spacing", dest=f"{axn}_spacing", choices=["linear", "log"])
    s.add_argument("--jobs", type=int, help="parallel workers (default 1)")
    _add_common(s)

    s = sp.add_parser("hankel-check", help="weighted Hankel identity residual")
    s.add_argument("--eq", type=int, choices=[1, 2])
    scalar_opts(s, "mu", "nu", "x", "y", "t")
    s.add_argument("--assert-tol", dest="assert_tol", type=float)
    _add_common(s)

    s = sp.add_parser("legendre-check", help="Legendre integral identity residual")
    s.add_argument("--identity", choices=["P", "Q", "p", "q"])
    scalar_opts(s, "mu", "nu")
    s.add_argument("--assert-tol", dest="assert_tol", type=float)
    _add_common(s)

    s = sp.add_parser("translate", help="apply the generalized translation to a profile")
    scalar_opts(s, "k", "a", "y", "z")
    s.add_argument("--profile", choices=["gaussian", "bump"])
    s.add_argument("--width", type=float)
    _add_common(s)

    s = sp.add_parser("selftest", help="run the acceptance suite")
    _add_common(s)
    return ap


def _merge_config(ns: argparse.Namespace) -> dict:
    merged: dict = {}
    cfg_path = getattr(ns, "config", None)
    if cfg_path:
        with open(cfg_path) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise DomainError("config file must hold a JSON object")
        known = vars(ns).keys() - {"command", "config"}
        for key, val in cfg.items():
            name = key.replace("-", "_")
            if name not in known:
                raise DomainError(f"unknown config key {key!r} for {ns.command}; "
                                  f"known: {', '.join(sorted(known))}")
            merged[name] = val
    for key, val in vars(ns).items():
        if key in ("command", "config"):
            continue
        if val is not None:
            merged[key] = val
    return merged


def main(argv: list[str] | None = None) -> int:
    ap = make_parser()
    ns = ap.parse_args(argv)
    try:
        merged = _merge_config(ns)
        return _COMMANDS[ns.command](merged)
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DomainError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except GfkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
