"""Command-line front end.

Commands evaluate the kernel and density, verify the product formula and
the transform identities, sweep total-variation norms, apply the
generalized translation, and run the acceptance suite.  Output is CSV (17
significant digits, locale-independent) or JSON; re-running a command with
an identical configuration produces byte-identical files.

Each command is declared once, in ``_COMMANDS``: its help, its required
float options, its run function and its own extra options.  The parser and
the missing-option check read that table; a call builds the subparser of
its own command alone.  A run function returns its rows and its exit
code; the keys of the first row, in order, are the output columns.  The
quadrature flags (``--abs-tol``, ``--rel-tol``, ``--max-levels``), their
types and their defaults are the fields of ``QuadratureSpec``; only the
commands that integrate take them.  ``harness`` and ``quadrature`` are
imported by the commands and subparsers that use them, so ``eval-kernel``
and ``eval-density`` load neither.

Exit codes: 0 all asserted tolerances met, 2 invalid input, 3 numerical
failure (nonconvergence).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from ._backend import backend_name
from .errors import ConvergenceError, DomainError, GfkError
from .genkernel import Params, b_kernel, delta_density

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3

# tv-sweep starts at most one worker per this many grid points: on a 2-CPU
# host two workers beat one process only from about 25 points, where they
# repay the pool's start, its import and each worker's cold plans
POINTS_PER_WORKER = 16


def _fmt(v) -> str:
    return format(v, ".17g") if isinstance(v, float) else str(v)


def _write_rows(rows: list[dict], out: str | None, fmt: str) -> None:
    if fmt == "json":
        import json

        # json floats round-trip exactly (repr emits the shortest exact form)
        text = json.dumps(rows, indent=1) + "\n"
    else:
        lines = [",".join(rows[0])]
        lines += [",".join(_fmt(v) for v in r.values()) for r in rows]
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _spec_from(ns: dict) -> QuadratureSpec:
    from .quadrature import QuadratureSpec

    return QuadratureSpec(**{n: type(d)(ns[n]) for n, d in QuadratureSpec._field_defaults.items()
                             if n in ns})


def _density_params(ns: dict) -> Params:
    p = Params(ns["k"], ns["a"])
    p.require_macdonald()
    return p


def _residual(prefix: dict, rep, ns: dict, tol: float) -> tuple[list[dict], int]:
    """The residual row after ``prefix``, and exit 3 past ``--assert-tol``."""
    row = dict(prefix,
               lhs_re=rep.lhs.real, lhs_im=rep.lhs.imag,
               rhs_re=rep.rhs.real, rhs_im=rep.rhs.imag,
               abs_res=rep.abs_residual, rel_res=rep.rel_residual,
               quad_err=rep.quad_error, wall_ms=1e3 * rep.wall_time)
    tol = float(ns.get("assert_tol", tol))
    return [row], EXIT_OK if rep.rel_residual <= tol else EXIT_NUMERICAL


def _cmd_eval_kernel(ns: dict) -> tuple[list[dict], int]:
    p = Params(ns["k"], ns["a"])
    v = b_kernel(p, ns["lam"], ns["x"])
    return [dict(k=p.k, a=p.a, **{"lambda": ns["lam"]}, x=ns["x"],
                 re=v.real, im=v.imag)], EXIT_OK


def _cmd_eval_density(ns: dict) -> tuple[list[dict], int]:
    p = _density_params(ns)
    v = delta_density(p, ns["x"], ns["y"], ns["z"])
    return [dict(k=p.k, a=p.a, x=ns["x"], y=ns["y"], z=ns["z"],
                 re=v.real, im=v.imag)], EXIT_OK


def _cmd_verify_product(ns: dict) -> tuple[list[dict], int]:
    from .harness import product_residual

    p = _density_params(ns)
    rep = product_residual(p, ns["lam"], ns["x"], ns["y"], _spec_from(ns))
    return _residual(dict(k=p.k, a=p.a, **{"lambda": ns["lam"]}, x=ns["x"], y=ns["y"]),
                     rep, ns, 1e-5)


def _tv_point(args):
    from .harness import tv_norm_report

    k, a, x, y, spec = args
    rep = tv_norm_report(Params(k, a), x, y, spec)
    return dict(k=k, a=a, x=x, y=y, tv=rep.value, quad_err=rep.quad_error,
                wall_ms=1e3 * rep.wall_time)


def _cmd_tv_sweep(ns: dict) -> tuple[list[dict], int]:
    from .harness import Axis

    p = _density_params(ns)
    xs, ys = (Axis(n, float(ns.get(f"{n}_min", 0.1)), float(ns.get(f"{n}_max", 10.0)),
                   int(ns.get(f"{n}_count", 9)), ns.get(f"{n}_spacing", "log")).values()
              for n in ("x", "y"))
    spec = _spec_from(ns)
    tasks = [(p.k, p.a, x, y, spec) for x in xs for y in ys]
    jobs = int(ns.get("jobs", 1))
    if jobs < 1:
        raise DomainError(f"--jobs must be at least 1, got {jobs}")
    workers = min(jobs, len(tasks) // POINTS_PER_WORKER, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_tv_point, tasks))
    else:
        rows = [_tv_point(t) for t in tasks]
    rows.sort(key=lambda r: (r["x"], r["y"]))
    return rows, EXIT_OK if all(math.isfinite(r["tv"]) for r in rows) else EXIT_NUMERICAL


def _cmd_hankel_check(ns: dict) -> tuple[list[dict], int]:
    from .harness import hankel_identity_eq1, hankel_identity_eq2

    eq = int(ns.get("eq", 1))
    fn = hankel_identity_eq1 if eq == 1 else hankel_identity_eq2
    rep = fn(ns["mu"], ns["nu"], ns["x"], ns["y"], ns["t"], _spec_from(ns))
    return _residual(dict(eq=eq, mu=ns["mu"], nu=ns["nu"], x=ns["x"], y=ns["y"], t=ns["t"]),
                     rep, ns, 1e-5)


def _cmd_legendre_check(ns: dict) -> tuple[list[dict], int]:
    from .harness import legendre_p_integral_check, legendre_q_integral_check

    ident = ns.get("identity", "P").upper()
    fn = legendre_p_integral_check if ident == "P" else legendre_q_integral_check
    rep = fn(ns["mu"], ns["nu"], _spec_from(ns))
    return _residual(dict(identity=ident, mu=ns["mu"], nu=ns["nu"]), rep, ns, 1e-6)


def _cmd_translate(ns: dict) -> tuple[list[dict], int]:
    from .harness import bump_profile, gaussian_profile, translate_report

    p = _density_params(ns)
    profile = ns.get("profile", "gaussian")
    width = float(ns.get("width", 1.0))
    profiles = {"gaussian": gaussian_profile, "bump": bump_profile}
    rep = translate_report(p, ns["y"], profiles[profile](width), ns["z"], _spec_from(ns))
    return [dict(k=p.k, a=p.a, y=ns["y"], z=ns["z"], profile=profile, width=width,
                 re=rep.value.real, im=rep.value.imag, quad_err=rep.quad_error)], EXIT_OK


def _cmd_selftest(ns: dict) -> tuple[list[dict] | None, int]:
    import random

    from . import selfcheck
    from .harness import product_residual

    results = selfcheck.run_all()
    rng = random.Random(int(ns.get("seed", 0)))
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
    passed = all(r.passed for r in results) and not spot_fail
    return rows if ns.get("out") else None, EXIT_OK if passed else 1


def _axis_opts(n: str) -> tuple:
    return ((f"--{n}-min", dict(type=float)), (f"--{n}-max", dict(type=float)),
            (f"--{n}-count", dict(type=int)), (f"--{n}-spacing", dict(choices=["linear", "log"])))


_ASSERT_TOL = (("--assert-tol", dict(type=float, help="exit 3 when rel_residual exceeds it")),)

# name: (help, required float options, run function, extra options, takes
# the quadrature flags)
_COMMANDS = {
    "eval-kernel": ("evaluate B(lambda, x)", ("k", "a", "lam", "x"), _cmd_eval_kernel, (), False),
    "eval-density": ("evaluate the product density Delta(x, y, z)", ("k", "a", "x", "y", "z"),
                     _cmd_eval_density, (), False),
    "verify-product": ("product-formula residual at one point", ("k", "a", "lam", "x", "y"),
                       _cmd_verify_product, _ASSERT_TOL, True),
    "tv-sweep": ("total-variation norms over an (x, y) grid", ("k", "a"), _cmd_tv_sweep,
                 _axis_opts("x") + _axis_opts("y")
                 + (("--jobs", dict(type=int, help="parallel workers, at most one per "
                                                   "grid point and CPU (default 1)")),), True),
    "hankel-check": ("weighted Hankel identity residual", ("mu", "nu", "x", "y", "t"),
                     _cmd_hankel_check,
                     (("--eq", dict(type=int, choices=[1, 2])),) + _ASSERT_TOL, True),
    "legendre-check": ("Legendre integral identity residual", ("mu", "nu"), _cmd_legendre_check,
                       (("--identity", dict(choices=["P", "Q", "p", "q"])),) + _ASSERT_TOL, True),
    "translate": ("apply the generalized translation to a profile", ("k", "a", "y", "z"),
                  _cmd_translate, (("--profile", dict(choices=["gaussian", "bump"])),
                                   ("--width", dict(type=float))), True),
    "selftest": ("run the acceptance suite", (), _cmd_selftest,
                 (("--seed", dict(type=int, help="seed for randomized spot checks (default 0)")),),
                 True),
}


def make_parser(commands=tuple(_COMMANDS)) -> argparse.ArgumentParser:
    """The parser with the subparsers of ``commands`` (default: every one)."""
    ap = argparse.ArgumentParser(
        prog="gfkernel",
        description=("deformed Fourier kernel evaluation and product-formula "
                     f"verification (backend: {backend_name()})"))
    sp = ap.add_subparsers(dest="command", required=True)
    for name in commands:
        help_, required, _run, extra, quad = _COMMANDS[name]
        s = sp.add_parser(name, help=help_)
        acts = [s.add_argument("--lambda" if n == "lam" else f"--{n}", dest=n, type=float)
                for n in required]
        acts += [s.add_argument(flag, **kwargs) for flag, kwargs in extra]
        if quad:
            from .quadrature import QuadratureSpec

            acts += [s.add_argument("--" + n.replace("_", "-"), type=type(d),
                                    help=f"QuadratureSpec.{n} (default {d})")
                     for n, d in QuadratureSpec._field_defaults.items()]
        s.add_argument("--config", help="JSON file supplying options; explicit flags win")
        acts.append(s.add_argument("--out", help="output file (default: stdout)"))
        acts.append(s.add_argument("--format", choices=["csv", "json"],
                                   help="output format (default csv)"))
        # each option's action, which checks the config values as it does flags
        s.set_defaults(actions={a.dest: a for a in acts})
    return ap


def _merge_config(ns: argparse.Namespace) -> dict:
    flags = {k: v for k, v in vars(ns).items() if k not in ("command", "config", "actions")}
    merged: dict = {}
    if ns.config:
        import json

        with open(ns.config) as fh:
            try:
                cfg = json.load(fh)
            except ValueError as exc:      # not JSON, or not UTF-8 text
                raise DomainError(str(exc)) from exc
        if not isinstance(cfg, dict):
            raise DomainError("config file must hold a JSON object")
        for key, val in cfg.items():
            name = key.replace("-", "_")
            if name not in flags:
                raise DomainError(f"unknown config key {key!r} for {ns.command}; "
                                  f"known: {', '.join(sorted(flags))}")
            # a number for a float option; otherwise exactly the option's type
            act = ns.actions[name]
            want = (int, float) if act.type is float else act.type or str
            if (isinstance(val, bool) or not isinstance(val, want)
                    or act.choices is not None and val not in act.choices):
                raise DomainError(f"config key {key!r} takes {(act.type or str).__name__} "
                                  f"values{f' in {act.choices}' if act.choices else ''}, "
                                  f"got {val!r}")
            merged[name] = val
    merged.update((k, v) for k, v in flags.items() if v is not None)
    return merged


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a known command's call is parsed by its own subparser alone; help, no
    # or an unknown command, and arguments it leaves over go to the full
    # parser, whose usage and messages name every command
    ns, rest = None, argv
    if argv and argv[0] in _COMMANDS:
        ns, rest = make_parser(argv[:1]).parse_known_args(argv)
    if ns is None or rest:
        ns = make_parser().parse_args(argv)
    _help, required, run, *_ = _COMMANDS[ns.command]
    try:
        merged = _merge_config(ns)
        missing = [n for n in required if merged.get(n) is None]
        if missing:
            raise DomainError(f"missing required option(s): {', '.join('--' + m for m in missing)}")
        rows, code = run(merged)
        if rows:
            _write_rows(rows, merged.get("out"), merged.get("format", "csv"))
        return code
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DomainError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except GfkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
