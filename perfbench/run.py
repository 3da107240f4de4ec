#!/usr/bin/env python3
"""The gfkernel benchmark: one closed-loop client on the pure-Python core.

    python3 perfbench/run.py --workload {product,tv_translate,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, measured over whole
passes of the seed's op list until ``--seconds`` have gone by, with every
time scaled to a nominal host speed (see speed.py).  With
``--trace 1`` they are the per-layer ones: one untraced and one traced pass,
plus probes of the scalar kernels, the compiled core, the CLI start-up and
the acceptance criteria.  See perfbench/README.md for what each number means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import speed
import workloads as wl
from workloads import Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
SETUP_REPEATS = 7
MIN_PASSES = 4          # so each op's median latency rests on >= 4 samples
CLI_COMMANDS = ("eval-kernel", "eval-density", "verify-product", "translate",
                "hankel-check", "legendre-check", "tv-sweep")


def _child(args: list[str], env: dict) -> dict:
    """Run a probe child to completion and return the JSON it printed."""
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _probe(args: list[str], env: dict) -> dict:
    return _child([str(HERE / "probe.py"), *args], env)


def pure_env() -> dict:
    return wl.cli_env(str(SRC), "python")


def nearest_rank(sorted_vals: list[float], q: float) -> float:
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------


def _on_alarm(signum, frame):
    raise wl.OpDeadline()


class Runner:
    """Runs ops one at a time and records (op index, seconds, failure).

    In process through ``gf`` (see workloads.load), or, given ``env``, as
    ``gfkernel.cli`` child processes with that environment.
    """

    def __init__(self, workload: str, ops: list[Op], gf=None, env: dict | None = None):
        self.ops = ops
        self.gf = gf
        self.env = env
        self.deadline = workload != "cli"
        self.reference: dict[int, str] = {}     # first CLI output of each op
        self.failures: list[tuple[int, str, str]] = []
        self.factors: list[float] = []          # speed factors of paced ops

    def speed_reference(self) -> float:
        """Seconds of one run of the reference work of this runner's ops."""
        return speed.spawn_s(self.env, str(ROOT)) if self.env is not None else speed.loop_s()

    def one(self, i: int, call=None):
        """Returns (seconds, failure kind or None, value)."""
        op = self.ops[i]
        t0 = time.perf_counter()
        try:
            if self.deadline:
                signal.setitimer(signal.ITIMER_REAL, wl.OP_DEADLINE_S)
            try:
                if self.env is not None:
                    value = wl.run_cli(op, self.env, str(ROOT))
                elif call is not None:
                    value = call(i, wl.execute, self.gf, op)
                else:
                    value = wl.execute(self.gf, op)
            finally:
                if self.deadline:
                    signal.setitimer(signal.ITIMER_REAL, 0.0)
            if op.kind == "cli":
                ref = self.reference.setdefault(i, value)
                if value != ref:
                    raise wl.CheckFailed("output differs from the first call beyond wall_ms")
            kind, detail = None, ""
        except wl.CliFailure as exc:
            kind, detail, value = exc.kind, str(exc), None
        except (Exception, wl.OpDeadline) as exc:
            kind, detail, value = wl.fail_type(exc), f"{type(exc).__name__}: {exc}", None
        dt = time.perf_counter() - t0
        if kind is not None:
            self.failures.append((i, kind, detail))
        return dt, kind, value

    def run_pass(self, skip=frozenset(), call=None,
                 paced: bool = False) -> list[tuple[int, float, str | None]]:
        """One pass; records are (op index, seconds, failure kind or None).

        paced: bracket each op with runs of the speed reference (speed.py)
        and record its time at the reference's nominal speed.
        """
        records = []
        values = {}
        nominal = speed.SPAWN_NOMINAL_S if self.env is not None else speed.LOOP_NOMINAL_S
        before = self.speed_reference() if paced else 0.0
        for i in range(len(self.ops)):
            if i in skip:
                continue
            dt, kind, value = self.one(i, call)
            if paced:
                after = self.speed_reference()
                self.factors.append(speed.factor(nominal, before, after))
                dt *= self.factors[-1]
                before = after
            records.append([i, dt, kind])
            if kind is None:
                values[i] = value
        if self.gf is not None:
            bad = wl.pass_checks(self.gf, self.ops, values)
            for rec in records:
                if rec[0] in bad and rec[2] is None:
                    rec[2] = "CheckFailed"
                    self.failures.append((rec[0], "CheckFailed", bad[rec[0]]))
        return [tuple(r) for r in records]

    def report_failures(self) -> None:
        """Each failing input once, on standard error; check failures in full."""
        seen = set()
        for i, kind, detail in self.failures:
            if (i, kind) in seen:
                continue
            seen.add((i, kind))
            if kind == "CheckFailed" or len(seen) <= 20:
                print(f"failed op [{kind}] {self.ops[i].describe()}: {detail}", file=sys.stderr)


def _fail_counts(records) -> dict[str, int]:
    counts = {t: 0 for t in wl.FAIL_TYPES}
    for _, _, kind in records:
        if kind is not None:
            counts[kind if kind in counts else "Other"] += 1
    return counts


def machine(backend: str) -> dict:
    import numpy

    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "numpy": numpy.__version__, "backend": backend}


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------


def setup_sample(workload: str, seed: int) -> float:
    """One fresh process's set-up time (see README.md), bracketed by runs of
    the process speed reference and given at its nominal speed."""
    env = pure_env()
    before = speed.spawn_s(env, str(ROOT))
    if workload == "cli":
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import gfkernel"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        setup = time.perf_counter() - t0
    else:
        setup = _probe(["setup", workload, str(seed)], env)["setup_s"]
    return setup * speed.factor(speed.SPAWN_NOMINAL_S, before, speed.spawn_s(env, str(ROOT)))


def end_to_end(workload: str, seed: int, seconds: float):
    ops = wl.BUILDERS[workload](seed)
    if workload == "cli":
        runner = Runner(workload, ops, env=pure_env())
        backend = "python"
    else:
        gf = wl.load(str(SRC))
        backend = gf.gfkernel.backend_name()
        runner = Runner(workload, ops, gf)
        for op in wl.warmup_ops(ops):
            runner.one(ops.index(op))
        runner.failures.clear()
        for _ in range(20):
            speed.loop_s()
    # Every time is scaled to the speed reference's nominal speed (speed.py);
    # set-up samples are spread over the run and each op's latency is its
    # median over the passes, which damps what the scaling leaves.
    setup = []
    times: dict[int, list[float]] = {i: [] for i in range(len(ops))}
    ranked: dict[int, list[float]] = {i: [] for i in range(len(ops))}
    records = []
    passes = 0
    measured = 0.0
    while passes < MIN_PASSES or measured < seconds:
        setup.append(setup_sample(workload, seed))
        t_pass = time.perf_counter()
        done = runner.run_pass(paced=True)
        measured += time.perf_counter() - t_pass
        for i, dt, kind in done:
            times[i].append(dt)
            ranked[i].append(dt + (charge(workload) if kind else 0.0))
        records += done
        passes += 1
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_sample(workload, seed))
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss

    per_op = sorted(statistics.median(v) for v in ranked.values())
    pass_s = sum(statistics.median(v) for v in times.values())
    failed = sum(1 for r in records if r[2])
    attempted = len(records)
    runner.report_failures()
    counts = _fail_counts(records)
    print("# machine: " + json.dumps(machine(backend)))
    print(f"# {workload}: {passes} passes of {len(ops)} ops ({attempted} ops); latencies are "
          f"per-op medians over the passes, {len(per_op)} samples; failures {counts}")
    print(f"# speed factor (nominal / measured reference time): median "
          f"{statistics.median(runner.factors):.3f}, quartiles "
          f"{' '.join(f'{q:.3f}' for q in statistics.quantiles(runner.factors, n=4)[::2])}")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": ((attempted - failed) / passes / pass_s, "1/s"),
        "op_ms_p50": (1e3 * nearest_rank(per_op, 0.5), "ms"),
        "op_ms_p90": (1e3 * nearest_rank(per_op, 0.9), "ms"),
        "fail_ratio": (failed / attempted, "ratio"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return counts["CheckFailed"] == 0, attempted, failed, metrics


def charge(workload: str) -> float:
    """What a failed op adds to its latency when ops are ranked: its deadline,
    so it ranks above every completed op."""
    return wl.CLI_DEADLINE_S if workload == "cli" else wl.OP_DEADLINE_S


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def build_c_backend() -> Path:
    """Compile the committed _core.c into a copy of the package under
    .bench_build (never into src/, where it would switch the default
    backend).  Rebuilt only when a source file changed."""
    pkg_src = SRC / "gfkernel"
    files = sorted(pkg_src.glob("*.py")) + [pkg_src / "_core.c"]
    digest = hashlib.sha256(b"".join(f.read_bytes() for f in files)).hexdigest()
    out = BUILD / "cbackend"
    stamp = out / "stamp"
    if stamp.exists() and stamp.read_text() == digest:
        return out
    shutil.rmtree(out, ignore_errors=True)
    pkg = out / "gfkernel"
    pkg.mkdir(parents=True)
    for f in files[:-1]:
        shutil.copy2(f, pkg / f.name)
    target = pkg / ("_core" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run(["gcc", "-shared", "-fPIC", "-O2", "-ffp-contract=off",
                    "-I" + sysconfig.get_paths()["include"], str(pkg_src / "_core.c"),
                    "-o", str(target), "-lm"], check=True, timeout=170)
    stamp.write_text(digest)
    return out


def cli_layer(seed: int) -> tuple[dict, list]:
    """cli.spawn_ms, cli.import_ms and cli.<command>_ms (one CLI pass)."""
    env = pure_env()
    spawn, imp = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True, timeout=60)
        spawn.append(time.perf_counter() - t0)
        imp.append(_child(["-c", "import json, time; t = time.perf_counter(); import gfkernel; "
                                 "print(json.dumps({'s': time.perf_counter() - t}))"], env)["s"])
    ops = wl.cli_ops(seed)
    runner = Runner("cli", ops, env=env)
    records = runner.run_pass()
    per_cmd = {c: [] for c in CLI_COMMANDS}
    for i, dt, _ in records:
        per_cmd[ops[i].args[0]].append(dt)
    m = {"cli.spawn_ms": 1e3 * statistics.median(spawn),
         "cli.import_ms": 1e3 * statistics.median(imp)}
    for c in CLI_COMMANDS:
        m[f"cli.{c}_ms"] = 1e3 * statistics.median(per_cmd[c])
    return m, records


def traced(workload: str, seed: int):
    cdir = build_c_backend()
    c_env = wl.cli_env(str(cdir), "c")
    kernels = _probe(["kernels"], pure_env())
    c_kernels = _probe(["kernels"], c_env)
    if kernels.pop("backend") != "python" or c_kernels.pop("backend") != "c":
        raise RuntimeError("kernel probes ran on the wrong backend")
    cli_m, cli_records = cli_layer(seed)

    gf = wl.load(str(SRC))
    crit = {cid: gf.selfcheck.run_criterion(cid).seconds for cid in sorted(gf.selfcheck.CRITERIA)}

    ops = wl.BUILDERS[workload](seed)
    runner = Runner(workload, ops, gf)
    for op in wl.warmup_ops(ops):
        if op.kind != "cli":
            runner.one(ops.index(op))
    runner.failures.clear()
    records = runner.run_pass()
    skip = frozenset(i for i, _, kind in records if kind == "Deadline")
    t_plain = sum(dt for i, dt, _ in records if i not in skip)

    from tracer import Tracer

    tr = Tracer()
    tr.install()
    runner.deadline = False
    try:
        t_traced = sum(dt for _, dt, _ in runner.run_pass(skip, call=tr.run_op))
    finally:
        tr.uninstall()
    (BUILD / "trace").mkdir(parents=True, exist_ok=True)
    tr.save(str(BUILD / "trace" / f"{workload}-seed{seed}.npz"))
    layer = tr.layer_metrics(len(ops) - len(skip))

    # pure / compiled time over the ops that pass on the pure core: a failing
    # op does different work on each core (translate at |y| = |z| raises at
    # once on the pure core and runs to ConvergenceError on the compiled one)
    pure_records = cli_records if workload == "cli" else records
    failing = frozenset(i for i, _, kind in pure_records if kind)
    t_pure = sum(dt for _, dt, kind in pure_records if not kind)
    if workload == "cli":
        c_runner = Runner("cli", ops, env=c_env)
        t_c = sum(dt for _, dt, _ in c_runner.run_pass(failing))
    else:
        c_pass = _probe(["pass", workload, str(seed), ",".join(map(str, sorted(failing)))], c_env)
        if c_pass["backend"] != "c":
            raise RuntimeError("compiled pass ran on the wrong backend")
        t_c = c_pass["seconds"]

    m: dict[str, tuple[float, str]] = {}
    for g, probe_case in (("bessel", "bessel_small"), ("hyp2f1", "hyp2f1_series")):
        calls, _ = layer.pop(f"specfn.{g}.calls")
        self_s, _ = layer.pop(f"specfn.{g}.self_s")
        # a pass that makes no such call reports the kernel probe's cost per call
        per_call = 1e6 * self_s / calls if calls else kernels[probe_case]
        m[f"specfn.{g}.calls"] = (calls, "count")
        m[f"specfn.{g}.us_per_call"] = (per_call, "us")
    for case, us in kernels.items():
        m[f"specfn.kernel_us.{case}"] = (us, "us")
    m.update(layer)
    for kind, n in _fail_counts(records).items():
        m[f"harness.fail.{kind}"] = (n, "count")
    for cid, s in crit.items():
        m[f"selfcheck.{cid}_s"] = (s, "s")
    for name, ms in cli_m.items():
        m[name] = (ms, "ms")
    m["backend.c_speedup"] = (t_pure / t_c, "x")
    for case, us in c_kernels.items():
        m[f"backend.c_kernel_us.{case}"] = (us, "us")
    m["trace.overhead"] = (t_traced / t_plain - 1.0, "ratio")

    runner.report_failures()
    failed = sum(1 for r in records if r[2])
    print("# machine: " + json.dumps(machine("python")) + " compiled: " + json.dumps(machine("c")))
    print(f"# traced {len(ops) - len(skip)} of {len(ops)} ops ({len(skip)} past the deadline "
          f"skipped); {len(tr.start)} spans written to .bench_build/trace/")
    checks_ok = all(kind != "CheckFailed" for _, _, kind in records)
    return checks_ok, len(records), failed, m


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gfkernel" / "__init__.py").is_file():
        print(f"no gfkernel sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.environ["GFKERNEL_BACKEND"] = "python"
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.trace:
        correct, attempted, failed, metrics = traced(args.workload, args.seed)
    else:
        correct, attempted, failed, metrics = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
