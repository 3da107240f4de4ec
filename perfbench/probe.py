"""Child-process probes of the benchmark (started by run.py, not by hand).

    probe.py setup <workload> <seed>     seconds from before ``import gfkernel``
                                         to the end of one warm-up op per kind
    probe.py kernels                     µs per call of the scalar kernel cases
    probe.py pass <workload> <seed> <i,j,...>
                                         seconds for one warm pass over the ops,
                                         skipping the listed op indices

The backend is whatever GFKERNEL_BACKEND and PYTHONPATH select.  Each probe
prints one JSON object.
"""

from __future__ import annotations

import json
import sys
import time

import workloads as wl

# the scalar kernel cases (core function, arguments); the pure-Python times
# are the specfn.kernel_us.* metrics, the compiled ones backend.c_kernel_us.*
KERNEL_CASES = {
    "bessel_small": ("normalized_bessel_j", (0.375, 3.7)),
    "bessel_large": ("normalized_bessel_j", (1.875, 32.0)),
    "hyp2f1_series": ("hyp2f1", (1.375, 0.125, 0.875, 0.3)),
    "hyp2f1_connection": ("hyp2f1", (1.375, 0.125, 0.875, 0.77)),
    "legendre_p": ("legendre_p", (0.125, 1.375, -0.4)),
    "legendre_q": ("legendre_q_phase_free", (0.125, 1.375, 1.5)),
    "r_band": ("r_band", (0.375, 1.875, 1.0, 1.2, 1.5)),
    "r_outer": ("r_outer", (0.375, 1.875, 1.0, 1.2, 2.6)),
}


def time_calls(fn, args, repeats: int = 5) -> float:
    """Median seconds per call of fn(*args), in batches of at least 20 ms."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn(*args)
        dt = time.perf_counter() - t0
        if dt >= 0.02:
            break
        n *= 2
    samples = [dt / n]
    for _ in range(repeats - 1):
        t0 = time.perf_counter()
        for _ in range(n):
            fn(*args)
        samples.append((time.perf_counter() - t0) / n)
    samples.sort()
    return samples[len(samples) // 2]


def run_quietly(gf, ops) -> None:
    for op in ops:
        try:
            wl.execute(gf, op)
        except Exception:       # failing ops are part of the pass; timing only
            pass


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        workload, seed = argv[1], int(argv[2])
        ops = wl.warmup_ops(wl.BUILDERS[workload](seed))
        t0 = time.perf_counter()
        gf = wl.load(None)
        run_quietly(gf, ops)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
    elif mode == "kernels":
        from gfkernel import backend_name
        from gfkernel._backend import core

        out = {"backend": backend_name()}
        for name, (fn, args) in KERNEL_CASES.items():
            out[name] = 1e6 * time_calls(getattr(core, fn), args)
        print(json.dumps(out))
    elif mode == "pass":
        workload, seed = argv[1], int(argv[2])
        skip = {int(i) for i in argv[3].split(",") if i} if len(argv) > 3 else set()
        ops = wl.BUILDERS[workload](seed)
        gf = wl.load(None)
        run_quietly(gf, wl.warmup_ops(ops))
        t0 = time.perf_counter()
        run_quietly(gf, [op for i, op in enumerate(ops) if i not in skip])
        print(json.dumps({"seconds": time.perf_counter() - t0,
                          "backend": gf.gfkernel.backend_name()}))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
