"""Reference work that tracks the host's speed, so reported times do not.

The shared 2-vCPU host the bounds were set on runs the same code up to 1.5x
slower in phases that last from a second to several minutes; a phase can
cover a whole run, so no estimator over the samples of one run removes
it.  So every timed op is bracketed by runs of a reference that calls no
gfkernel code: the op's wall time is divided by the mean of the two
reference times beside it and multiplied by the reference's nominal time.
A reported time is therefore the op's time at the host speed at which the
reference takes its nominal time, and a change to gfkernel moves it in the
same proportion as the op's wall time.

Two references, each of the same kind of work as the ops it brackets:

- ``loop_s``, a pure-Python float loop, for in-process ops;
- ``spawn_s``, a fresh ``python -c "import numpy"``, for whole processes
  (CLI calls and set-up), whose time is interpreter start and imports.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

# the fastest time of each reference on the host the bounds were set on
# (Xeon, 2.1 GHz, Python 3.11, numpy 2.4), so that reported times read as
# that host's quiet speed
LOOP_NOMINAL_S = 1.5e-4
SPAWN_NOMINAL_S = 0.105


def _loop() -> float:
    """Float series, calls into math: the interpreter work of the
    pure-Python kernels."""
    s = 0.0
    for n in range(60):
        x = 0.1 + 0.05 * n
        term = 1.0 / math.gamma(1.5)
        acc = term
        for k in range(1, 20):
            term *= -x * x / (4.0 * k * (k + 0.5))
            acc += term
        s += acc * math.exp(-x)
    return s


def loop_s() -> float:
    """Wall seconds of one run of the reference loop."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def spawn_s(env: dict, cwd: str) -> float:
    """Wall seconds of one ``python -c "import numpy"`` process."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, cwd=cwd, check=True,
                   timeout=60)
    return time.perf_counter() - t0


def factor(nominal: float, before: float, after: float) -> float:
    """What turns a wall time measured between two reference runs into a
    time at the nominal speed."""
    return nominal / (0.5 * (before + after))
