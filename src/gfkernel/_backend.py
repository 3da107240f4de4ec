"""Select the scalar-kernel backend at import time.

The compiled extension (gfkernel._core, built from _core.c) is preferred;
the pure-Python module gfkernel._corepy is the drop-in fallback.  Set
GFKERNEL_BACKEND=python to force the fallback, GFKERNEL_BACKEND=c to insist
on the extension (ImportError if it is missing).
"""

import os

_requested = os.environ.get("GFKERNEL_BACKEND", "").strip().lower()

if _requested in ("python", "pure", "py"):
    from . import _corepy as core
    BACKEND = "python"
elif _requested in ("c", "compiled", "ext"):
    from . import _core as core  # type: ignore[no-redef]
    BACKEND = "c"
else:
    try:
        from . import _core as core  # type: ignore[no-redef]
        BACKEND = "c"
    except ImportError:
        from . import _corepy as core
        BACKEND = "python"


def backend_name() -> str:
    """Name of the active scalar backend: 'c' or 'python'."""
    return BACKEND
