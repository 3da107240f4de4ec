"""Select the scalar-kernel backend at import time.

The compiled extension (gfkernel._core, built from _core.c) is preferred;
the pure-Python module gfkernel._corepy is the drop-in fallback.
GFKERNEL_BACKEND (trimmed, any case) takes two values: python forces the
fallback, c insists on the extension (ImportError if it is missing).  Unset
or empty, the extension is used when it is built.  Any other value raises
ImportError, so a misspelt name never selects a backend silently.
"""

import os

_requested = os.environ.get("GFKERNEL_BACKEND", "").strip().lower()

if _requested == "python":
    from . import _corepy as core
    BACKEND = "python"
elif _requested == "c":
    from . import _core as core  # type: ignore[no-redef]
    BACKEND = "c"
elif _requested:
    raise ImportError(f"GFKERNEL_BACKEND={_requested!r} is not a backend: "
                      "use 'python' or 'c', or leave it unset")
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
