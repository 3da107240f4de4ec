"""Build script: compiles the optional C accelerator for the scalar kernels.

The extension is an accelerator only.  It is compiled from the hand-written
C99 file ``src/gfkernel/_core.c``, which mirrors the hot kernels of the
pure-Python core (gfkernel._corepy) operation for operation, exports the
seven that Python calls per quadrature node or probes, and takes every
other function from _corepy itself.  Without a C
compiler the build falls through to the pure-Python core.  The two modules
expose identical functions and are selected at import time.
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Build the accelerator if possible, warn and continue otherwise."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, etc.
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(
            "WARNING: could not build the gfkernel._core accelerator "
            f"({exc!r}); falling back to the pure-Python core.",
            file=sys.stderr,
        )


setup(
    ext_modules=[
        Extension(
            "gfkernel._core",
            ["src/gfkernel/_core.c"],
            # the double-double primitives require exact IEEE rounding: no FMA
            # contraction, no fast-math
            extra_compile_args=["-ffp-contract=off"],
        )
    ],
    cmdclass={"build_ext": optional_build_ext},
)
