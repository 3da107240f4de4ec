"""Fixtures shared by the test modules: the two builds of the scalar core.

The compiled core is ``src/gfkernel/_core.c``.  When no built
``gfkernel._core`` is importable, the ``c_core`` fixture compiles that file
with the benchmark's flags (plus -Wall -Wextra -Werror) into a temporary
directory, never into ``src/``, so the default backend stays as it is.

A build (``setup.py build``) copies ``src/gfkernel/*.py`` next to the
compiled core, and ``PYTHONPATH=<build lib>:src`` imports the whole package
from there.  The session stops at its start when any module there differs
from ``src/gfkernel/``, so no run tests an edit it does not import.
"""

import importlib.util
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

from gfkernel import _corepy

SRC = Path(__file__).resolve().parents[1] / "src" / "gfkernel"
CORE_C = SRC / "_core.c"


def pytest_sessionstart(session):
    """Stop when gfkernel is imported from a build whose modules are stale."""
    pkg = Path(_corepy.__file__).resolve().parent
    if pkg == SRC:
        return

    def content(path):
        return path.read_bytes() if path.is_file() else None

    names = {f.name for f in [*SRC.glob("*.py"), *pkg.glob("*.py")]}
    stale = sorted(n for n in names if content(SRC / n) != content(pkg / n))
    if stale:
        pytest.exit(f"gfkernel is imported from {pkg}, whose modules differ from {SRC}: "
                    f"{', '.join(stale)}; rebuild it (python setup.py build) before testing",
                    returncode=pytest.ExitCode.USAGE_ERROR)


@pytest.fixture(scope="session")
def c_core(tmp_path_factory):
    """The compiled core: an importable build, or _core.c compiled here."""
    try:
        from gfkernel import _core
        return _core
    except ImportError:
        pass
    include = sysconfig.get_paths()["include"]
    if shutil.which("gcc") is None or not Path(include, "Python.h").exists():
        pytest.skip("gcc or the Python headers are missing")
    target = tmp_path_factory.mktemp("core") / ("_core" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run(["gcc", "-shared", "-fPIC", "-O2", "-ffp-contract=off",
                    "-Wall", "-Wextra", "-Werror", "-I" + include, str(CORE_C),
                    "-o", str(target), "-lm"], check=True, timeout=120)
    spec = importlib.util.spec_from_file_location("gfkernel._core", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(params=["python", "c"])
def core(request):
    """Each build of the core in turn."""
    return _corepy if request.param == "python" else request.getfixturevalue("c_core")
