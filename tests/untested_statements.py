"""List, per file, the statements of src/gfkernel/*.py that no Tier-1 test
executes.

Run from the repository root, with the pure-Python core:

    GFKERNEL_BACKEND=python PYTHONPATH=src python tests/untested_statements.py [pytest args]

It runs pytest in this process under a sys.settrace line tracer (standard
library only, so it needs no coverage package; it runs about four times
slower than an untraced run) and prints, for each module, the first line of
every statement none of whose lines ran, then the total.  A statement counts
when it compiles to code: a docstring or a bare ``pass`` of no code is
never listed.  Code run in other processes (the CLI subprocess checks and
the tv-sweep pool) is not seen, so its statements may be listed.  pytest
does not collect this file (its name does not match test_*.py).  The exit
status is pytest's.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gfkernel"


def _code_lines(code):
    """Every line the code object, or one nested in it, has instructions on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(source):
    """(first line, lines) of each statement: a compound statement's lines are
    its header's, up to its first body statement."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        end = node.end_lineno
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            children = getattr(node, field, None)
            if children:
                end = min(end, children[0].lineno - 1)
        out.append((node.lineno, range(node.lineno, max(end, node.lineno) + 1)))
    return out


def main(argv):
    ran = {str(path): set() for path in SRC.glob("*.py")}
    resolved = {}

    def line_tracer(hits):
        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local
        return local

    locals_ = {path: line_tracer(hits) for path, hits in ran.items()}

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        path = resolved.get(name)
        if path is None:
            path = resolved[name] = str(Path(name).resolve())
        local = locals_.get(path)
        if local is not None:
            ran[path].add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted(ran):
        source = Path(path).read_text()
        executable = _code_lines(compile(source, path, "exec"))
        missing = sorted(first for first, lines in _statements(source)
                         if executable.intersection(lines)
                         and not ran[path].intersection(lines))
        total += len(missing)
        rel = Path(path).relative_to(ROOT)
        print(f"{rel}: {len(missing)} not run" + (": " if missing else "")
              + ", ".join(map(str, missing)))
    print(f"total: {total} statements of src/gfkernel/*.py not run by these tests")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
