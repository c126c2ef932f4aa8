"""A pytest plugin that fails the session when a src/valcert statement
never ran:

    PYTHONPATH=src:tests python -m pytest -q -p unreached

A statement is a line that the package's compiled code objects map
bytecode to (`co_lines`), so docstrings and comments do not count.  The
trace starts when the plugin loads, before any test imports valcert, and
follows threads; it makes a run 2.5 to 3.5 times slower.
"""
import importlib.util
import sys
import threading
import types
from pathlib import Path

import pytest

PACKAGE = Path(importlib.util.find_spec("valcert").submodule_search_locations[0])
ROOT = str(PACKAGE) + "/"
ran: set = set()  # (filename, line)
unreached: list = []


def _line(frame, event, arg):
    ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    if frame.f_code.co_filename.startswith(ROOT):
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return _line
    return None


def statements(path: Path) -> set:
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), str(path), "exec")
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        ran_here = {line for name, line in ran if name == str(path)}
        unreached.extend(f"{path.relative_to(PACKAGE.parent)}:{line}"
                         for line in sorted(statements(path) - ran_here))
    if unreached:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(f"unreached src/valcert statements: {len(unreached)}")
    for where in unreached:
        terminalreporter.write_line(f"  {where}")


sys.settrace(_call)
threading.settrace(_call)
