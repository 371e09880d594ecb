"""List the statements of ``src/phantomnet`` that the test suite never runs.

Usage, from anywhere::

    python tools/line_trace.py [pytest arguments]

It runs pytest in this process (by default the Tier-1 command's
arguments, ``-q --continue-on-collection-errors``) under ``sys.settrace``,
recording the lines executed in files under ``src/phantomnet``, then
prints ``path:first-last: source`` for every statement that never ran,
found with ``ast``, and the modules that were never imported. Only the
standard library is used, so it needs no coverage package. Lines run in
child processes (the harness's process pool, the CLI subprocess tests)
are not seen; each of those code paths also runs in-process somewhere
in Tier-1. Exits with pytest's status when pytest could not complete the
run (2 or more), else 0.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "phantomnet"
DEFAULT_ARGS = ["-q", "--continue-on-collection-errors"]


def trace_lines(run):
    """Call ``run()`` while recording ``{filename: {line, ...}}`` for the
    frames whose code lives under PACKAGE; returns (run's result, lines)."""
    prefix = str(PACKAGE) + os.sep
    executed: dict[str, set[int]] = {}

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = executed.setdefault(filename, set())

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        lines.add(frame.f_lineno)
        return on_line

    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return result, executed


def statement_spans(tree: ast.Module):
    """(first, last) of each statement: the lines whose tracing shows it
    ran, which for a compound statement are its header's. Docstrings and
    ``global``/``nonlocal`` compile to no instruction and are left out."""
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.add(body[0])
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or node in docstrings
                or isinstance(node, (ast.Global, ast.Nonlocal))):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        if isinstance(body, list) and body:
            last = max(first, body[0].lineno - 1)
        else:
            last = node.end_lineno
        yield first, last


def never_ran(path: Path, lines: set[int]) -> list[tuple[int, int]]:
    """The spans of the statements in ``path`` with no line in ``lines``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted({(first, last) for first, last in statement_spans(tree)
                   if lines.isdisjoint(range(first, last + 1))})


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    status, executed = trace_lines(lambda: pytest.main(argv or DEFAULT_ARGS))

    statements = lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        name = path.relative_to(ROOT)
        if str(path) not in executed:
            print(f"{name}: never imported")
            continue
        source = path.read_text(encoding="utf-8").splitlines()
        for first, last in never_ran(path, executed[str(path)]):
            span = f"{first}-{last}" if last > first else f"{first}"
            print(f"{name}:{span}: {source[first - 1].strip()}")
            statements += 1
            lines += last - first + 1
    print(f"{statements} statements ({lines} lines) never ran")
    return int(status) if int(status) >= 2 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
