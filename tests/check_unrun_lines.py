"""Print every statement inside a `src/dwdropin` function that tier-1 never runs.

Runs the tier-1 suite (`pytest tests`) in this process under a
`sys.settrace` hook, set for every thread the suite starts too
(`threading.settrace`), that traces only frames of the package's modules, then
prints `file:line: source` for each statement of a function or method
body (docstrings aside) that no test ran: a simple statement counts as
run if any of its lines ran, a compound one (`if`, `for`, `while`,
`with`) by its header, and `try` by what it holds. Only the standard
library and pytest are needed, not `coverage`. It is not a `test_*` file,
so pytest does not collect it:

    python tests/check_unrun_lines.py

It exits 1 if any statement is unrun or the suite fails. Code run only in
a subprocess (`python -m dwdropin.cli`, the demos) is not seen. On a
2-core x86-64 host it takes about a minute.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dwdropin"
# this process imports the package from here, and so do the suite's subprocesses
sys.path.insert(0, str(PACKAGE.parent))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)

COMPOUND = (ast.If, ast.For, ast.While, ast.With)
BLOCKS = ("body", "orelse", "handlers", "finalbody")


def statements(body: list):
    """(first line, last line) of each statement in `body` and the blocks
    it holds: a compound statement's header lines, a simple one's every
    line. Definitions are left out; `function_statements` reaches their
    bodies."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, COMPOUND):
            yield node.lineno, max(node.lineno, node.body[0].lineno - 1)
        elif not isinstance(node, ast.Try):
            yield node.lineno, node.end_lineno
        for block in BLOCKS:
            for child in getattr(node, block, []):
                yield from statements(child.body if isinstance(child, ast.ExceptHandler)
                                      else [child])


def function_statements(tree: ast.Module):
    """Line spans of every statement inside a function body, docstrings aside."""
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            body = fn.body
            if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                body = body[1:]
            yield from statements(body)


def main() -> int:
    prefix = str(PACKAGE) + "/"
    ran: set = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        threading.settrace(None)
        sys.settrace(None)
    unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        spans = sorted(set(function_statements(ast.parse("\n".join(lines)))))
        for first, last in spans:
            if not any((str(path), line) in ran for line in range(first, last + 1)):
                unrun += 1
                print(f"{path.name}:{first}: {lines[first - 1].strip()}")
    print(f"{unrun} unrun statements; pytest exit {int(code)}")
    return 1 if unrun or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
