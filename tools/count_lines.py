"""Count the lines and the code lines of each module of the library.

Usage, from the root of this checkout::

    python3 tools/count_lines.py [PACKAGE_DIR]

Prints one line per module of ``PACKAGE_DIR`` (default: this checkout's
``src/toposqt``), in name order, and then their sum::

    <module>.py: <n> lines, <m> code lines
    total: <n> lines, <m> code lines

A code line is any line that is not blank, not a comment (its first
non-blank character is ``#``) and not part of a docstring: the string that
opens a module, class or function body, from its first line to its last.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toposqt"


def _docstring_lines(tree: ast.Module) -> set[int]:
    # The line numbers, from 1, of every docstring in the module.
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """The lines of one module and its code lines."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    docstrings = _docstring_lines(ast.parse(text))
    code = sum(1 for number, line in enumerate(lines, 1)
               if line.strip() and not line.lstrip().startswith("#") and number not in docstrings)
    return len(lines), code


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    package = Path(args[0]) if args else PACKAGE
    total = code = 0
    for path in sorted(package.glob("*.py")):
        lines, own = count(path)
        total, code = total + lines, code + own
        print(f"{path.name}: {lines} lines, {own} code lines")
    print(f"total: {total} lines, {code} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
