#!/usr/bin/env python3
"""Count the lines of the `strathom` package.

    python3 tools/loc.py [ROOT]

ROOT is a checkout holding `src/strathom` (default: this repository).  For
each module, and in total, it prints all lines and code lines.  Code lines
leave out blank lines, lines that hold only a `#` comment, and the
docstring lines of modules, classes and functions.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by every module, class and function
    docstring of `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(all lines, code lines) of one module."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    docs = _docstring_lines(ast.parse(text))
    code = sum(1 for k, line in enumerate(lines, 1)
               if line.strip() and not line.strip().startswith("#")
               and k not in docs)
    return len(lines), code


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    package = root / "src" / "strathom"
    total_all = total_code = 0
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for path in sorted(package.glob("*.py")):
        n_all, n_code = count(path)
        total_all += n_all
        total_code += n_code
        print(f"{path.stem:<16} {n_all:>6} {n_code:>6}")
    print(f"{'total':<16} {total_all:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
