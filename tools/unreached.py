#!/usr/bin/env python3
"""List the functions of the `strathom` package that no benchmark command
enters.

    python3 tools/unreached.py [ROOT]

ROOT is a checkout holding `src/strathom` and `bench/workloads.py`
(default: this repository).  `import strathom.cli`, which every command
runs first, and then every command of the three workloads at seeds 1-3,
with and without `--json` (the runs that `tools/same_outputs.py`
compares), run in this process under `sys.setprofile`; only the import
and the commands are profiled, not the generation of their inputs.  Each
function and method of `src/strathom` that no command entered is printed
as `module.name:line` with its line count, decorators and docstring
included, and then the total.  A function nested in a listed one is not
listed again: its lines are part of the enclosing count.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

from same_outputs import workload_commands


def entered(root: Path) -> set[tuple[str, int]]:
    """(resolved file, first line) of every code object that a command
    entered."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.dont_write_bytecode = True  # no __pycache__ in the tree
    sys.path.insert(0, str(root / "src"))
    sys.setprofile(profile)
    try:
        import strathom.cli  # noqa: F401
    finally:
        sys.setprofile(None)
    for _workload, _inputs, _key, run in workload_commands(root):
        sys.setprofile(profile)
        try:
            run()
        finally:
            sys.setprofile(None)
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno)
            for c in codes}


def unreached(path: Path, seen: set[tuple[str, int]]
              ) -> list[tuple[str, int, int]]:
    """(qualified name, first line, line count) of each outermost function
    of the module at `path` that is not in `seen`.  A decorated function
    starts at its first decorator, as its code object does."""
    out = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                if (str(path), first) in seen:
                    visit(child, name + ".")
                else:
                    out.append((name, first, child.end_lineno - first + 1))
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        sys.stderr.write("usage: unreached.py [ROOT]\n")
        return 2
    root = (Path(argv[0]) if argv else Path(__file__).parent.parent).resolve()
    seen = entered(root)
    total = count = 0
    for path in sorted((root / "src" / "strathom").glob("*.py")):
        for name, first, lines in unreached(path.resolve(), seen):
            print(f"{path.stem}.{name}:{first} {lines}")
            total += lines
            count += 1
    print(f"total {total} lines in {count} functions no command enters")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
