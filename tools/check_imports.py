#!/usr/bin/env python3
"""Unused-import check, run by the CI docs job.

Parses every Python file under ``src/``, ``tests/``, ``benchmarks/``,
``examples/`` and ``tools/`` with :mod:`ast` and reports each imported name
the file never references, as ``path:line: name``.  A reference is any
name the code loads, a name listed in ``__all__``, or a name inside a
string annotation (``x: "Dict[str, int]"``).  Three kinds of import are
exempt: ``__init__.py`` files (their imports are the package's
re-exports), ``from __future__`` imports and import lines marked
``# noqa``.

No third-party dependencies; run from anywhere::

    python tools/check_imports.py

Exit status is zero when no unused import is found.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The directories scanned, relative to the repository root.
SCANNED = ("src", "tests", "benchmarks", "examples", "tools")


def python_files(root: Path) -> List[Path]:
    """Every scanned ``.py`` file under ``root`` except ``__init__.py``."""
    return sorted(path for directory in SCANNED
                  for path in (root / directory).rglob("*.py")
                  if path.name != "__init__.py")


def _string_names(node: ast.AST) -> Iterator[str]:
    """Names inside the string parts of an annotation expression."""
    for part in ast.walk(node):
        if isinstance(part, ast.Constant) and isinstance(part.value, str):
            try:
                parsed = ast.parse(part.value, mode="eval")
            except SyntaxError:
                continue
            yield from (name.id for name in ast.walk(parsed)
                        if isinstance(name, ast.Name))


def _references(tree: ast.AST) -> Set[str]:
    """Every name ``tree`` loads, exports in ``__all__`` or annotates."""
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used.update(_string_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns:
            used.update(_string_names(node.returns))
        elif (isinstance(node, ast.Assign)
              and any(isinstance(target, ast.Name) and target.id == "__all__"
                      for target in node.targets)):
            used.update(element.value for element in ast.walk(node.value)
                        if isinstance(element, ast.Constant))
    return used


def unused_imports(path: Path, root: Path) -> List[str]:
    """``path:line: name`` (``path`` relative to ``root``) for every name
    ``path`` imports and never uses."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, str(path))
    lines = source.splitlines()
    used = _references(tree)
    found: List[Tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            line = getattr(alias, "lineno", node.lineno)
            if "# noqa" in lines[line - 1] or "# noqa" in lines[node.lineno - 1]:
                continue
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in used:
                found.append((line, name))
    return [f"{path.relative_to(root)}:{line}: {name}"
            for line, name in sorted(found)]


def main(root: Path = REPO_ROOT) -> int:
    files = python_files(root)
    found = [report for path in files for report in unused_imports(path, root)]
    for report in found:
        print(report)
    print(f"checked {len(files)} file(s): "
          f"{len(found) or 'no'} unused import(s)")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
