#!/usr/bin/env python3
"""Unused-import and unread-private-name check, run by the CI docs job.

Parses every Python file under ``src/``, ``tests/``, ``benchmarks/``,
``examples/`` and ``tools/`` with :mod:`ast` and reports two kinds of dead
name:

* each imported name the file never references, as ``path:line: name``.
  A reference is any name the code loads, a name listed in ``__all__``, or
  a name inside a string annotation (``x: "Dict[str, int]"``).  Three
  kinds of import are exempt: ``__init__.py`` files (their imports are the
  package's re-exports), ``from __future__`` imports and import lines
  marked ``# noqa``;
* each module-level name with one leading underscore (``_LIMIT``,
  ``_helper``) that no scanned file, nor ``perfbench/``, loads, imports or
  reads as an attribute, as ``path:line: name (private, never read)``.  A
  decorated function or class is exempt: its decorator registers it (an
  autouse pytest fixture, say).

No third-party dependencies; run from anywhere::

    python tools/check_imports.py

Exit status is zero when neither kind is found.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The directories scanned, relative to the repository root.
SCANNED = ("src", "tests", "benchmarks", "examples", "tools")
#: Directories whose reads keep a private name alive, though nothing in
#: them is reported.
READERS = SCANNED + ("perfbench",)


def python_files(root: Path, directories=SCANNED,
                 packages: bool = False) -> List[Path]:
    """Every ``.py`` file under ``directories`` of ``root``; ``__init__.py``
    files only when ``packages``."""
    return sorted(path for directory in directories
                  for path in (root / directory).rglob("*.py")
                  if packages or path.name != "__init__.py")


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


def _private_definitions(tree: ast.Module) -> Iterator[Tuple[int, str]]:
    """``(line, name)`` of each undecorated module-level private name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if not node.decorator_list:
                yield node.lineno, node.name
            continue
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield node.lineno, name.id


def _reads(tree: ast.AST) -> Set[str]:
    """Every name ``tree`` loads, imports by name or reads as an attribute."""
    read: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_private_names(root: Path) -> List[str]:
    """``path:line: name (private, never read)`` for every module-level
    name with one leading underscore that no file under :data:`READERS`
    reads."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in python_files(root, READERS, packages=True)}
    read = set().union(*map(_reads, trees.values()))
    return [f"{path.relative_to(root)}:{line}: {name} (private, never read)"
            for path, tree in trees.items()
            if path.relative_to(root).parts[0] in SCANNED
            for line, name in _private_definitions(tree)
            if name.startswith("_") and not name.startswith("__")
            and name not in read]


def main(root: Path = REPO_ROOT) -> int:
    files = python_files(root)
    found = [report for path in files for report in unused_imports(path, root)]
    unread = unread_private_names(root)
    for report in found + unread:
        print(report)
    print(f"checked {len(files)} file(s): "
          f"{len(found) or 'no'} unused import(s), "
          f"{len(unread) or 'no'} unread private name(s)")
    return 1 if found or unread else 0


if __name__ == "__main__":
    raise SystemExit(main())
