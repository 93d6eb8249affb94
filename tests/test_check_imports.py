"""``tools/check_imports.py``: the tree is clean, and it catches a planted import."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _checker():
    spec = importlib.util.spec_from_file_location(
        "check_imports", ROOT / "tools" / "check_imports.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tree_is_clean_and_a_planted_unused_import_is_reported(
        tmp_path, capsys):
    checker = _checker()
    assert checker.main() == 0, capsys.readouterr().out
    capsys.readouterr()
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from os import sep\n")
    (package / "planted.py").write_text(
        "from __future__ import annotations\n"
        "import json\n"
        "import re  # noqa: kept for its side effect\n"
        "from typing import Dict, List, Optional\n"
        "__all__ = ['Optional']\n"
        "NAMES: \"List[str]\" = []\n")
    assert checker.main(tmp_path) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[:2] == ["src/pkg/planted.py:2: json",
                                    "src/pkg/planted.py:4: Dict"]
    assert "2 unused import(s)" in out
