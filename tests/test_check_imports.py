"""``tools/check_imports.py``: the tree is clean, and it catches a planted
import and a planted private name."""

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


def test_a_planted_unread_private_name_is_reported_and_a_fixture_is_not(
        tmp_path, capsys):
    checker = _checker()
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("_PACKAGE_LIMIT = 3\n")
    (package / "planted.py").write_text(
        "import pytest\n"
        "_UNREAD = 1\n"
        "_LOADED, _UNPACKED = 2, 3\n"
        "_IMPORTED = 4\n"
        "_ATTRIBUTE: int = 5\n"
        "\n"
        "def _helper():\n"
        "    return _LOADED\n"
        "\n"
        "@pytest.fixture(autouse=True)\n"
        "def _fixture():\n"
        "    yield\n"
        "\n"
        "class _Unused:\n"
        "    pass\n")
    (package / "reader.py").write_text(
        "import pkg.planted\n"
        "from pkg.planted import _IMPORTED\n"
        "print(_IMPORTED, pkg.planted._ATTRIBUTE)\n")
    # A read outside the scanned directories keeps a name alive too.
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "from pkg.planted import _UNPACKED\n")
    assert checker.main(tmp_path) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[:-1] == [
        "src/pkg/__init__.py:1: _PACKAGE_LIMIT (private, never read)",
        "src/pkg/planted.py:2: _UNREAD (private, never read)",
        "src/pkg/planted.py:7: _helper (private, never read)",
        "src/pkg/planted.py:14: _Unused (private, never read)",
    ]
    assert "no unused import(s), 4 unread private name(s)" in out
