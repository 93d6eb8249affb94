"""``tools/check_docs.py``: README.md's CLI table names exactly the parser's
subcommands, and a table that drifts either way is reported."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", ROOT / "tools" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_readme_cli_table_matches_the_parser():
    checker = _checker()
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    subcommands = checker.cli_subcommands()
    assert {"experiment", "fuzz", "report"} <= set(subcommands)
    assert checker.check_cli_table(readme, subcommands) == []


def test_a_table_that_drifts_either_way_is_reported():
    checker = _checker()
    table = ("| Subcommand | Purpose |\n| --- | --- |\n"
             "| `repro run <workload>` | one run |\n"
             "| `repro scaling` | retired |\n")
    assert checker.check_cli_table(table, ["fuzz", "run"]) == [
        "README.md: the CLI table lists `repro scaling`, which the parser "
        "does not define",
        "README.md: the CLI table omits `repro fuzz`",
    ]
