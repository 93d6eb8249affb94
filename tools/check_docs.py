#!/usr/bin/env python3
"""Documentation checks, run by the CI docs job.

Two checks over README.md and every Markdown file under ``docs/``:

1. **Intra-repo links** -- every ``[text](target)`` whose target is not an
   external URL or a pure anchor must resolve to an existing file or
   directory, relative to the file containing the link.
2. **Runnable examples** -- every fenced ``pycon`` code block is executed
   with :mod:`doctest`, so the documented interpreter transcripts cannot
   drift from the actual API.  (Plain ``python`` fences are prose
   illustrations and are not executed.)

and one over README.md alone:

3. **The CLI table** -- the subcommands its ``| `repro NAME ...` |`` rows
   list are exactly those ``repro.cli.build_parser()`` defines.

No third-party dependencies beyond the package's own; run from anywhere::

    PYTHONPATH=src python tools/check_docs.py

Exit status is zero when every link resolves, every doctest passes and the
CLI table matches the parser.
"""

from __future__ import annotations

import argparse
import doctest
import io
import re
import sys
from pathlib import Path
from typing import List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``[text](target)`` -- target captured up to the first whitespace or ')'.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: Fenced ``pycon`` blocks (the executable interpreter transcripts).
_PYCON_FENCE = re.compile(r"^```pycon\n(.*?)^```", re.DOTALL | re.MULTILINE)
#: Link targets that are not filesystem paths.
_EXTERNAL = ("http://", "https://", "mailto:")
#: A row of README.md's CLI table, ``| `repro NAME ...` | ... |``.
_CLI_ROW = re.compile(r"^\| `repro ([a-z][\w-]*)", re.MULTILINE)


def doc_files() -> List[Path]:
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("**/*.md")))
    return [path for path in files if path.exists()]


def check_links(path: Path, text: str) -> "Tuple[List[str], int]":
    """(errors, links checked) for every intra-repo link in ``text``."""
    errors = []
    checked = 0
    for match in _LINK.finditer(text):
        checked += 1
        target = match.group(1)
        if target.startswith(_EXTERNAL) or target.startswith("#"):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        resolved = (path.parent / relative).resolve()
        if not resolved.exists():
            line = text.count("\n", 0, match.start()) + 1
            errors.append(f"{path.relative_to(REPO_ROOT)}:{line}: "
                          f"broken link -> {target}")
    return errors, checked


def run_doctests(path: Path, text: str) -> "Tuple[List[str], int]":
    """(failure reports, blocks executed) for every ``pycon`` fence."""
    errors = []
    blocks = 0
    parser = doctest.DocTestParser()
    for index, match in enumerate(_PYCON_FENCE.finditer(text)):
        blocks += 1
        line = text.count("\n", 0, match.start()) + 1
        name = f"{path.relative_to(REPO_ROOT)}[pycon #{index + 1} @ line {line}]"
        test = parser.get_doctest(match.group(1), {}, name, str(path), line)
        if not test.examples:
            continue
        output = io.StringIO()
        runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
        runner.run(test, out=output.write)
        results = runner.summarize(verbose=False)
        if results.failed:
            errors.append(f"{name}: {results.failed} of "
                          f"{results.attempted} example(s) failed\n"
                          + output.getvalue().rstrip())
    return errors, blocks


def cli_subcommands() -> List[str]:
    """The subcommands ``repro.cli.build_parser()`` defines."""
    from repro.cli import build_parser

    actions = [action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction)]
    return sorted(actions[0].choices)


def check_cli_table(text: str, subcommands: List[str]) -> List[str]:
    """Errors for each subcommand the README table and the parser disagree on."""
    listed = set(_CLI_ROW.findall(text))
    return ([f"README.md: the CLI table lists `repro {name}`, which the parser "
             "does not define" for name in sorted(listed - set(subcommands))]
            + [f"README.md: the CLI table omits `repro {name}`"
               for name in sorted(set(subcommands) - listed)])


def main() -> int:
    files = doc_files()
    errors: List[str] = check_cli_table(
        (REPO_ROOT / "README.md").read_text(encoding="utf-8"), cli_subcommands())
    checked_links = 0
    checked_blocks = 0
    for path in files:
        text = path.read_text(encoding="utf-8")
        link_errors, links = check_links(path, text)
        errors.extend(link_errors)
        checked_links += links
        doctest_errors, blocks = run_doctests(path, text)
        errors.extend(doctest_errors)
        checked_blocks += blocks
    for error in errors:
        print(f"FAIL: {error}", file=sys.stderr)
    print(f"checked {len(files)} file(s), {checked_links} link(s), "
          f"{checked_blocks} pycon block(s), the CLI table: "
          f"{'FAILED' if errors else 'ok'}")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
