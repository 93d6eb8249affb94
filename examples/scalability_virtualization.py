#!/usr/bin/env python3
"""Section VI walkthrough: design scalability, virtualization and scheduling.

Three questions the paper answers in prose are reproduced quantitatively:

1. How does BuMP's storage grow with the CMP (cores, LLC capacity)?
2. What does workload consolidation (virtualization) do to the bulk history
   table, and does the per-core cost stay small?
3. Does BuMP still help when the memory controller uses a fairness-oriented
   scheduling policy instead of FR-FCFS?

The answers are the ``section6`` and ``scheduling`` entries of the result
registry (:mod:`repro.analysis.figures`), rendered with their checks.

Run it with::

    python examples/scalability_virtualization.py [--accesses 60000] [--workload web_search]
"""

from __future__ import annotations

import argparse

from repro.analysis.figures import FIGURES
from repro.analysis.reporting import print_report
from repro.workloads.catalog import workload_names


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="web_search", choices=workload_names())
    parser.add_argument("--accesses", type=int, default=60_000,
                        help="trace length for the scheduling-policy study")
    args = parser.parse_args()

    for name in ("section6", "scheduling"):
        entry = FIGURES[name]
        result = entry.run([args.workload], args.accesses)
        print_report(entry.render(result))
        print_report(entry.validate(result).render())


if __name__ == "__main__":
    main()
