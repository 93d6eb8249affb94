#!/usr/bin/env python3
"""Related-work comparison: BuMP against the prefetchers and writeback schemes
it is positioned against in Sections II and VII.

Read side: next-line, stride, Stealth-style region prefetching, SMS and BuMP.
Write side: demand-only writeback, age-based eager writeback, VWQ, BuMP and
BuMP+VWQ (footnote 1).  For each mechanism the example reports coverage,
overfetch/extra traffic, DRAM row-buffer locality and predictor storage --
the axes on which the paper differentiates code-correlated bulk streaming
from its alternatives.  The two comparisons are the ``prefetchers`` and
``writeback`` entries of the result registry (:mod:`repro.analysis.figures`),
rendered with their checks.

Run it with::

    python examples/prior_work_comparison.py [--accesses 80000] [--workloads web_search,data_serving]
"""

from __future__ import annotations

import argparse

from repro.analysis.figures import FIGURES
from repro.analysis.reporting import format_nested_mapping, print_report
from repro.core.bump import BuMPPredictor
from repro.prefetch import (
    NextLinePrefetcher,
    SpatialMemoryStreaming,
    StealthPrefetcher,
    StridePrefetcher,
)
from repro.workloads.catalog import workload_names


def storage_table() -> str:
    """Predictor storage of each read-side mechanism (Section VII's axis)."""
    mechanisms = {
        "nextline": NextLinePrefetcher(),
        "stride": StridePrefetcher(),
        "sms": SpatialMemoryStreaming(),
        "stealth": StealthPrefetcher(),
        "bump": BuMPPredictor(),
    }
    rows = {
        name: {"storage_kib": mechanism.storage_bits() / 8 / 1024}
        for name, mechanism in mechanisms.items()
    }
    return format_nested_mapping(rows, "mechanism", value_format="{:.1f}",
                                 title="Predictor storage (KiB)",
                                 columns=["storage_kib"])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workloads", default="web_search,data_serving",
                        help="comma-separated workload subset")
    parser.add_argument("--accesses", type=int, default=80_000,
                        help="trace length per (workload, system) run")
    args = parser.parse_args()

    selected = [name.strip() for name in args.workloads.split(",") if name.strip()]
    unknown = [name for name in selected if name not in workload_names()]
    if unknown:
        raise SystemExit(f"unknown workloads: {unknown}")

    print_report(storage_table())
    for name in ("prefetchers", "writeback"):
        entry = FIGURES[name]
        result = entry.run(selected, args.accesses)
        print_report(entry.render(result))
        print_report(entry.validate(result).render())


if __name__ == "__main__":
    main()
