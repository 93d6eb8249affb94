#!/usr/bin/env python3
"""Regenerate every result the reproduction defines in one run.

This is the command-line face of :mod:`repro.analysis.figures`: it
precomputes every simulation the registry's entries read (the paper's
figures and tables, the ablation studies; the Section VI storage tables
simulate nothing), then prints each entry with the paper's values and its
shape-check table.  The checks are reported, not enforced; the benchmark
harness (``python -m pytest benchmarks/ --benchmark-only``) runs the same
registry and fails on them.  This script is for interactive use and for
producing a standalone report file::

    python examples/run_all_experiments.py --accesses 240000 | tee report.txt

Use ``--accesses`` to trade fidelity for runtime (values below ~150000 leave
the paper-sized 4MB LLC only partially warmed) and ``--workloads`` to
restrict the set.  ``--workers N`` fans the simulations out across N
processes through the campaign engine before any entry is printed, and
``--store DIR`` persists every simulation in an on-disk artifact store so
re-runs (or a crashed run restarted) only simulate what is missing.
"""

from __future__ import annotations

import argparse

from repro.analysis import experiments
from repro.analysis.figures import FIGURES, precompute
from repro.analysis.reporting import print_report
from repro.exec.progress import ConsoleProgress
from repro.exec.store import ArtifactStore
from repro.workloads.catalog import workload_names


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--accesses", type=int, default=experiments.DEFAULT_ACCESSES)
    parser.add_argument("--workloads", default=",".join(workload_names()))
    parser.add_argument("--skip-design-space", action="store_true",
                        help="skip the Figure 11 sweep (the slowest experiment)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the simulations")
    parser.add_argument("--store", default="",
                        help="artifact store directory (resumable re-runs)")
    args = parser.parse_args()
    selected = [name.strip() for name in args.workloads.split(",") if name.strip()]
    unknown = [name for name in selected if name not in workload_names()]
    if unknown:
        parser.error(f"unknown workloads: {unknown}; known: {workload_names()}")
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    entries = [figure for figure in FIGURES.values()
               if not (args.skip_design_space and figure.name == "figure11")]

    # Every simulation the report needs runs here, one campaign per trace
    # length (in parallel when --workers > 1, satisfied from the store when
    # present); the entries below then only aggregate.
    store = ArtifactStore(args.store) if args.store else None
    campaigns = precompute(entries, selected, args.accesses, workers=args.workers,
                           store=store, progress=ConsoleProgress())
    for length, outcome in campaigns.items():
        print_report(
            f"Campaign at {length} accesses: {len(outcome)} runs, "
            f"{outcome.simulated_count} simulated, {outcome.cached_count} from "
            f"store, {outcome.elapsed_seconds:.1f}s")

    for figure in entries:
        result = figure.run(selected, args.accesses)
        print_report(figure.render(result))
        # Reported, not gated: short traces leave the LLC cold and some
        # checks fail there (see repro.analysis.figures).
        print_report(figure.validate(result).render())


if __name__ == "__main__":
    main()
