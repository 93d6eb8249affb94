#!/usr/bin/env python3
"""Trace tooling walkthrough: generate, characterise, persist and capture.

The trace-driven methodology of this reproduction separates *what the cores
reference* (the workload trace) from *what the memory system does with it*
(the simulated configuration).  This example exercises the tooling around
that boundary:

1. generate a multi-core Web Serving trace and characterise it statically
   (footprint, read/write mix, code/data correlation, static region density);
2. save it to disk in two of the supported formats and verify the round trip;
3. slice it with column masks: one core's stream, the store-only stream, and
   a zero-copy window of the first tenth;
4. run it through the open-row baseline with an LLC trace recorder attached
   and compare the processor-side trace with the post-L1 stream the memory
   system (and BuMP) actually sees.

Run it with::

    python examples/trace_tools_demo.py [--accesses 40000] [--workload web_serving]
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

from repro.analysis.reporting import format_table, print_report
from repro.common.params import CacheParams, SystemParams
from repro.sim import base_open
from repro.sim.runner import build_trace, run_trace
from repro.trace import (
    LLCTraceRecorder,
    TraceBuffer,
    characterize_trace,
    load_trace_buffer,
    save_trace,
)
from repro.trace.buffer import TRACE_FIELDS
from repro.workloads.catalog import workload_names


def select(trace: TraceBuffer, mask) -> TraceBuffer:
    """The rows of ``trace`` where the boolean ``mask`` is set, in order."""
    return TraceBuffer(*(getattr(trace, name)[mask] for name in TRACE_FIELDS))


def characterisation_report(title: str, trace) -> None:
    """Print the static statistics of one trace."""
    stats = characterize_trace(trace)
    rows = [[key, f"{value:.4g}"] for key, value in stats.summary().items()]
    density = stats.region_density_histogram()
    rows += [[f"static region density: {bucket}", f"{share:.1%}"]
             for bucket, share in density.items()]
    print_report(f"\n== {title} ==")
    print_report(format_table(rows, headers=["metric", "value"]))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="web_serving", choices=workload_names())
    parser.add_argument("--accesses", type=int, default=40_000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    # 1. Generate and characterise the processor-side trace.
    trace = build_trace(args.workload, args.accesses, seed=args.seed)
    characterisation_report(f"{args.workload}: processor-side trace", trace)

    # 2. Persist it in both formats and confirm the round trip.
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = save_trace(trace, Path(tmp) / "trace.csv")
        npz_path = save_trace(trace, Path(tmp) / "trace.npz")
        sizes = [[path.name, f"{path.stat().st_size / 1024:.1f} KiB",
                  str(load_trace_buffer(path) == trace)]
                 for path in (csv_path, npz_path)]
        print_report("\n== on-disk formats ==")
        print_report(format_table(sizes, headers=["file", "size", "round-trips"]))

    # 3. Slice the trace: masks select rows, a slice is a zero-copy view.
    slices = {
        "core 0 only": select(trace, trace.core == 0),
        "stores only": select(trace, trace.is_store),
        "first tenth (view)": trace[:len(trace) // 10],
    }
    print_report("\n== slices ==")
    print_report(format_table(
        [[name, str(len(part)), f"{part.store_fraction:.1%}"]
         for name, part in slices.items()],
        headers=["slice", "accesses", "stores"]))

    # 4. Run the trace with a recorder attached and compare the two levels.
    small_llc = SystemParams().scaled(
        llc=CacheParams(size_bytes=1024 * 1024, associativity=16, hit_latency_cycles=8)
    )
    recorder = LLCTraceRecorder()
    result = run_trace(trace, base_open().with_overrides(system=small_llc),
                       warmup_fraction=0.0, extra_agents=[recorder])
    characterisation_report("post-L1 miss stream (what DRAM sees)",
                            recorder.miss_trace_buffer())
    print_report(format_table(
        [["LLC demand accesses", f"{len(recorder.accesses)}"],
         ["LLC miss ratio", f"{recorder.llc_miss_ratio:.1%}"],
         ["LLC evictions observed", f"{len(recorder.evictions)}"],
         ["DRAM row-buffer hit ratio", f"{result.row_buffer_hit_ratio:.1%}"]],
        headers=["simulated quantity", "value"]))


if __name__ == "__main__":
    main()
