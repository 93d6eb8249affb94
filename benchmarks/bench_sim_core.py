"""Throughput benchmark for the simulation core's cache-engine overhaul.

Measures ``ServerSystem.run`` end to end on the baseline configuration
(``base_open``) under two modes: the legacy dict-of-CacheLine engine
(``REPRO_CACHE_ENGINE=dict``), which preserves the pre-overhaul simulation
core (per-access object allocation, per-event StatGroup increments, window
scan FR-FCFS scheduling) as an honest baseline; and the flat-array engine
with its fused row loop (the default).  Results are bit-identical across
both modes (asserted here and by the parity suites); only the speed
differs.

Three end-to-end scenarios bracket the design space:

* ``l1_resident`` -- every core's working set fits its L1, so the run is
  dominated by the row loop + L1 hot path the overhaul de-abstracts.  It
  is a synthetic upper bound, not the common case: on the paper's six
  workloads and the six catalog scenarios only 11-20% of accesses hit the
  L1.  It is where the >= 3x acceptance target applies.
* ``llc_resident`` -- working sets overflow the L1s into the shared LLC,
  exercising the fused LLC probe/access path.
* ``paper_workload`` -- a synthetic paper workload (``web_search``), whose
  deliberately poor cache locality pushes most accesses through the DRAM
  model; the engines share most of that cost, so the ratio is smaller.
  ``paper_workload_bump`` runs the same trace under BuMP, so the parity gate
  also covers the LLC agent path (bulk reads, bulk writebacks, evictions
  nested inside agent-requested fills).

A fourth section benchmarks ``resident_blocks_in_region`` (the BuMP
bulk-writeback scan): the flat engine probes candidate sets directly
instead of issuing one ``lookup`` call per block offset.

The results are written as a JSON trajectory file (``BENCH_sim_core.json``
by default) so CI can archive one point per commit.  Run directly::

    PYTHONPATH=src python benchmarks/bench_sim_core.py [--smoke]

``--smoke`` shrinks every trace so the whole file finishes in seconds; CI
runs it and fails when the flat engine is not faster than the dict engine
or the engines diverge.  The full run additionally enforces the 3x
flat-over-dict target on ``l1_resident``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro import __version__
from repro.cache.engine import make_cache_array
from repro.common.params import CacheParams
from repro.exec.campaign import result_fingerprint
from repro.sim.config import base_open, bump_system
from repro.sim.runner import build_trace, run_trace
from repro.trace.buffer import TraceBuffer

SEED = 42
CORES = 16
WORKLOAD = "web_search"
ENGINES = ("dict", "flat")


def _rate(accesses: int, seconds: float) -> float:
    return accesses / seconds if seconds > 0 else float("inf")


def synthetic_trace(accesses: int, footprint_bytes_per_core: int,
                    store_fraction: float = 0.3, seed: int = 7) -> TraceBuffer:
    """A trace whose per-core working set has a controlled footprint.

    Each core references uniformly within its own private footprint, so the
    trace's residency level (L1 / LLC / DRAM) is set directly by
    ``footprint_bytes_per_core``.  Addresses are disjoint across cores.
    """
    rng = np.random.default_rng(seed)
    core = rng.integers(0, CORES, accesses).astype(np.int32)
    blocks_per_core = max(footprint_bytes_per_core // 64, 1)
    offsets = rng.integers(0, blocks_per_core, accesses).astype(np.uint64)
    address = (core.astype(np.uint64) << np.uint64(32)) | (offsets << np.uint64(6))
    pc = (rng.integers(0, 64, accesses).astype(np.uint64) << np.uint64(2)) \
        + np.uint64(0x400000)
    is_store = rng.random(accesses) < store_fraction
    instructions = rng.integers(1, 4, accesses).astype(np.int32)
    return TraceBuffer(core, pc, address, is_store, instructions)


#: (mode name, cache engine, DRAM engine) measured per scenario.  The dict
#: baseline preserves the pre-overhaul core *end to end* (object DRAM
#: engine); ``flat`` is the flat-array engine pair.  Results are
#: bit-identical across both.
MODES = (
    ("dict", "dict", "object"),
    ("flat", "flat", "flat"),
)


def bench_scenario(name: str, trace: TraceBuffer, repeats: int,
                   config=base_open) -> dict:
    """Run one trace under both modes; report rates, the ratio, parity."""
    accesses = len(trace)
    timings = {}
    results = {}
    for mode, engine, dram_engine in MODES:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            result = run_trace(trace, config(), warmup_fraction=0.5,
                               cache_engine=engine, dram_engine=dram_engine)
            best = min(best, time.perf_counter() - start)
        timings[mode] = best
        results[mode] = result
    fingerprints = {mode: result_fingerprint(results[mode])
                    for mode, _, _ in MODES}
    identical = len(set(fingerprints.values())) == 1
    counters = results["flat"].counters
    row = {
        "config": config().name,
        "accesses": accesses,
        "dict_seconds": timings["dict"],
        "flat_seconds": timings["flat"],
        "dict_accesses_per_second": _rate(accesses, timings["dict"]),
        "flat_accesses_per_second": _rate(accesses, timings["flat"]),
        "speedup": timings["dict"] / timings["flat"],
        "results_identical": identical,
        "l1_hit_fraction": (counters["l1_hits"] / counters["accesses"]
                            if counters["accesses"] else 0.0),
    }
    print(f"  {name}: dict {row['dict_accesses_per_second']:,.0f} acc/s, "
          f"flat {row['flat_accesses_per_second']:,.0f} acc/s "
          f"({row['speedup']:.2f}x, "
          f"L1 hit {row['l1_hit_fraction']:.0%}, identical={identical})")
    return row


def bench_region_scan(repeats: int) -> dict:
    """``dirty_blocks_in_region`` under both engines, small and large regions.

    This is the BuMP bulk-writeback scan.  Both engines now probe the
    candidate sets directly instead of issuing one ``lookup`` method call
    per block offset; the flat engine additionally reduces large regions to
    two vectorized gathers with no per-line object handling.
    """
    params = CacheParams(size_bytes=4 * 1024 * 1024, associativity=16)
    scattered = [int(block) & ~63
                 for block in np.random.default_rng(3).integers(0, 1 << 30, 4096)]
    row = {}
    for region_size in (1024, 8192):
        per_engine = {}
        for engine in ENGINES:
            cache = make_cache_array(params, engine=engine)
            # Populate with a mix of in-region (alternating dirty) and
            # scattered blocks -- the same fill sequence for both engines,
            # so the scans see equal state.
            for base in range(0, 64):
                region_base = base * region_size
                for index, offset in enumerate(range(0, region_size, 128)):
                    cache.fill(region_base + offset, dirty=index % 2 == 0)
            for block in scattered:
                cache.fill(block)
            scans = 2000 * repeats
            start = time.perf_counter()
            found = 0
            for i in range(scans):
                found += len(cache.dirty_blocks_in_region(
                    (i % 64) * region_size, region_size))
            elapsed = time.perf_counter() - start
            per_engine[engine] = {
                "scans_per_second": _rate(scans, elapsed),
                "blocks_found": found,
            }
        assert (per_engine["flat"]["blocks_found"]
                == per_engine["dict"]["blocks_found"])
        row[f"region_{region_size}B"] = {
            "dict_scans_per_second": per_engine["dict"]["scans_per_second"],
            "flat_scans_per_second": per_engine["flat"]["scans_per_second"],
            "speedup": (per_engine["flat"]["scans_per_second"]
                        / per_engine["dict"]["scans_per_second"]),
        }
        print(f"  dirty-region scan ({region_size}B): "
              f"dict {per_engine['dict']['scans_per_second']:,.0f}/s, "
              f"flat {per_engine['flat']['scans_per_second']:,.0f}/s "
              f"({row[f'region_{region_size}B']['speedup']:.2f}x)")
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny traces for CI (seconds, not minutes)")
    parser.add_argument("--output", default="BENCH_sim_core.json",
                        help="trajectory JSON path")
    args = parser.parse_args(argv)

    # Full-mode l1_resident runs long enough that the one-off cold-cache
    # ramp (shared by both modes) amortizes and the steady-state hot path
    # dominates -- that is the regime the 3x target is stated for.
    hot_accesses = 100_000 if args.smoke else 2_000_000
    llc_accesses = 30_000 if args.smoke else 120_000
    workload_accesses = 12_000 if args.smoke else 60_000
    repeats = 1 if args.smoke else 3

    print(f"sim-core benchmark ({'smoke' if args.smoke else 'full'}), "
          f"baseline config base_open (plus a BuMP row), {CORES} cores")
    paper_trace = build_trace(WORKLOAD, workload_accesses, num_cores=CORES,
                              seed=SEED)
    scenarios = {
        "l1_resident": bench_scenario(
            "l1_resident",
            synthetic_trace(hot_accesses, footprint_bytes_per_core=16 * 1024),
            repeats),
        "llc_resident": bench_scenario(
            "llc_resident",
            synthetic_trace(llc_accesses, footprint_bytes_per_core=192 * 1024),
            repeats),
        "paper_workload": bench_scenario("paper_workload", paper_trace, repeats),
        "paper_workload_bump": bench_scenario(
            "paper_workload_bump", paper_trace, repeats, config=bump_system),
    }
    region_scan = bench_region_scan(repeats)

    payload = {
        "benchmark": "sim_core",
        "version": __version__,
        "mode": "smoke" if args.smoke else "full",
        "baseline_config": "base_open",
        "num_cores": CORES,
        "seed": SEED,
        "engines": {
            "dict": "legacy dict-of-CacheLine core (window-scan FR-FCFS)",
            "flat": "flat-array cache and DRAM engines + fused row loop",
        },
        "scenarios": scenarios,
        "region_scan": region_scan,
    }
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")

    failures = []
    for name, row in scenarios.items():
        if not row["results_identical"]:
            failures.append(f"{name}: engines diverged (parity broken)")
        if row["speedup"] <= 1.0:
            failures.append(
                f"{name}: flat engine not faster than dict "
                f"({row['speedup']:.2f}x)")
    if not args.smoke and scenarios["l1_resident"]["speedup"] < 3.0:
        failures.append(
            f"l1_resident: hot-path speedup "
            f"{scenarios['l1_resident']['speedup']:.2f}x below the 3x target")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
