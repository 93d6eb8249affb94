"""Throughput benchmark for the columnar streaming trace pipeline.

Measures the two stages of the trace pipeline:

* **Trace generation** -- the columnar engine (``generate_trace_buffer``:
  batched vector draws scattered straight into ``TraceBuffer`` columns).
* **End-to-end simulation** -- feeding the simulator one materialized
  ``TraceBuffer`` versus streaming generator chunks through the chunk loop
  (``run_workload``, which regenerates the trace inside the measured
  window).

The results are written as a JSON trajectory file
(``BENCH_trace_pipeline.json`` by default) so CI can archive one point per
commit.  Run directly::

    PYTHONPATH=src python benchmarks/bench_trace_pipeline.py [--smoke]

``--smoke`` shrinks every trace so the whole file finishes in seconds (used
by the CI workflow); the full run additionally demonstrates the
million-access path: generate, store and simulate 1,000,000 accesses without
ever materializing per-access Python objects.
"""

from __future__ import annotations

import argparse
import json
import resource
import tempfile
import time
from pathlib import Path

from repro import __version__
from repro.sim.config import base_open
from repro.sim.runner import run_trace, run_workload
from repro.trace.buffer import TraceBuffer
from repro.trace.io import load_trace_buffer, save_trace
from repro.workloads.catalog import get_workload
from repro.workloads.generator import generate_trace_buffer, iter_trace_chunks

WORKLOAD = "web_search"
SEED = 42
CORES = 16


def _max_rss_mib() -> float:
    """Peak resident set size of this process in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rate(accesses: int, seconds: float) -> float:
    return accesses / seconds if seconds > 0 else float("inf")


def bench_generation(spec, accesses: int) -> dict:
    """Columnar trace generation throughput."""
    start = time.perf_counter()
    buffer = generate_trace_buffer(spec, accesses, num_cores=CORES, seed=SEED)
    columnar_seconds = time.perf_counter() - start
    return {
        "accesses": accesses,
        "columnar_seconds": columnar_seconds,
        "columnar_accesses_per_second": _rate(len(buffer), columnar_seconds),
        "columnar_bytes_per_access": buffer.nbytes / max(len(buffer), 1),
    }


def bench_simulation(spec, accesses: int) -> dict:
    """Materialized-buffer versus chunk-streamed end-to-end simulation."""
    config = base_open()
    buffer = generate_trace_buffer(spec, accesses, num_cores=CORES, seed=SEED)

    start = time.perf_counter()
    run_trace(buffer, config, workload_name=spec.name, warmup_fraction=0.5)
    materialized_seconds = time.perf_counter() - start

    start = time.perf_counter()
    run_workload(spec, config, num_accesses=accesses, num_cores=CORES,
                 seed=SEED, warmup_fraction=0.5)
    streamed_seconds = time.perf_counter() - start

    materialized_rate = _rate(accesses, materialized_seconds)
    streamed_rate = _rate(accesses, streamed_seconds)
    return {
        "accesses": accesses,
        "materialized_seconds": materialized_seconds,
        "streamed_seconds": streamed_seconds,
        "materialized_accesses_per_second": materialized_rate,
        "streamed_accesses_per_second": streamed_rate,
        # Streaming regenerates the trace inside the measured window, so a
        # ratio near 1.0 means generation costs little next to simulation.
        "streamed_over_materialized": streamed_rate / materialized_rate,
    }


def bench_million(spec, accesses: int) -> dict:
    """Generate, store and simulate a long trace, memory-mapped from disk."""
    start = time.perf_counter()
    buffer = TraceBuffer.concat(
        list(iter_trace_chunks(spec, accesses, num_cores=CORES, seed=SEED)))
    generate_seconds = time.perf_counter() - start

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.npy"
        start = time.perf_counter()
        save_trace(buffer, path)
        save_seconds = time.perf_counter() - start
        file_bytes = path.stat().st_size
        start = time.perf_counter()
        mapped = load_trace_buffer(path, mmap=True)
        result = run_trace(mapped, base_open(), workload_name=spec.name,
                           warmup_fraction=0.5)
        simulate_seconds = time.perf_counter() - start

    return {
        "accesses": accesses,
        "generate_seconds": generate_seconds,
        "generate_accesses_per_second": _rate(accesses, generate_seconds),
        "save_seconds": save_seconds,
        "file_bytes": file_bytes,
        "simulate_seconds": simulate_seconds,
        "simulate_accesses_per_second": _rate(accesses, simulate_seconds),
        "row_buffer_hit_ratio": result.row_buffer_hit_ratio,
        "peak_rss_mib": _max_rss_mib(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny traces for CI (seconds, not minutes)")
    parser.add_argument("--output", default="BENCH_trace_pipeline.json",
                        help="trajectory JSON path")
    parser.add_argument("--workload", default=WORKLOAD)
    args = parser.parse_args(argv)

    spec = get_workload(args.workload)
    # Below ~50k accesses the fixed per-core layout setup dominates the
    # generation rate, so even the smoke tier measures a meaningful length.
    gen_accesses = 60_000 if args.smoke else 400_000
    sim_accesses = 8_000 if args.smoke else 60_000
    long_accesses = 0 if args.smoke else 1_000_000

    print(f"trace-pipeline benchmark ({'smoke' if args.smoke else 'full'}), "
          f"workload={spec.name}")
    generation = bench_generation(spec, gen_accesses)
    print(f"  generation: columnar "
          f"{generation['columnar_accesses_per_second']:,.0f} acc/s")
    simulation = bench_simulation(spec, sim_accesses)
    print(f"  simulation: materialized "
          f"{simulation['materialized_accesses_per_second']:,.0f} acc/s, "
          f"streamed {simulation['streamed_accesses_per_second']:,.0f} acc/s")

    payload = {
        "benchmark": "trace_pipeline",
        "version": __version__,
        "mode": "smoke" if args.smoke else "full",
        "workload": spec.name,
        "num_cores": CORES,
        "seed": SEED,
        "generation": generation,
        "simulation": simulation,
    }
    if long_accesses:
        payload["million_access"] = bench_million(spec, long_accesses)
        million = payload["million_access"]
        print(f"  {long_accesses:,} accesses: generated at "
              f"{million['generate_accesses_per_second']:,.0f} acc/s, "
              f"{million['file_bytes'] / 1e6:.0f}MB on disk, simulated at "
              f"{million['simulate_accesses_per_second']:,.0f} acc/s, "
              f"peak RSS {million['peak_rss_mib']:.0f}MiB")

    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
