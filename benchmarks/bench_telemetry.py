"""Overhead gate for the telemetry layer.

Telemetry must be observational: with ``REPRO_TELEMETRY=full`` the simulator
records a per-chunk timeline plus span events, and the result must stay
bit-identical to an unobserved run while costing at most **5%** wall time.
This benchmark measures exactly that, on the two ends of the memory
behaviour spectrum:

* ``l1_resident`` -- a footprint that lives in the L1s, so the simulator's
  per-access work is minimal and any per-chunk telemetry cost is maximally
  visible;
* ``dram_resident`` -- every access walks the full hierarchy into DRAM,
  the paper's operating point.

Both traces are streamed at a deliberately small chunk size (8192 accesses)
so telemetry samples many times per run -- several times more often than the
default 65536-access streaming granularity -- making this a conservative
upper bound on the per-sample cost.

Each scenario runs :data:`PAIRS` pairs of one telemetry-off and one
full-telemetry simulation, alternating which of the two runs first, and
gates on the median of the per-pair ``full/off - 1`` ratios.  The two runs
of a pair sit next to each other in time, so slow drift in a shared
machine's load hits both; alternation cancels any first-run or second-run
bias; and the median ignores the pairs a burst of contention lands in.

Results are written as a JSON trajectory file (``BENCH_telemetry.json`` by
default) so CI can archive one point per commit.  Run directly::

    PYTHONPATH=src python benchmarks/bench_telemetry.py [--smoke]

The exit status is nonzero when any scenario exceeds the 5% overhead budget
or when a telemetry-on run is not bit-identical to telemetry-off -- both
enforced in CI on the smoke variant.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro import __version__
from repro.exec.campaign import result_fingerprint
from repro.sim.config import base_open, bump_system
from repro.sim.runner import run_trace
from repro.telemetry import TelemetryRecorder
from repro.trace.buffer import TraceBuffer

SEED = 42
CORES = 16
#: Streaming granularity under test -- 8x finer than the default chunk, so
#: the sampler fires 8x more often than production runs would see.
CHUNK = 8192
#: Full-mode overhead budget relative to off (the acceptance gate).
OVERHEAD_GATE = 0.05
#: Off/full run pairs per scenario, in smoke and full mode alike.
PAIRS = 9


def synthetic_trace(accesses: int, footprint_bytes_per_core: int,
                    store_fraction: float = 0.5, seed: int = 7) -> TraceBuffer:
    """A trace whose per-core working set has a controlled footprint."""
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


def _chunked(trace: TraceBuffer) -> list:
    """Slice a trace into CHUNK-sized streaming pieces."""
    return [trace[lo:lo + CHUNK] for lo in range(0, len(trace), CHUNK)]


def bench_scenario(name: str, trace: TraceBuffer, config, pairs: int) -> dict:
    """Time off/full run pairs of one trace; compare results and cost."""
    chunks = _chunked(trace)
    seconds = {"off": [], "full": []}
    digests = set()
    samples = 0
    events = 0
    for pair in range(pairs):
        for mode in (("off", "full") if pair % 2 == 0 else ("full", "off")):
            telemetry = TelemetryRecorder("full") if mode == "full" else "off"
            start = time.perf_counter()
            result = run_trace(chunks, config, warmup_fraction=0.5,
                               num_accesses=len(trace), telemetry=telemetry)
            seconds[mode].append(time.perf_counter() - start)
            digests.add(result_fingerprint(result))
            if mode == "full":
                samples = len(telemetry.timeline)
                events = len(telemetry.tracer.events) + samples

    ratios = [full / off - 1.0
              for off, full in zip(seconds["off"], seconds["full"])]
    overhead = float(np.median(ratios))
    identical = len(digests) == 1
    off_seconds = float(np.median(seconds["off"]))
    full_seconds = float(np.median(seconds["full"]))
    row = {
        "accesses": len(trace),
        "chunk_size": CHUNK,
        "config": config.name,
        "pairs": pairs,
        "off_seconds": off_seconds,
        "full_seconds": full_seconds,
        "pair_overheads": ratios,
        "overhead_fraction": overhead,
        "timeline_samples": samples,
        "event_log_entries": events,
        "results_identical": identical,
    }
    print(f"  {name}: median off {off_seconds:.3f}s, full {full_seconds:.3f}s; "
          f"median pair overhead {overhead:+.1%} "
          f"(pairs {min(ratios):+.1%}..{max(ratios):+.1%}), "
          f"{samples} samples, identical={identical}")
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="short traces for CI (seconds, not minutes)")
    parser.add_argument("--output", default="BENCH_telemetry.json",
                        help="trajectory JSON path")
    args = parser.parse_args(argv)

    accesses = 40_000 if args.smoke else 160_000

    print(f"telemetry overhead benchmark ({'smoke' if args.smoke else 'full'}),"
          f" {CORES} cores, chunk {CHUNK}")

    scenarios = {
        "l1_resident": bench_scenario(
            "l1_resident",
            synthetic_trace(accesses, 16 * 1024), base_open(), PAIRS),
        "dram_resident": bench_scenario(
            "dram_resident",
            synthetic_trace(accesses, 2 * 1024 * 1024), bump_system(),
            PAIRS),
    }

    payload = {
        "benchmark": "telemetry",
        "version": __version__,
        "mode": "smoke" if args.smoke else "full",
        "num_cores": CORES,
        "seed": SEED,
        "chunk_size": CHUNK,
        "overhead_gate": OVERHEAD_GATE,
        "pairs": PAIRS,
        "scenarios": scenarios,
    }
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")

    failures = []
    for name, row in scenarios.items():
        if not row["results_identical"]:
            failures.append(
                f"{name}: full-telemetry result differs from off "
                "(telemetry is no longer observational)")
        if row["overhead_fraction"] > OVERHEAD_GATE:
            failures.append(
                f"{name}: median full-mode overhead "
                f"{row['overhead_fraction']:+.1%} exceeds the "
                f"{OVERHEAD_GATE:.0%} budget")
        if row["timeline_samples"] < 2:
            failures.append(
                f"{name}: only {row['timeline_samples']} timeline sample(s) "
                "recorded -- the sampler is not firing per chunk")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
