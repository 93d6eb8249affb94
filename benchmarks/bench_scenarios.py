"""Throughput and correctness trajectory for the scenario engine.

Measures the :mod:`repro.scenario` compiler and the streaming scenario
simulation path, and re-checks the two properties that make scenarios safe
to use for measurement:

* **compile throughput** -- accesses/second of
  :func:`~repro.scenario.compiler.iter_scenario_chunks` for every catalog
  scenario, and the ratio against the single-workload columnar generator
  (the scenario splice should cost little over the streams it merges);
* **determinism gate** -- for every catalog scenario, two compilations at
  different chunk sizes must be bit-identical (chunk-size invariance) and a
  different seed must change the trace;
* **parity gate** -- a streamed scenario run must agree, after every
  memory-system call, with the reference DRAM
  (:class:`~repro.fuzz.reference_dram.DRAMShadow`) running beside it;
* **streaming simulation** -- end-to-end accesses/second of
  ``tenant-colocation`` under ``base_open`` and ``bump``;
* **closed-loop gate** -- generation overhead of pulling a scenario
  through :class:`~repro.scenario.closed_loop.ClosedLoopSource` (with a
  synthetic feedback stream, so only controller cost is measured) versus
  draining the bare compiler, plus a run-to-run determinism check and the
  controller's equilibrium metrics on an end-to-end simulated run.  The
  full run enforces the overhead stays within ``MAX_CLOSED_LOOP_OVERHEAD``.

The results are written as a JSON trajectory file (``BENCH_scenarios.json``
by default) so CI can archive one point per commit.  Run directly::

    PYTHONPATH=src python benchmarks/bench_scenarios.py [--smoke]

``--smoke`` shrinks every scenario so the whole file finishes in seconds;
CI runs it and fails on any determinism or parity violation.  The full run
additionally enforces that scenario compilation reaches at least a quarter
of the single-workload generator's throughput.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro import __version__
from repro.exec.campaign import result_fingerprint
from repro.fuzz.reference_dram import DRAMShadow
from repro.scenario import (
    ClosedLoopSource,
    ClosedLoopSpec,
    generate_scenario_buffer,
    get_scenario,
    run_scenario,
    scenario_names,
)
from repro.scenario.compiler import iter_scenario_chunks
from repro.sim.config import base_open, bump_system
from repro.sim.runner import DEFAULT_WARMUP_FRACTION
from repro.sim.system import ServerSystem
from repro.trace.source import FeedbackSample
from repro.workloads.generator import generate_trace_buffer
from repro.workloads.catalog import get_workload

SEED = 42
#: Full-throughput gate: scenario compilation vs the single-workload
#: generator (the splice and intensity scaling should stay cheap).
MIN_COMPILE_RATIO = 0.25
#: Full-run gate: closed-loop trace production vs the bare compiler drain
#: (the controller adds clamping and one column rescale per chunk).
MAX_CLOSED_LOOP_OVERHEAD = 0.10


def _rate(accesses: int, seconds: float) -> float:
    return accesses / seconds if seconds > 0 else float("inf")


def bench_compile(name: str, scale: float, repeats: int) -> dict:
    """Compile one scenario; report throughput and the determinism gates."""
    scenario = get_scenario(name, scale=scale)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        buffer = generate_scenario_buffer(scenario, seed=SEED)
        best = min(best, time.perf_counter() - start)
    rechunked = generate_scenario_buffer(scenario, seed=SEED,
                                         chunk_size=max(len(buffer) // 7, 1))
    reseeded = generate_scenario_buffer(scenario, seed=SEED + 1)
    row = {
        "accesses": len(buffer),
        "phases": len(scenario.phases),
        "seconds": best,
        "accesses_per_second": _rate(len(buffer), best),
        "chunk_invariant": buffer == rechunked,
        "seed_sensitive": not (buffer == reseeded),
    }
    print(f"  compile {name}: {row['accesses_per_second']:,.0f} acc/s "
          f"({row['accesses']} accesses, {row['phases']} phase(s), "
          f"chunk_invariant={row['chunk_invariant']}, "
          f"seed_sensitive={row['seed_sensitive']})")
    return row


def bench_single_workload_baseline(accesses: int, repeats: int) -> dict:
    """Columnar single-workload generation, the compile-throughput yardstick."""
    spec = get_workload("web_search")
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        generate_trace_buffer(spec, accesses, num_cores=16, seed=SEED)
        best = min(best, time.perf_counter() - start)
    row = {"accesses": accesses, "seconds": best,
           "accesses_per_second": _rate(accesses, best)}
    print(f"  baseline single-workload generation: "
          f"{row['accesses_per_second']:,.0f} acc/s")
    return row


def bench_streaming_sim(scale: float, parity_scale: float) -> dict:
    """Streamed tenant-colocation under base vs BuMP, plus the parity gate."""
    scenario = get_scenario("tenant-colocation", scale=scale)
    rows = {}
    for config in (base_open(), bump_system()):
        start = time.perf_counter()
        result = run_scenario(scenario, config, seed=SEED)
        elapsed = time.perf_counter() - start
        rows[config.name] = {
            "seconds": elapsed,
            "accesses_per_second": _rate(scenario.total_accesses, elapsed),
            "row_buffer_hit_ratio": result.row_buffer_hit_ratio,
        }
        print(f"  sim tenant-colocation/{config.name}: "
              f"{rows[config.name]['accesses_per_second']:,.0f} acc/s, "
              f"row-hit {result.row_buffer_hit_ratio:.3f}")
    parity_scenario = get_scenario("antagonist-burst", scale=parity_scale)
    system = ServerSystem(base_open(), workload_name=parity_scenario.name)
    shadow = DRAMShadow(system)
    system.run(parity_scenario, warmup_accesses=int(
        parity_scenario.total_accesses * DEFAULT_WARMUP_FRACTION))
    identical = shadow.mismatch is None and shadow.calls > 0
    print(f"  reference DRAM parity (antagonist-burst): identical={identical}")
    return {
        "scenario": "tenant-colocation",
        "accesses": scenario.total_accesses,
        "configs": rows,
        "engine_parity_identical": identical,
    }


def _drain_open_loop(scenario, chunk_size: int) -> int:
    """Pull the bare compiler stream to exhaustion; the overhead yardstick."""
    total = 0
    for chunk in iter_scenario_chunks(scenario, seed=SEED,
                                      chunk_size=chunk_size):
        total += len(chunk)
    return total


def _drain_closed_loop(scenario, spec: ClosedLoopSpec, chunk_size: int):
    """Pull a ``ClosedLoopSource`` to exhaustion under synthetic feedback.

    The feedback stream advances deterministically with the pulled access
    count (about one read per three accesses at roughly target latency), so
    the controller updates at every boundary and the measurement isolates
    production-side cost -- no simulator in the loop.
    """
    source = ClosedLoopSource(scenario, spec, seed=SEED,
                              chunk_size=chunk_size)
    pulled = 0
    reads = 0
    latency = 0.0
    feedback = None
    while True:
        chunk = source.next_chunk(feedback)
        if chunk is None:
            return pulled, source
        pulled += len(chunk)
        reads += max(len(chunk) // 3, 1)
        latency += max(len(chunk) // 3, 1) * (spec.target_latency * 0.9)
        feedback = FeedbackSample(
            accesses=pulled, core_cycle=pulled * 4.0, demand_reads=reads,
            read_latency_cycles=latency, queue_depth=0, llc_misses=reads)


def bench_closed_loop(gen_scale: float, sim_scale: float,
                      repeats: int) -> dict:
    """Closed-loop production overhead, determinism and equilibrium."""
    spec = ClosedLoopSpec(target_latency=60.0, interval=1024, gain=0.5)
    scenario = get_scenario("diurnal-ramp", scale=gen_scale)
    # Chunk both drains at the control interval so the closed-loop path's
    # boundary clamping never shortens a pull: any timing gap left is pure
    # controller plus rescale cost.
    chunk_size = spec.interval
    open_best = float("inf")
    closed_best = float("inf")
    accesses = 0
    for _ in range(repeats):
        start = time.perf_counter()
        accesses = _drain_open_loop(scenario, chunk_size)
        open_best = min(open_best, time.perf_counter() - start)
    for _ in range(repeats):
        start = time.perf_counter()
        pulled, _ = _drain_closed_loop(scenario, spec, chunk_size)
        closed_best = min(closed_best, time.perf_counter() - start)
        assert pulled == accesses
    overhead = closed_best / open_best - 1.0 if open_best > 0 else 0.0

    sim_scenario = get_scenario("diurnal-ramp", scale=sim_scale)
    source = ClosedLoopSource(sim_scenario, spec, seed=SEED,
                              chunk_size=spec.interval)
    result = run_scenario(sim_scenario, base_open(), seed=SEED,
                          closed_loop=source)
    rerun = run_scenario(sim_scenario, base_open(), seed=SEED,
                         closed_loop=spec, chunk_size=spec.interval)
    deterministic = result_fingerprint(result) == result_fingerprint(rerun)
    reads = result.dram["demand_reads"]
    achieved = (result.dram["demand_read_latency_cycles"] / reads
                if reads else 0.0)
    row = {
        "accesses": accesses,
        "open_loop_seconds": open_best,
        "closed_loop_seconds": closed_best,
        "generation_overhead": overhead,
        "controller_updates": source.updates,
        "final_intensity": source.current_intensity,
        "target_latency": spec.target_latency,
        "achieved_read_latency": achieved,
        "deterministic": deterministic,
    }
    print(f"  closed-loop generation: {overhead * 100:+.1f}% vs open-loop "
          f"({accesses} accesses), {source.updates} update(s), "
          f"final intensity {source.current_intensity:.3f}, "
          f"latency {achieved:.1f} (target {spec.target_latency:.0f}), "
          f"deterministic={deterministic}")
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scenarios for CI (seconds, not minutes)")
    parser.add_argument("--output", default="BENCH_scenarios.json",
                        help="trajectory JSON path")
    args = parser.parse_args(argv)

    compile_scale = 0.01 if args.smoke else 0.25
    sim_scale = 0.004 if args.smoke else 0.05
    parity_scale = 0.002 if args.smoke else 0.01
    repeats = 1 if args.smoke else 3

    print(f"scenario benchmark ({'smoke' if args.smoke else 'full'}), "
          f"compile scale {compile_scale}, sim scale {sim_scale}")
    compile_rows = {name: bench_compile(name, compile_scale, repeats)
                    for name in scenario_names()}
    baseline = bench_single_workload_baseline(
        compile_rows["tenant-colocation"]["accesses"], repeats)
    streaming = bench_streaming_sim(sim_scale, parity_scale)
    closed_loop = bench_closed_loop(compile_scale, sim_scale, repeats)

    payload = {
        "benchmark": "scenarios",
        "version": __version__,
        "mode": "smoke" if args.smoke else "full",
        "seed": SEED,
        "compile": compile_rows,
        "single_workload_baseline": baseline,
        "streaming_sim": streaming,
        "closed_loop": closed_loop,
    }
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")

    failures = []
    for name, row in compile_rows.items():
        if not row["chunk_invariant"]:
            failures.append(f"{name}: chunking changed the trace")
        if not row["seed_sensitive"]:
            failures.append(f"{name}: reseeding did not change the trace")
    if not streaming["engine_parity_identical"]:
        failures.append("the memory system diverged from the reference DRAM "
                        "on a scenario trace")
    if not closed_loop["deterministic"]:
        failures.append("closed-loop rerun diverged from itself")
    if (not args.smoke
            and closed_loop["generation_overhead"] > MAX_CLOSED_LOOP_OVERHEAD):
        failures.append(
            f"closed-loop production at "
            f"{closed_loop['generation_overhead'] * 100:+.1f}% over the bare "
            f"compiler (target <= {MAX_CLOSED_LOOP_OVERHEAD * 100:.0f}%)")
    if not args.smoke:
        ratio = (min(row["accesses_per_second"]
                     for row in compile_rows.values())
                 / baseline["accesses_per_second"])
        if ratio < MIN_COMPILE_RATIO:
            failures.append(
                f"scenario compilation at {ratio:.2f}x of the single-workload "
                f"generator (target >= {MIN_COMPILE_RATIO}x)")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
