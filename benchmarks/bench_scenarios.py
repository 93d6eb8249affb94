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
  ``tenant-colocation`` under ``base_open`` and ``bump``.

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
from repro.fuzz.reference_dram import DRAMShadow
from repro.scenario import (
    generate_scenario_buffer,
    get_scenario,
    run_scenario,
    scenario_names,
)
from repro.sim.config import base_open, bump_system
from repro.sim.runner import DEFAULT_WARMUP_FRACTION
from repro.sim.system import ServerSystem
from repro.workloads.generator import generate_trace_buffer
from repro.workloads.catalog import get_workload

SEED = 42
#: Full-throughput gate: scenario compilation vs the single-workload
#: generator (the splice and intensity scaling should stay cheap).
MIN_COMPILE_RATIO = 0.25


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

    payload = {
        "benchmark": "scenarios",
        "version": __version__,
        "mode": "smoke" if args.smoke else "full",
        "seed": SEED,
        "compile": compile_rows,
        "single_workload_baseline": baseline,
        "streaming_sim": streaming,
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
