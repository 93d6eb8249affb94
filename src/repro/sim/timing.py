"""Analytic performance model.

The paper's headline performance result (Figure 10) comes from one channel:
bulk transfers fetch blocks before the cores demand them, so demand misses
that would have stalled the pipeline become LLC hits.  Conversely,
indiscriminate streaming (Full-region) saturates memory bandwidth and demand
latency explodes.  Both effects are captured with a simple, transparent
model:

* every committed instruction costs ``base_cpi`` cycles;
* every load-triggered demand LLC miss exposes the measured DRAM latency
  (plus LLC/NOC latency) divided by the core's memory-level parallelism;
* store misses and writebacks never stall (store buffers / background
  writebacks);
* covered misses (blocks found in the LLC because a prefetch or bulk read
  brought them in early) cost only the LLC hit latency;
* the whole run can never finish faster than the busiest memory channel:
  aggregate execution time is bounded below by the DRAM elapsed time, which
  is what punishes bandwidth oversaturation.

Absolute IPC values from this model are not meaningful; ratios between
configurations running the same trace are, and those are what Figure 10
reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.params import SystemParams


@dataclass
class TimingSummary:
    """Cycle accounting of one simulated run."""

    instructions: float
    base_cycles: float
    stall_cycles: float
    dram_bound_cycles: float
    cycles: float
    throughput_ipc: float
    elapsed_seconds: float

    @property
    def stall_fraction(self) -> float:
        """Fraction of execution time spent in exposed memory stalls."""
        if self.cycles <= 0:
            return 0.0
        return self.stall_cycles / self.cycles


class TimingModel:
    """Turns event counts and measured DRAM latencies into cycles and IPC.

    Subclasses change how much of each memory access's latency the core
    exposes by overriding :meth:`stall_cycles` only; the cycle count, the
    DRAM-bandwidth bound and the throughput are shared.
    """

    def __init__(self, params: Optional[SystemParams] = None) -> None:
        self.params = params if params is not None else SystemParams()

    def stall_cycles(self, *, instructions: float, load_demand_misses: float,
                     covered_loads: float, llc_load_hits: float,
                     miss_latency: float) -> float:
        """Exposed memory stall cycles per core.

        Every class of load overlaps at the core's fixed memory-level
        parallelism: demand misses pay ``miss_latency`` (NOC + LLC + DRAM),
        covered loads the NOC and LLC latency, LLC hits the LLC latency.
        """
        params = self.params
        memory_level_parallelism = params.core.memory_level_parallelism
        covered_penalty = params.noc_latency_cycles + params.llc.hit_latency_cycles
        hit_penalty = params.llc.hit_latency_cycles
        return (
            load_demand_misses * miss_latency / memory_level_parallelism
            + covered_loads * covered_penalty / memory_level_parallelism
            + llc_load_hits * hit_penalty / memory_level_parallelism
        ) / params.num_cores

    def summarize(self, *, instructions: float, load_demand_misses: float,
                  covered_loads: float, llc_load_hits: float,
                  average_dram_latency_bus_cycles: float,
                  dram_elapsed_bus_cycles: float) -> TimingSummary:
        """Compute the cycle count and throughput of one run.

        ``average_dram_latency_bus_cycles`` and ``dram_elapsed_bus_cycles``
        come from the memory system model; everything else is an event count
        from the system model.
        """
        params = self.params
        core = params.core
        to_core_cycles = params.core_cycles_per_dram_cycle

        base_cycles = instructions * core.base_cpi / params.num_cores
        miss_latency = (
            params.noc_latency_cycles
            + params.llc.hit_latency_cycles
            + average_dram_latency_bus_cycles * to_core_cycles
        )
        stall_cycles = self.stall_cycles(
            instructions=instructions, load_demand_misses=load_demand_misses,
            covered_loads=covered_loads, llc_load_hits=llc_load_hits,
            miss_latency=miss_latency)

        core_cycles = base_cycles + stall_cycles
        dram_bound_cycles = dram_elapsed_bus_cycles * to_core_cycles
        cycles = max(core_cycles, dram_bound_cycles)

        throughput = instructions / cycles if cycles > 0 else 0.0
        elapsed_seconds = cycles * core.cycle_time_ns * 1e-9
        return TimingSummary(
            instructions=instructions,
            base_cycles=base_cycles,
            stall_cycles=stall_cycles,
            dram_bound_cycles=dram_bound_cycles,
            cycles=cycles,
            throughput_ipc=throughput,
            elapsed_seconds=elapsed_seconds,
        )
