"""Interval-analysis timing model.

A drop-in alternative to :class:`repro.sim.timing.TimingModel` (a subclass
that overrides only the stall term, selected with
``SystemConfig.timing_model = "interval"``).  Instead of charging every
exposed load miss a fixed ``latency / MLP`` penalty, it derives the overlap
from the core's structure:

* the instructions-per-miss density of the measured run determines how many
  misses fall inside one ROB window;
* the :class:`repro.cpu.rob.ROBModel` turns that density into a sustainable
  memory-level parallelism (bounded by the miss-independence fraction and the
  L1 MSHRs);
* the ROB-fill time hides the first chunk of every blocking miss's latency.

Relative orderings between systems match the default model (both reward
configurations that convert demand misses into covered hits); the interval
model additionally captures that prefetch-rich runs with few remaining misses
cannot overlap them, which the timing-sensitivity ablation examines.
"""

from __future__ import annotations

from typing import Optional

from repro.common.params import SystemParams
from repro.cpu.rob import ROBModel
from repro.sim.timing import TimingModel


class IntervalTimingModel(TimingModel):
    """First-order interval-analysis replacement for the analytic timing model.

    ``independence`` is the fraction of off-chip misses independent of the
    previous miss; it must lie in ``(0, 1]`` (a zero fraction would deny
    even the blocking miss itself and is always a configuration mistake).
    ``mshr_entries`` is the structural cap on outstanding misses and must be
    at least 1.
    """

    def __init__(self, params: Optional[SystemParams] = None,
                 independence: float = 0.5, mshr_entries: int = 10) -> None:
        if not 0.0 < independence <= 1.0:
            raise ValueError(
                f"independence must be in (0, 1], got {independence!r}")
        if mshr_entries < 1:
            raise ValueError(
                f"mshr_entries must be at least 1, got {mshr_entries!r}")
        super().__init__(params)
        self.rob = ROBModel(core=self.params.core, independence=independence,
                            mshr_entries=mshr_entries)

    def stall_cycles(self, *, instructions: float, load_demand_misses: float,
                     covered_loads: float, llc_load_hits: float,
                     miss_latency: float) -> float:
        """Exposed stall cycles per core with ROB/MSHR-derived overlap."""
        params = self.params
        num_cores = params.num_cores

        per_core_instructions = instructions / num_cores
        per_core_misses = load_demand_misses / num_cores
        instructions_per_miss = (
            per_core_instructions / per_core_misses if per_core_misses > 0 else float("inf")
        )

        exposed_per_miss = self.rob.exposed_miss_latency(
            miss_latency, instructions_per_miss, base_cpi=params.core.base_cpi
        )

        onchip_penalty = params.noc_latency_cycles + params.llc.hit_latency_cycles
        onchip_mlp = self.rob.memory_level_parallelism(instructions_per_miss)

        return (
            load_demand_misses * exposed_per_miss
            + covered_loads * onchip_penalty / onchip_mlp
            + llc_load_hits * params.llc.hit_latency_cycles / onchip_mlp
        ) / num_cores
