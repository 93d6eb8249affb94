"""The complete main-memory system: all channels behind one interface.

The system model pushes block transfers here; the memory system routes each
to the controller of its channel (per the active interleaving scheme), and at
the end of a simulation aggregates row-buffer statistics, per-kind traffic
counts, latency and bus-occupancy figures across channels.  The energy model
(:mod:`repro.energy.dram_energy`) consumes those aggregates.
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.addressing import BLOCK_BITS
from repro.common.params import DDR3Timing, DRAMOrganization
from repro.common.request import DRAMRequest, DRAMRequestKind
from repro.common.stats import StatGroup
from repro.dram.address_mapping import AddressMapping
from repro.dram.controller import MemoryController, PagePolicy


class MemorySystem:
    """All DDR3 channels of the simulated server."""

    def __init__(self, timing: DDR3Timing, org: DRAMOrganization,
                 mapping: AddressMapping, page_policy: PagePolicy = PagePolicy.OPEN,
                 window: int = 64, scheduler: str = "frfcfs",
                 fast_scheduler: bool = True,
                 record_completed: bool = True) -> None:
        self.timing = timing
        self.org = org
        self.mapping = mapping
        self.page_policy = page_policy
        self.scheduler = scheduler
        self.controllers = [
            MemoryController(channel, timing, org, mapping, page_policy, window,
                             scheduler=scheduler, fast_scheduler=fast_scheduler,
                             record_completed=record_completed)
            for channel in range(org.channels)
        ]
        # Block -> channel routing reduced to one shift and one mask, so the
        # per-request path never runs the full mapping arithmetic (the
        # controller derives the complete coordinates exactly once).
        self._channel_shift = BLOCK_BITS + mapping.column_low_bits
        self._channel_mask = org.channels - 1

    # ------------------------------------------------------------------ #
    # Request flow
    # ------------------------------------------------------------------ #
    def enqueue(self, request: DRAMRequest) -> None:
        """Route one block transfer to its channel's controller."""
        channel = (request.block_address >> self._channel_shift) & self._channel_mask
        self.controllers[channel].enqueue(request)

    def channel_of(self, block_address: int) -> int:
        """Channel index serving ``block_address`` under the active mapping."""
        return (block_address >> self._channel_shift) & self._channel_mask

    def drain(self) -> List[DRAMRequest]:
        """Complete all outstanding transfers; return them (all channels).

        The returned list holds only the transfers completed since the last
        drain (empty when the controllers do not record completions); the
        aggregate counters are unaffected either way.
        """
        completed: List[DRAMRequest] = []
        for controller in self.controllers:
            completed.extend(controller.drain())
        return completed

    def pending_count(self) -> int:
        """Number of queued-but-unserved transfers across all channels."""
        return sum(len(controller.queue) for controller in self.controllers)

    # ------------------------------------------------------------------ #
    # Aggregated metrics
    # ------------------------------------------------------------------ #
    def reset_counters(self) -> None:
        """Zero every measurement counter (architectural state is preserved)."""
        for controller in self.controllers:
            controller.reset_counters()

    def aggregate_stats(self) -> StatGroup:
        """Merge the per-channel statistics into one group."""
        merged = StatGroup("dram")
        for controller in self.controllers:
            merged.merge(controller.stats)
        return merged

    @property
    def row_hit_ratio(self) -> float:
        """Row-buffer hit ratio across every channel."""
        stats = self.aggregate_stats()
        return stats.ratio("row_hits", "accesses")

    @property
    def activations(self) -> int:
        """Total activations across every channel."""
        return sum(controller.activations for controller in self.controllers)

    @property
    def accesses(self) -> int:
        """Total column accesses (reads + writes) across every channel."""
        return int(self.aggregate_stats()["accesses"])

    @property
    def average_demand_read_latency(self) -> float:
        """Mean loaded demand-read latency in memory-bus cycles, across channels."""
        stats = self.aggregate_stats()
        return stats.ratio("demand_read_latency_cycles", "demand_reads")

    @property
    def average_demand_read_service(self) -> float:
        """Mean unloaded demand-read service latency in bus cycles, across channels."""
        stats = self.aggregate_stats()
        return stats.ratio("demand_read_service_cycles", "demand_reads")

    @property
    def bus_busy_cycles(self) -> float:
        """Total data-bus busy cycles summed across channels."""
        return self.aggregate_stats()["bus_busy_cycles"]

    @property
    def bandwidth_bound_cycles(self) -> float:
        """Bus cycles the busiest channel needs just to move all its data.

        No matter how well computation overlaps with memory, the run cannot
        finish before the busiest channel has streamed every transfer across
        its data bus.  This bound is what makes indiscriminate bulk streaming
        (Full-region) collapse once it oversubscribes the channels.
        """
        if not self.controllers:
            return 0.0
        return max(c.stats["bus_busy_cycles"] for c in self.controllers)

    @property
    def elapsed_cycles(self) -> float:
        """Cycle of the last completed transfer on the busiest channel."""
        if not self.controllers:
            return 0.0
        return max(c.last_completion_cycle for c in self.controllers)

    def traffic_by_kind(self) -> Dict[DRAMRequestKind, int]:
        """Number of transfers of each provenance kind."""
        stats = self.aggregate_stats()
        return {kind: int(stats[f"kind_{kind.value}"]) for kind in DRAMRequestKind}

    def channel_utilization(self, total_bus_cycles: float) -> float:
        """Average fraction of data-bus cycles in use over ``total_bus_cycles``."""
        if total_bus_cycles <= 0 or not self.controllers:
            return 0.0
        per_channel = [
            controller.stats["bus_busy_cycles"] / total_bus_cycles
            for controller in self.controllers
        ]
        return sum(per_channel) / len(per_channel)
