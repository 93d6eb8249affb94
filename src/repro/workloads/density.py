"""Region access density characterisation (Section III, Figure 5, Table I).

The paper defines *region access density* as the fraction of a memory
region's cache blocks accessed between the first access to the region and the
first LLC eviction of one of its blocks.  This module provides an unlimited
(oracle) tracker of region lifetimes that the system model attaches to the
LLC when an experiment needs:

* the read/write density breakdown of Figure 5 (low <25%, medium 25-50%,
  high >=50% of the region's blocks);
* Table I -- the fraction of a high-density region's blocks that are modified
  only *after* its first dirty LLC eviction (which is what makes the first
  dirty eviction a safe trigger for bulk writebacks);
* the *Ideal* system of Figures 2 and 13 -- the row-buffer hit ratio a memory
  system would achieve if every DRAM access a region generates during one LLC
  lifetime were served from a single activation.

Unlike BuMP's RDTT, the profiler has unbounded capacity and never suffers
conflict terminations; it measures the application's behaviour, not a
hardware budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.common.addressing import BLOCK_SIZE, REGION_SIZE
from repro.common.stats import StatGroup
from repro.cache.agent import FLAG_DIRTY, LLCAgent

#: Density class boundaries from Figure 5 of the paper.
LOW_DENSITY_BOUND = 0.25
HIGH_DENSITY_BOUND = 0.50


def density_class(fraction: float) -> str:
    """Classify a density fraction as ``"low"``, ``"medium"`` or ``"high"``."""
    if fraction >= HIGH_DENSITY_BOUND:
        return "high"
    if fraction >= LOW_DENSITY_BOUND:
        return "medium"
    return "low"


class _RegionLifetime:
    """Tracking state of one region generation."""

    __slots__ = ("accessed", "modified", "reads", "writes", "terminated",
                 "terminated_by_dirty", "modified_after")

    def __init__(self) -> None:
        self.accessed = 0
        self.modified = 0
        self.reads = 0
        self.writes = 0
        self.terminated = False
        self.terminated_by_dirty = False
        self.modified_after = 0


@dataclass
class DensityReport:
    """Aggregated characterisation results for one simulation."""

    #: Fraction of DRAM reads falling into low/medium/high density regions.
    read_density: Dict[str, float] = field(default_factory=dict)
    #: Fraction of DRAM writes falling into low/medium/high density regions.
    write_density: Dict[str, float] = field(default_factory=dict)
    #: Table I: average fraction of a high-density modified region's blocks
    #: modified after its first dirty LLC eviction.
    late_write_fraction: float = 0.0
    #: Row-buffer hit ratio of the Ideal system (one activation per region
    #: lifetime for reads, one per writeback group for writes).
    ideal_row_hit_ratio: float = 0.0
    #: Raw counts (useful for debugging and tests).
    total_reads: int = 0
    total_writes: int = 0

    @property
    def high_density_access_fraction(self) -> float:
        """Fraction of all DRAM accesses that fall into high-density regions."""
        total = self.total_reads + self.total_writes
        if total == 0:
            return 0.0
        high = (self.read_density.get("high", 0.0) * self.total_reads
                + self.write_density.get("high", 0.0) * self.total_writes)
        return high / total


class RegionDensityProfiler(LLCAgent):
    """Oracle tracker of region lifetimes attached to the LLC."""

    name = "density_profiler"

    def __init__(self, region_size: int = REGION_SIZE) -> None:
        self.region_size = region_size
        self.blocks_per_region = region_size // BLOCK_SIZE
        self._lifetimes: Dict[int, _RegionLifetime] = {}
        self._finalized_read_counts = {"low": 0, "medium": 0, "high": 0}
        self._finalized_write_counts = {"low": 0, "medium": 0, "high": 0}
        self._late_write_numerator = 0.0
        self._late_write_regions = 0
        self._ideal_read_hits = 0
        self._ideal_write_hits = 0
        self._total_reads = 0
        self._total_writes = 0
        self.stats = StatGroup("density_profiler")

    # ------------------------------------------------------------------ #
    # Region helpers
    # ------------------------------------------------------------------ #
    def _region(self, block_address: int) -> int:
        return block_address // self.region_size

    def _offset_bit(self, block_address: int) -> int:
        return 1 << ((block_address % self.region_size) // BLOCK_SIZE)

    # ------------------------------------------------------------------ #
    # LLC streams
    # ------------------------------------------------------------------ #
    def on_access(self, core: int, pc: int, block: int, is_store: bool,
                  hit: bool) -> None:
        """Track a demand access; start a new lifetime after a termination."""
        region = self._region(block)
        bit = self._offset_bit(block)
        lifetime = self._lifetimes.get(region)

        if lifetime is None or (lifetime.terminated and not hit):
            if lifetime is not None:
                self._finalize(lifetime)
            lifetime = _RegionLifetime()
            self._lifetimes[region] = lifetime

        if lifetime.terminated:
            # The lifetime has ended but its blocks are still trickling out of
            # the LLC; record late modifications for the Table I measurement.
            if is_store:
                lifetime.modified_after |= bit
                lifetime.modified |= bit
            return

        lifetime.accessed |= bit
        if is_store:
            lifetime.modified |= bit
        if not hit:
            lifetime.reads += 1
            self._total_reads += 1

    def on_eviction(self, block: int, flags: int) -> None:
        """The first eviction of a block of an active region ends its lifetime."""
        region = self._region(block)
        lifetime = self._lifetimes.get(region)
        dirty = bool(flags & FLAG_DIRTY)
        if dirty:
            self._total_writes += 1
        if lifetime is None:
            return
        if dirty:
            lifetime.writes += 1
        if not lifetime.terminated:
            lifetime.terminated = True
            lifetime.terminated_by_dirty = dirty

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def _density_fraction(self, mask: int) -> float:
        return bin(mask).count("1") / self.blocks_per_region

    def _finalize(self, lifetime: _RegionLifetime) -> None:
        read_class = density_class(self._density_fraction(lifetime.accessed))
        self._finalized_read_counts[read_class] += lifetime.reads
        if lifetime.modified:
            write_class = density_class(self._density_fraction(lifetime.modified))
            self._finalized_write_counts[write_class] += lifetime.writes
            if (write_class == "high"
                    and self._density_fraction(lifetime.accessed) >= HIGH_DENSITY_BOUND):
                total_modified = bin(lifetime.modified).count("1")
                late = bin(lifetime.modified_after).count("1")
                if total_modified > 0:
                    self._late_write_numerator += late / total_modified
                    self._late_write_regions += 1
        if lifetime.reads > 0:
            self._ideal_read_hits += lifetime.reads - 1
        if lifetime.writes > 0:
            self._ideal_write_hits += lifetime.writes - 1

    def report(self) -> DensityReport:
        """Finalise every open lifetime and return the aggregated report."""
        for lifetime in self._lifetimes.values():
            self._finalize(lifetime)
        self._lifetimes.clear()

        report = DensityReport(total_reads=self._total_reads,
                               total_writes=self._total_writes)
        read_total = sum(self._finalized_read_counts.values())
        write_total = sum(self._finalized_write_counts.values())
        report.read_density = {
            key: (value / read_total if read_total else 0.0)
            for key, value in self._finalized_read_counts.items()
        }
        report.write_density = {
            key: (value / write_total if write_total else 0.0)
            for key, value in self._finalized_write_counts.items()
        }
        if self._late_write_regions:
            report.late_write_fraction = self._late_write_numerator / self._late_write_regions
        total_accesses = self._total_reads + self._total_writes
        if total_accesses:
            report.ideal_row_hit_ratio = (
                (self._ideal_read_hits + self._ideal_write_hits) / total_accesses
            )
        return report
