"""Static trace characterisation.

Everything here is computed from the access stream alone, without simulating
a cache hierarchy.  The statistics serve three purposes:

* sanity-checking generator output against the workload specification (tests
  assert store fractions, footprints and PC counts);
* giving examples and the CLI a cheap "what does this trace look like" report;
* providing an *upper bound* companion to the LLC-lifetime region density of
  Figure 5 -- :meth:`TraceStatistics.region_density_histogram` counts every
  block ever touched in a region, which is what the density would be with an
  infinite LLC.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.common.addressing import BLOCK_SIZE, REGION_SIZE
from repro.trace.buffer import TraceBuffer


@dataclass
class TraceStatistics:
    """Aggregate description of one access trace."""

    accesses: int = 0
    stores: int = 0
    instructions: int = 0
    #: Distinct 64-byte blocks touched.
    footprint_blocks: int = 0
    #: Distinct 1KB regions touched.
    footprint_regions: int = 0
    #: Distinct cores that issued at least one access.
    active_cores: int = 0
    #: Distinct program counters observed.
    distinct_pcs: int = 0
    #: accesses per core, keyed by core id.
    accesses_per_core: Dict[int, int] = field(default_factory=dict)
    #: accesses per PC (the code/data correlation BuMP exploits).
    accesses_per_pc: Dict[int, int] = field(default_factory=dict)
    #: number of distinct blocks touched per region, keyed by region number.
    blocks_per_region: Dict[int, int] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Derived metrics
    # ------------------------------------------------------------------ #
    @property
    def store_fraction(self) -> float:
        """Fraction of accesses that are stores."""
        if self.accesses == 0:
            return 0.0
        return self.stores / self.accesses

    @property
    def footprint_bytes(self) -> int:
        """Touched footprint in bytes (block granular)."""
        return self.footprint_blocks * BLOCK_SIZE

    @property
    def mean_instructions_per_access(self) -> float:
        """Average instructions between consecutive memory accesses."""
        if self.accesses == 0:
            return 0.0
        return self.instructions / self.accesses

    @property
    def mean_blocks_per_region(self) -> float:
        """Average number of distinct blocks touched per touched region."""
        if not self.blocks_per_region:
            return 0.0
        return sum(self.blocks_per_region.values()) / len(self.blocks_per_region)

    def hot_pcs(self, count: int = 10) -> List[int]:
        """The ``count`` most frequently observed program counters."""
        ranked = Counter(self.accesses_per_pc).most_common(count)
        return [pc for pc, _ in ranked]

    def pc_concentration(self, count: int = 10) -> float:
        """Fraction of accesses issued by the ``count`` hottest PCs.

        Server code exhibits strong code/data correlation: a handful of
        functions touch most of the data.  This is the property that lets
        BuMP's PC-indexed predictor stay small.
        """
        if self.accesses == 0:
            return 0.0
        ranked = Counter(self.accesses_per_pc).most_common(count)
        return sum(hits for _, hits in ranked) / self.accesses

    def region_density_histogram(self, region_blocks: int = REGION_SIZE // BLOCK_SIZE,
                                 thresholds: Sequence[float] = (0.25, 0.5)) -> Dict[str, float]:
        """Share of touched regions that are low/medium/high density.

        ``thresholds`` are the low/medium boundaries as fractions of the
        region's blocks (the paper uses <25% and 25-50%).  The denominator is
        the number of touched regions, so this is a *static* (infinite-cache)
        density; the LLC-lifetime density of Figure 5 is measured by
        :class:`repro.workloads.density.RegionDensityProfiler` instead.
        """
        low_limit, high_limit = thresholds
        counts = {"low": 0, "medium": 0, "high": 0}
        for blocks in self.blocks_per_region.values():
            fraction = blocks / region_blocks
            if fraction < low_limit:
                counts["low"] += 1
            elif fraction < high_limit:
                counts["medium"] += 1
            else:
                counts["high"] += 1
        total = sum(counts.values())
        if total == 0:
            return {key: 0.0 for key in counts}
        return {key: value / total for key, value in counts.items()}

    def summary(self) -> Dict[str, float]:
        """Compact dictionary used by the CLI and the examples."""
        return {
            "accesses": float(self.accesses),
            "store_fraction": self.store_fraction,
            "footprint_mib": self.footprint_bytes / (1024 * 1024),
            "regions_touched": float(self.footprint_regions),
            "mean_blocks_per_region": self.mean_blocks_per_region,
            "distinct_pcs": float(self.distinct_pcs),
            "pc_concentration_top10": self.pc_concentration(10),
            "active_cores": float(self.active_cores),
            "mean_instructions_per_access": self.mean_instructions_per_access,
        }


def characterize_trace(trace: TraceBuffer,
                       region_size: int = REGION_SIZE) -> TraceStatistics:
    """Compute :class:`TraceStatistics` over a trace in one vectorized pass.

    NumPy ``unique`` over the columns gives the footprint and the per-core,
    per-PC and per-region histograms.
    """
    stats = TraceStatistics()
    stats.accesses = len(trace)
    if stats.accesses == 0:
        return stats
    stats.stores = int(np.count_nonzero(trace.is_store))
    stats.instructions = trace.total_instructions

    # Distinct blocks per region: block ids are globally unique, so the
    # unique blocks alone identify the (region, block) pairs; counting how
    # many unique blocks land in each region gives the per-region density.
    unique_blocks = np.unique(trace.address // BLOCK_SIZE)
    stats.footprint_blocks = len(unique_blocks)
    block_regions = (unique_blocks * BLOCK_SIZE) // region_size
    region_ids, blocks_in_region = np.unique(block_regions, return_counts=True)
    stats.footprint_regions = len(region_ids)
    stats.blocks_per_region = dict(
        zip((int(r) for r in region_ids), (int(c) for c in blocks_in_region)))

    cores, core_counts = np.unique(trace.core, return_counts=True)
    stats.active_cores = len(cores)
    stats.accesses_per_core = dict(
        zip((int(c) for c in cores), (int(n) for n in core_counts)))

    pcs, pc_counts = np.unique(trace.pc, return_counts=True)
    stats.distinct_pcs = len(pcs)
    stats.accesses_per_pc = dict(
        zip((int(p) for p in pcs), (int(n) for n in pc_counts)))
    return stats
