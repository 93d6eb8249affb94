"""Stealth-prefetching-style region prefetcher (Cantin, Lipasti & Smith).

The related-work comparison point of Section VII: a scheme that keeps
*address-indexed* metadata about coarse regions and fetches the rest of a
region only after a configurable number of its blocks have been touched.
Compared with BuMP it differs in exactly the two ways the paper calls out:

* it correlates with **addresses** rather than code, so its tables must cover
  the (enormous) region working set of a server application rather than the
  handful of triggering instructions, which is why its storage requirement is
  two orders of magnitude larger for the same reach;
* it waits for ``trigger_count`` accesses to a region before streaming it, so
  the first ``trigger_count`` blocks of every region are always demand misses
  and the activation they could have shared is already spent.

The implementation keeps a bounded region table (default sized to match the
hundreds-of-kilobytes-per-core budget the original proposal assumes, but
configurable down to BuMP-comparable sizes for the ablation benchmark) whose
entries remember the footprint observed during the region's previous
generation; once the current generation reaches the trigger count, the blocks
of the remembered footprint (or the whole region, if no history exists) are
fetched.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.addressing import BLOCK_SIZE, REGION_SIZE
from repro.common.assoc_table import AssociativeTable
from repro.common.stats import StatGroup
from repro.cache.agent import LLCAgent


@dataclass
class _RegionHistory:
    """Per-region metadata: last generation's footprint and the live one."""

    #: Footprint observed during the previous generation (bit per block).
    learned_pattern: int = 0
    #: Footprint of the generation currently being observed.
    live_pattern: int = 0
    #: Demand accesses observed in the current generation.
    live_accesses: int = 0
    #: Whether the current generation already triggered a bulk fetch.
    streamed: bool = False


class StealthPrefetcher(LLCAgent):
    """Address-correlated region prefetcher with an access-count trigger."""

    name = "stealth"

    def __init__(self, trigger_count: int = 4, entries: int = 32768,
                 associativity: int = 16, region_size: int = REGION_SIZE) -> None:
        if trigger_count < 1:
            raise ValueError("trigger count must be at least 1")
        if region_size % BLOCK_SIZE != 0:
            raise ValueError("region size must be a whole number of blocks")
        self.trigger_count = trigger_count
        self.region_size = region_size
        self.blocks_per_region = region_size // BLOCK_SIZE
        self.table: AssociativeTable[int, _RegionHistory] = AssociativeTable(
            entries, associativity, name="stealth_regions"
        )
        self.stats = StatGroup("stealth")

    # ------------------------------------------------------------------ #
    # Address helpers
    # ------------------------------------------------------------------ #
    def _region(self, block_address: int) -> int:
        return block_address // self.region_size

    def _offset(self, block_address: int) -> int:
        return (block_address % self.region_size) // BLOCK_SIZE

    def _region_blocks(self, region: int, pattern: int, exclude: int) -> list:
        base = region * self.region_size
        blocks = []
        for index in range(self.blocks_per_region):
            if pattern & (1 << index):
                block = base + index * BLOCK_SIZE
                if block != exclude:
                    blocks.append(block)
        return blocks

    # ------------------------------------------------------------------ #
    # LLC streams
    # ------------------------------------------------------------------ #
    def on_access(self, core: int, pc: int, block: int, is_store: bool,
                  hit: bool) -> None:
        """Track the live footprint and stream once the trigger count is hit."""
        region = self._region(block)
        offset = self._offset(block)

        history = self.table.lookup(region)
        if history is None:
            history = _RegionHistory()
            victim = self.table.insert(region, history)
            if victim is not None:
                self.stats.inc("table_conflicts")
        bit = 1 << offset
        if not history.live_pattern & bit:
            history.live_accesses += 1
        history.live_pattern |= bit

        if history.streamed or history.live_accesses < self.trigger_count:
            return

        history.streamed = True
        pattern = history.learned_pattern
        if pattern == 0:
            # No previous generation: fetch the whole region.
            pattern = (1 << self.blocks_per_region) - 1
        fetch = self._region_blocks(region, pattern & ~history.live_pattern,
                                    exclude=block)
        self.fetches.extend(fetch)
        self.stats.inc("streams_triggered")
        self.stats.inc("blocks_requested", len(fetch))

    def on_eviction(self, block: int, flags: int) -> None:
        """Close the region's generation when one of its blocks is evicted."""
        region = self._region(block)
        history = self.table.lookup(region, touch=False)
        if history is None or history.live_pattern == 0:
            return
        history.learned_pattern = history.live_pattern
        history.live_pattern = 0
        history.live_accesses = 0
        history.streamed = False
        self.stats.inc("generations_closed")

    # ------------------------------------------------------------------ #
    # Overheads
    # ------------------------------------------------------------------ #
    def storage_bits(self) -> int:
        """Region tag plus two footprints plus a counter per entry.

        At the default 32K-entry sizing this is several hundred kilobytes --
        the storage disadvantage versus BuMP that Section VII highlights.
        """
        tag_bits = 30
        per_entry = tag_bits + 2 * self.blocks_per_region + 5 + 1
        return self.table.entries * per_entry
