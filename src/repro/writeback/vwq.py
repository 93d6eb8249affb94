"""Virtual Write Queue (VWQ) eager-writeback baseline.

On every dirty LLC eviction the engine probes the LLC for the neighbouring
cache blocks in the same DRAM row (the paper configures three adjacent
blocks, Section V.A) and asks the system to write back the dirty ones
eagerly, so that the memory controller sees them back-to-back and can serve
them from a single activation.

Two properties matter for the comparison with BuMP (Section II.C and V.G):

* VWQ only improves *write* row-buffer locality; reads keep the baseline's
  poor locality.
* It probes only a small neighbourhood around the evicted block (to bound
  extra LLC traffic), so even for writes it recovers only part of the
  region-level locality BuMP's dirty-region table exposes.
"""

from __future__ import annotations

from repro.common.addressing import BLOCK_SIZE, REGION_SIZE
from repro.common.stats import StatGroup
from repro.cache.agent import FLAG_DIRTY, LLCAgent


class VirtualWriteQueue(LLCAgent):
    """Eager writeback of adjacent dirty blocks on LLC dirty evictions."""

    name = "vwq"

    def __init__(self, lookahead_blocks: int = 3, region_size: int = REGION_SIZE) -> None:
        if lookahead_blocks < 1:
            raise ValueError("lookahead must cover at least one adjacent block")
        self.lookahead_blocks = lookahead_blocks
        self.region_size = region_size
        self.stats = StatGroup("vwq")

    def on_eviction(self, block: int, flags: int) -> None:
        """Request eager writebacks of the blocks adjacent to a dirty victim."""
        if not flags & FLAG_DIRTY:
            return

        self.stats.inc("dirty_evictions_seen")
        region_base = block - (block % self.region_size)
        region_limit = region_base + self.region_size
        writebacks = []
        for step in range(1, self.lookahead_blocks + 1):
            for candidate in (block + step * BLOCK_SIZE,
                              block - step * BLOCK_SIZE):
                if region_base <= candidate < region_limit:
                    writebacks.append(candidate)
        # Keep only the closest `lookahead_blocks` candidates so the engine
        # matches the paper's "three adjacent cache blocks" budget.
        writebacks = writebacks[: self.lookahead_blocks]
        self.writebacks.extend(writebacks)
        self.stats.inc("probes_issued", len(writebacks))

    def storage_bits(self) -> int:
        """VWQ proper reuses LLC state; its queue metadata is negligible."""
        return 1024 * 8
