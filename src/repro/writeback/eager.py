"""Classic eager writeback (Lee, Tyson & Farrens, MICRO 2000).

The original eager-writeback proposal cleans dirty blocks *before* they reach
the eviction point so the write traffic is off the critical path and spread
over idle bus slots.  The hardware tracks dirty lines approaching the LRU
position; this agent-level model approximates that with a bounded FIFO of
dirty blocks observed at the LLC: once the FIFO holds more than
``pending_limit`` candidates, the oldest ones are eagerly written back (the
system model only issues a DRAM write if the block is still resident and
dirty, so stale candidates cost nothing).

It differs from VWQ (:mod:`repro.writeback.vwq`) in that it has no notion of
spatial adjacency -- it cleans *old* dirty blocks, not *neighbouring* ones --
so it recovers write bandwidth headroom but almost no row-buffer locality.
The writeback-mechanism ablation benchmark quantifies exactly that gap.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.common.stats import StatGroup
from repro.cache.agent import LLCAgent


class EagerWriteback(LLCAgent):
    """Age-based eager writeback of dirty LLC blocks."""

    name = "eager_writeback"

    def __init__(self, pending_limit: int = 512, drain_batch: int = 4) -> None:
        if pending_limit < 1:
            raise ValueError("pending limit must be positive")
        if drain_batch < 1:
            raise ValueError("drain batch must be positive")
        self.pending_limit = pending_limit
        self.drain_batch = drain_batch
        #: Dirty blocks in the order they became dirty (oldest first).
        self._dirty: "OrderedDict[int, None]" = OrderedDict()
        self.stats = StatGroup("eager_writeback")

    # ------------------------------------------------------------------ #
    # LLC streams
    # ------------------------------------------------------------------ #
    def on_access(self, core: int, pc: int, block: int, is_store: bool,
                  hit: bool) -> None:
        """Record stores as new dirty blocks; drain the oldest past the limit."""
        if is_store:
            # Re-dirtied blocks move to the young end of the queue.
            self._dirty.pop(block, None)
            self._dirty[block] = None
            self.stats.inc("dirty_blocks_tracked")

        drained = 0
        while len(self._dirty) > self.pending_limit and drained < self.drain_batch:
            oldest, _ = self._dirty.popitem(last=False)
            self.writebacks.append(oldest)
            drained += 1
        if drained:
            self.stats.inc("eager_drains")
            self.stats.inc("blocks_drained", drained)

    def on_eviction(self, block: int, flags: int) -> None:
        """Forget blocks that left the cache on their own."""
        self._dirty.pop(block, None)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def tracked_dirty_blocks(self) -> int:
        """Number of dirty blocks currently queued for eager cleaning."""
        return len(self._dirty)

    def storage_bits(self) -> int:
        """One block address per tracked entry."""
        return self.pending_limit * 42
