"""Shared last-level cache.

The LLC is the vantage point of every mechanism the paper studies: the stride
and SMS prefetchers, the VWQ eager-writeback engine and BuMP all sit next to
it and observe its access, miss, fill and eviction streams.  The model
therefore keeps the bookkeeping needed by the evaluation:

* hit/miss counts and the dirty-eviction (writeback) stream;
* prefetched-but-never-used blocks, which become *overfetch* when evicted;
* an operation counter approximating LLC bandwidth consumption, used by the
  on-chip overhead analysis of Figure 12 (demand lookups, fills, prefetch
  fills, eager-writeback probes all consume an LLC port slot).

The backing array is a :class:`~repro.cache.flat.CacheArray`
(``_cache``).  The simulator's demand and agent-traffic paths call the
array directly and bump this wrapper's hot counters as plain ints, folded
into the :class:`StatGroup` lazily on read; fills and L1 writebacks go
through :meth:`fill` and :meth:`write_from_l1`.
"""

from __future__ import annotations

from typing import Optional

from repro.common.params import CacheParams
from repro.common.stats import StatGroup, fold_pending
from repro.cache.agent import EvictedLine
from repro.cache.flat import CacheArray


class LastLevelCache:
    """The shared, unified LLC of the simulated CMP."""

    def __init__(self, params: CacheParams) -> None:
        self.params = params
        self._cache = CacheArray(params, name="llc")
        self._stats = StatGroup("llc")
        # Hot counters pending aggregation into ``_stats``.
        for attr, _key in self._PENDING_COUNTERS:
            setattr(self, attr, 0)

    #: (pending attribute, StatGroup key) pairs flushed by ``stats``.
    _PENDING_COUNTERS = (
        ("_p_traffic_ops", "traffic_ops"),
        ("_p_demand_hits", "demand_hits"),
        ("_p_demand_misses", "demand_misses"),
        ("_p_demand_fills", "demand_fills"),
        ("_p_prefetch_fills", "prefetch_fills"),
        ("_p_evictions", "evictions"),
        ("_p_dirty_evictions", "dirty_evictions"),
        ("_p_overfetched_blocks", "overfetched_blocks"),
        ("_p_eager_cleaned_blocks", "eager_cleaned_blocks"),
    )

    @property
    def stats(self) -> StatGroup:
        """Wrapper-level counters (pending hot increments flushed)."""
        return fold_pending(self, self._stats, self._PENDING_COUNTERS)

    def fill(self, block_address: int, dirty: bool = False, prefetched: bool = False,
             pc: int = 0, core: int = 0) -> Optional[EvictedLine]:
        """Install a block fetched from memory; return the victim, if any."""
        self._p_traffic_ops += 1
        if prefetched:
            self._p_prefetch_fills += 1
        else:
            self._p_demand_fills += 1
        victim = self._cache.fill(
            block_address, dirty=dirty, prefetched=prefetched, pc=pc, core=core
        )
        if victim is not None:
            self._p_evictions += 1
            if victim.dirty:
                self._p_dirty_evictions += 1
            if victim.prefetched and not victim.used:
                self._p_overfetched_blocks += 1
        return victim

    def write_from_l1(self, block_address: int, pc: int = 0, core: int = 0) -> Optional[EvictedLine]:
        """Receive a dirty block written back from an L1 cache.

        If the block is resident it is simply marked dirty; otherwise it is
        allocated dirty (the L1 held the only copy).  Returns any LLC victim
        displaced by the allocation.
        """
        self._p_traffic_ops += 1
        if self._cache.touch_set_dirty(block_address):
            return None
        return self.fill(block_address, dirty=True, pc=pc, core=core)

    @property
    def array_stats(self) -> StatGroup:
        """Statistics of the underlying cache array (fills, evictions, ...)."""
        return self._cache.stats
