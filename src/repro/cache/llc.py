"""Shared last-level cache.

The LLC is the vantage point of every mechanism the paper studies: the stride
and SMS prefetchers, the VWQ eager-writeback engine and BuMP all sit next to
it and observe its access, miss, fill and eviction streams.  The model
therefore exposes those streams explicitly and keeps the bookkeeping needed
by the evaluation:

* hit/miss counts and the dirty-eviction (writeback) stream;
* prefetched-but-never-used blocks, which become *overfetch* when evicted;
* an operation counter approximating LLC bandwidth consumption, used by the
  on-chip overhead analysis of Figure 12 (demand lookups, fills, prefetch
  fills, eager-writeback probes all consume an LLC port slot).

The backing cache array is engine-selectable (see :mod:`repro.cache.engine`):
under the flat-array engine the demand path runs through
:meth:`demand_access`, which fuses the probe and the access into one
allocation-free call and accumulates the hot counters as plain ints (folded
into the :class:`StatGroup` lazily on read); under the dict engine every
method keeps the original object-at-a-time behaviour, preserving it as an
honest benchmark baseline.  Both engines produce bit-identical statistics.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.params import CacheParams
from repro.common.stats import StatGroup, fold_pending
from repro.cache.engine import make_cache_array
from repro.cache.flat import (
    FLAG_PREFETCHED,
    FLAG_USED,
    FlatSetAssociativeCache,
)
from repro.cache.set_assoc import CacheLine, EvictedLine


class LastLevelCache:
    """The shared, unified LLC of the simulated CMP."""

    def __init__(self, params: CacheParams, engine: Optional[str] = None) -> None:
        self.params = params
        self._cache = make_cache_array(params, name="llc", engine=engine)
        self._flat = isinstance(self._cache, FlatSetAssociativeCache)
        self._stats = StatGroup("llc")
        # Hot counters pending aggregation into ``_stats`` (flat engine only;
        # the dict engine increments the StatGroup directly, as it always did).
        for attr, _key in self._PENDING_COUNTERS:
            setattr(self, attr, 0)

    #: (pending attribute, StatGroup key) pairs flushed by ``stats``.
    _PENDING_COUNTERS = (
        ("_p_traffic_ops", "traffic_ops"),
        ("_p_demand_hits", "demand_hits"),
        ("_p_demand_misses", "demand_misses"),
        ("_p_demand_fills", "demand_fills"),
        ("_p_prefetch_fills", "prefetch_fills"),
        ("_p_probe_ops", "probe_ops"),
        ("_p_evictions", "evictions"),
        ("_p_dirty_evictions", "dirty_evictions"),
        ("_p_overfetched_blocks", "overfetched_blocks"),
        ("_p_eager_cleaned_blocks", "eager_cleaned_blocks"),
    )

    @property
    def stats(self) -> StatGroup:
        """Wrapper-level counters (pending hot increments flushed)."""
        return fold_pending(self, self._stats, self._PENDING_COUNTERS)

    # ------------------------------------------------------------------ #
    # Demand path
    # ------------------------------------------------------------------ #
    def access(self, block_address: int, is_write: bool) -> Optional[CacheLine]:
        """Demand access from a core (after the L1 filter).

        Returns the hit line or ``None`` on a miss.  The caller is responsible
        for fetching the block from memory and calling :meth:`fill`.
        """
        self._stats.inc("traffic_ops")
        line = self._cache.access(block_address, is_write=is_write)
        if line is None:
            self._stats.inc("demand_misses")
        else:
            self._stats.inc("demand_hits")
        return line

    def demand_access(self, block_address: int, is_write: bool) -> Tuple[bool, bool]:
        """Fused probe + demand access: ``(hit, covered)``.

        ``covered`` is true when the block was resident as a
        prefetched-but-not-yet-used line before this access -- exactly what
        the split ``probe(...)`` + ``access(...)`` sequence observes, without
        materializing a line object on the flat engine.
        """
        if self._flat:
            self._p_traffic_ops += 1
            prior = self._cache.demand_access(block_address, is_write)
            if prior < 0:
                self._p_demand_misses += 1
                return False, False
            self._p_demand_hits += 1
            return True, prior & (FLAG_PREFETCHED | FLAG_USED) == FLAG_PREFETCHED
        resident = self._cache.lookup(block_address)
        covered = resident is not None and resident.prefetched and not resident.used
        line = self.access(block_address, is_write)
        return line is not None, covered

    def fill(self, block_address: int, dirty: bool = False, prefetched: bool = False,
             pc: int = 0, core: int = 0) -> Optional[EvictedLine]:
        """Install a block fetched from memory; return the victim, if any."""
        if self._flat:
            self._p_traffic_ops += 1
            if prefetched:
                self._p_prefetch_fills += 1
            else:
                self._p_demand_fills += 1
        else:
            self._stats.inc("traffic_ops")
            self._stats.inc("prefetch_fills" if prefetched else "demand_fills")
        victim = self._cache.fill(
            block_address, dirty=dirty, prefetched=prefetched, pc=pc, core=core
        )
        if victim is not None:
            if self._flat:
                self._p_evictions += 1
                if victim.dirty:
                    self._p_dirty_evictions += 1
                if victim.prefetched and not victim.used:
                    self._p_overfetched_blocks += 1
            else:
                stats = self._stats
                stats.inc("evictions")
                if victim.dirty:
                    stats.inc("dirty_evictions")
                if victim.prefetched and not victim.used:
                    stats.inc("overfetched_blocks")
        return victim

    def write_from_l1(self, block_address: int, pc: int = 0, core: int = 0) -> Optional[EvictedLine]:
        """Receive a dirty block written back from an L1 cache.

        If the block is resident it is simply marked dirty; otherwise it is
        allocated dirty (the L1 held the only copy).  Returns any LLC victim
        displaced by the allocation.
        """
        if self._flat:
            self._p_traffic_ops += 1
            if self._cache.touch_set_dirty(block_address):
                return None
            return self.fill(block_address, dirty=True, pc=pc, core=core)
        self._stats.inc("traffic_ops")
        line = self._cache.lookup(block_address, touch=True)
        if line is not None:
            line.dirty = True
            return None
        return self.fill(block_address, dirty=True, pc=pc, core=core)

    # ------------------------------------------------------------------ #
    # Probes used by prefetchers and eager-writeback engines
    # ------------------------------------------------------------------ #
    def contains(self, block_address: int) -> bool:
        """Non-allocating presence check (does not update LRU)."""
        return self._cache.contains(block_address)

    def probe(self, block_address: int, count_traffic: bool = True) -> Optional[CacheLine]:
        """Non-allocating lookup used by eager-writeback engines.

        VWQ and BuMP's writeback generation logic probe the LLC for a
        region's other blocks; each probe consumes LLC bandwidth, which the
        overhead analysis accounts for.
        """
        if count_traffic:
            if self._flat:
                self._p_traffic_ops += 1
                self._p_probe_ops += 1
            else:
                self._stats.inc("traffic_ops")
                self._stats.inc("probe_ops")
        return self._cache.lookup(block_address)

    def clean(self, block_address: int, count_traffic: bool = True) -> bool:
        """Clear the dirty bit of a resident block (eager writeback).

        Returns True when the block was resident and dirty, i.e. a writeback
        to DRAM was actually generated for it.
        """
        if self._flat:
            if count_traffic:
                self._p_traffic_ops += 1
            cleaned = self._cache.clean(block_address)
            if cleaned:
                self._p_eager_cleaned_blocks += 1
            return cleaned
        if count_traffic:
            self._stats.inc("traffic_ops")
        cleaned = self._cache.clean(block_address)
        if cleaned:
            self._stats.inc("eager_cleaned_blocks")
        return cleaned

    def invalidate(self, block_address: int) -> Optional[CacheLine]:
        """Remove a block from the LLC (test helper)."""
        return self._cache.invalidate(block_address)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def resident_count(self) -> int:
        """Number of blocks currently resident in the LLC."""
        return self._cache.resident_count()

    def dirty_blocks_in_region(self, region_base: int, region_size: int) -> List[int]:
        """Block addresses inside a region that are resident and dirty."""
        return self._cache.dirty_blocks_in_region(region_base, region_size)

    @property
    def demand_hit_ratio(self) -> float:
        """Fraction of demand accesses that hit in the LLC."""
        stats = self.stats
        total = stats["demand_hits"] + stats["demand_misses"]
        if total == 0:
            return 0.0
        return stats["demand_hits"] / total

    @property
    def array_stats(self) -> StatGroup:
        """Statistics of the underlying cache array (fills, evictions, ...)."""
        return self._cache.stats
