"""The flat-array set-associative cache: the LLC's state.

:class:`CacheArray` keeps all cache state in preallocated NumPy parallel
arrays instead of per-line Python objects.

**State-array layout.**  Five dense ``[num_sets, ways]`` arrays hold the
whole cache; a line is the slot ``(set_index, way)`` across all five, and
scalar code addresses it through the flattened index
``slot = set_index * ways + way``:

* ``tags`` (``int64``) -- resident block address of each slot, ``-1`` when
  the slot is empty;
* ``flags`` (``uint8``) -- packed per-line status bits: ``FLAG_DIRTY`` (bit
  0), ``FLAG_PREFETCHED`` (bit 1), ``FLAG_USED`` (bit 2);
* ``pcs`` (``int64``) / ``cores`` (``int32``) -- the prediction metadata
  (requesting PC and core) handed to agents with an evicted line;
* ``stamps`` (``int64``) -- a per-set monotonic recency stamp (the set's
  insertion/touch tick at the time the slot was last written).

Replacement is LRU: every insertion and every touch writes the set's next
tick, so the victim of a full set is the slot with the oldest stamp.  The
cache layer's specification, a reference LRU of one ordered dict per set
(:mod:`repro.fuzz.reference_lru`), checks exactly that order.

Scalar state access goes through zero-copy :class:`memoryview`\\ s over the
arrays (a memoryview read/write is ~3x cheaper than NumPy scalar indexing),
and an auxiliary ``block -> slot`` index dict provides O(1) associative
lookup; the dict maps plain ints to plain ints, so no per-line object is
ever allocated.  The simulator hot loop calls the five methods below
directly (:meth:`demand_access`, :meth:`fill`, :meth:`clean`,
:meth:`contains`, :meth:`touch_set_dirty`).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.common.addressing import BLOCK_BITS
from repro.common.params import CacheParams
from repro.common.stats import StatGroup, fold_pending
from repro.cache.agent import EvictedLine

__all__ = [
    "FLAG_DIRTY",
    "FLAG_PREFETCHED",
    "FLAG_USED",
    "CacheArray",
]

#: Packed per-line flag bits (``flags`` array).
FLAG_DIRTY = 1
FLAG_PREFETCHED = 2
FLAG_USED = 4


class CacheArray:
    """An LRU, write-back, write-allocate cache held in flat arrays."""

    def __init__(self, params: CacheParams, name: str = "cache") -> None:
        self.params = params
        self.name = name
        self.num_sets = params.num_sets
        self._set_mask = self.num_sets - 1
        if self.num_sets & self._set_mask:
            raise ValueError("number of sets must be a power of two")
        ways = params.associativity
        self.ways = ways
        total = self.num_sets * ways

        self.tags = np.full((self.num_sets, ways), -1, dtype=np.int64)
        self.flags = np.zeros((self.num_sets, ways), dtype=np.uint8)
        self.pcs = np.zeros((self.num_sets, ways), dtype=np.int64)
        self.cores = np.zeros((self.num_sets, ways), dtype=np.int32)
        self.stamps = np.zeros((self.num_sets, ways), dtype=np.int64)
        #: Per-set monotonic stamp counter; never reset, so stamps are unique
        #: and strictly increasing across the whole run (evictions included).
        #: An ndarray (captured by snapshots) with a ``_tick`` memoryview
        #: alias for the scalar hit paths.
        self.ticks = np.zeros(self.num_sets, dtype=np.int64)
        # Zero-copy memoryviews over the flattened arrays (slot = ``set *
        # ways + way``) for scalar access: a memoryview read/write beats
        # NumPy scalar indexing ~3x.
        self._tags_mv = memoryview(self.tags.reshape(total))
        self._flags_mv = memoryview(self.flags.reshape(total))
        self._pcs_mv = memoryview(self.pcs.reshape(total))
        self._cores_mv = memoryview(self.cores.reshape(total))
        self._stamps_mv = memoryview(self.stamps.reshape(total))
        self._tick = memoryview(self.ticks)

        #: Associative index: resident block address -> flat slot.
        self._slot_of: Dict[int, int] = {}
        #: Occupied ways per set.
        self._count = [0] * self.num_sets

        # Hot-path statistics are accumulated as plain ints (attribute bumps
        # on the increment sites) and folded into the StatGroup lazily; every
        # external read goes through ``stats``.
        self._stats = StatGroup(name)
        for attr, _key in self._PENDING_COUNTERS:
            setattr(self, attr, 0)

    #: (pending attribute, StatGroup key) pairs flushed by ``stats``.
    _PENDING_COUNTERS = (
        ("_p_hits", "hits"),
        ("_p_misses", "misses"),
        ("_p_fills", "fills"),
        ("_p_evictions", "evictions"),
        ("_p_dirty_evictions", "dirty_evictions"),
        ("_p_unused_prefetch_evictions", "unused_prefetch_evictions"),
        ("_p_prefetch_hits", "prefetch_hits"),
    )

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> StatGroup:
        """Counters as a :class:`StatGroup` (pending increments flushed)."""
        return fold_pending(self, self._stats, self._PENDING_COUNTERS)

    # ------------------------------------------------------------------ #
    # Probing
    # ------------------------------------------------------------------ #
    def contains(self, block_address: int) -> bool:
        """True when ``block_address`` is resident."""
        return block_address in self._slot_of

    # ------------------------------------------------------------------ #
    # Demand accesses and fills
    # ------------------------------------------------------------------ #
    def demand_access(self, block_address: int, is_write: bool) -> int:
        """Fused probe + access: return the line's *prior* flags, or -1 on a miss.

        This is the simulator's hot-loop entry point: one dict probe, one
        stamp write and one flag update -- no object allocation.  The prior
        flag byte tells the caller whether the access hit a
        prefetched-but-unused line (prefetch coverage) for free.
        """
        slot = self._slot_of.get(block_address)
        if slot is None:
            self._p_misses += 1
            return -1
        self._p_hits += 1
        set_index = (block_address >> BLOCK_BITS) & self._set_mask
        tick = self._tick[set_index] + 1
        self._tick[set_index] = tick
        self._stamps_mv[slot] = tick
        flags_mv = self._flags_mv
        prior = flags_mv[slot]
        flags = prior
        if is_write:
            flags |= FLAG_DIRTY
        if not flags & FLAG_USED:
            flags |= FLAG_USED
            self._p_prefetch_hits += 1
        if flags != prior:
            flags_mv[slot] = flags
        return prior

    def fill(self, block_address: int, dirty: bool = False, prefetched: bool = False,
             pc: int = 0, core: int = 0) -> Optional[EvictedLine]:
        """Allocate ``block_address``; return the evicted victim, if any."""
        slot_of = self._slot_of
        slot = slot_of.get(block_address)
        set_index = (block_address >> BLOCK_BITS) & self._set_mask
        if slot is not None:
            # Refill of a resident block: merge the dirty bit, promote.
            if dirty:
                self._flags_mv[slot] |= FLAG_DIRTY
            tick = self._tick[set_index] + 1
            self._tick[set_index] = tick
            self._stamps_mv[slot] = tick
            return None

        victim: Optional[EvictedLine] = None
        base = set_index * self.ways
        count = self._count[set_index]
        tags_mv = self._tags_mv
        flags_mv = self._flags_mv
        if count >= self.ways:
            slot = self._victim_slot(set_index, base)
            victim_tag = tags_mv[slot]
            victim_flags = flags_mv[slot]
            victim = EvictedLine(
                victim_tag,
                bool(victim_flags & FLAG_DIRTY),
                bool(victim_flags & FLAG_PREFETCHED),
                bool(victim_flags & FLAG_USED),
                self._pcs_mv[slot],
                self._cores_mv[slot],
            )
            del slot_of[victim_tag]
            self._p_evictions += 1
            if victim_flags & FLAG_DIRTY:
                self._p_dirty_evictions += 1
            if victim_flags & (FLAG_PREFETCHED | FLAG_USED) == FLAG_PREFETCHED:
                self._p_unused_prefetch_evictions += 1
        else:
            slot = base
            while tags_mv[slot] != -1:
                slot += 1
            self._count[set_index] = count + 1

        slot_of[block_address] = slot
        tags_mv[slot] = block_address
        flags = FLAG_DIRTY if dirty else 0
        # ``used`` starts true for demand fills, false for prefetched ones.
        flags |= FLAG_PREFETCHED if prefetched else FLAG_USED
        flags_mv[slot] = flags
        self._pcs_mv[slot] = pc
        self._cores_mv[slot] = core
        tick = self._tick[set_index] + 1
        self._tick[set_index] = tick
        self._stamps_mv[slot] = tick
        self._p_fills += 1
        return victim

    def _victim_slot(self, set_index: int, base: int) -> int:
        """The LRU slot of the full set starting at ``base``: the oldest stamp."""
        stamps_mv = self._stamps_mv
        best = base
        best_stamp = stamps_mv[base]
        for slot in range(base + 1, base + self.ways):
            stamp = stamps_mv[slot]
            if stamp < best_stamp:
                best_stamp = stamp
                best = slot
        return best

    # ------------------------------------------------------------------ #
    # Maintenance operations used by eager writeback / bulk streaming
    # ------------------------------------------------------------------ #
    def clean(self, block_address: int) -> bool:
        """Clear the dirty bit of a resident block; True when it was dirty."""
        slot = self._slot_of.get(block_address)
        if slot is None:
            return False
        flags = self._flags_mv[slot]
        if flags & FLAG_DIRTY:
            self._flags_mv[slot] = flags & ~FLAG_DIRTY & 0xFF
            return True
        return False

    def touch_set_dirty(self, block_address: int) -> bool:
        """Promote a resident block and mark it dirty (L1 writeback fast path).

        Returns False when the block is not resident (the caller then
        allocates via :meth:`fill`).
        """
        slot = self._slot_of.get(block_address)
        if slot is None:
            return False
        set_index = (block_address >> BLOCK_BITS) & self._set_mask
        tick = self._tick[set_index] + 1
        self._tick[set_index] = tick
        self._stamps_mv[slot] = tick
        self._flags_mv[slot] |= FLAG_DIRTY
        return True
