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
  0), ``FLAG_PREFETCHED`` (bit 1), ``FLAG_USED`` (bit 2), the encoding
  :mod:`repro.cache.agent` states for agents;
* ``pcs`` (``int64``) / ``cores`` (``int32``) -- the prediction metadata
  (requesting PC and core) of each line, which the system reads back from
  an evicted line;
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
:meth:`contains`, :meth:`touch_set_dirty`).  :meth:`fill` returns the victim
block as an int and leaves the victim's flag byte, PC and core in three int
attributes, so an eviction allocates nothing either.

The array counts nothing: the system
(:class:`~repro.sim.system.ServerSystem`) owns every LLC counter.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.common.addressing import BLOCK_BITS
from repro.common.params import CacheParams
from repro.cache.agent import FLAG_DIRTY, FLAG_PREFETCHED, FLAG_USED

__all__ = [
    "FLAG_DIRTY",
    "FLAG_PREFETCHED",
    "FLAG_USED",
    "CacheArray",
]


class CacheArray:
    """An LRU, write-back, write-allocate cache held in flat arrays."""

    def __init__(self, params: CacheParams) -> None:
        self.params = params
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
        #: The last :meth:`fill`'s victim: its flag byte, PC and core.
        self.victim_flags = 0
        self.victim_pc = 0
        self.victim_core = 0

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
            return -1
        set_index = (block_address >> BLOCK_BITS) & self._set_mask
        tick = self._tick[set_index] + 1
        self._tick[set_index] = tick
        self._stamps_mv[slot] = tick
        flags_mv = self._flags_mv
        prior = flags_mv[slot]
        flags = prior | FLAG_USED
        if is_write:
            flags |= FLAG_DIRTY
        if flags != prior:
            flags_mv[slot] = flags
        return prior

    def fill(self, block_address: int, dirty: bool = False, prefetched: bool = False,
             pc: int = 0, core: int = 0) -> int:
        """Allocate ``block_address``; return the evicted victim's block, or -1.

        The block must not be resident: every caller fills only after
        :meth:`demand_access`, :meth:`contains` or :meth:`touch_set_dirty`
        found it absent.  A victim's flag byte, PC and core are left in
        :attr:`victim_flags`, :attr:`victim_pc` and :attr:`victim_core`,
        valid until the next fill.  Lines are never invalidated, so a set
        that is not full fills its ways in order.
        """
        set_index = (block_address >> BLOCK_BITS) & self._set_mask
        base = set_index * self.ways
        count = self._count[set_index]
        tags_mv = self._tags_mv
        flags_mv = self._flags_mv
        if count == self.ways:
            slot = self._victim_slot(set_index, base)
            victim = tags_mv[slot]
            self.victim_flags = flags_mv[slot]
            self.victim_pc = self._pcs_mv[slot]
            self.victim_core = self._cores_mv[slot]
            del self._slot_of[victim]
        else:
            slot = base + count
            self._count[set_index] = count + 1
            victim = -1

        self._slot_of[block_address] = slot
        tags_mv[slot] = block_address
        # ``used`` starts true for demand fills, false for prefetched ones.
        flags = FLAG_PREFETCHED if prefetched else FLAG_USED
        if dirty:
            flags |= FLAG_DIRTY
        flags_mv[slot] = flags
        self._pcs_mv[slot] = pc
        self._cores_mv[slot] = core
        tick = self._tick[set_index] + 1
        self._tick[set_index] = tick
        self._stamps_mv[slot] = tick
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
