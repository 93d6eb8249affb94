"""Flat-array set-associative cache engine.

:class:`FlatSetAssociativeCache` is a drop-in replacement for the dict-backed
:class:`repro.cache.set_assoc.SetAssociativeCache` that keeps all cache state
in preallocated NumPy parallel arrays instead of per-line Python objects.

**State-array layout.**  Five dense ``[num_sets, ways]`` arrays hold the
whole cache; a line is the slot ``(set_index, way)`` across all five, and
scalar code addresses it through the flattened index
``slot = set_index * ways + way``:

* ``tags`` (``int64``) -- resident block address of each slot, ``-1`` when
  the slot is empty;
* ``flags`` (``uint8``) -- packed per-line status bits: ``FLAG_DIRTY`` (bit
  0), ``FLAG_PREFETCHED`` (bit 1), ``FLAG_USED`` (bit 2);
* ``pcs`` (``int64``) / ``cores`` (``int32``) -- the prediction metadata
  (requesting PC and core) the dict engine kept on each
  :class:`~repro.cache.set_assoc.CacheLine`;
* ``stamps`` (``int64``) -- a per-set monotonic recency stamp (the set's
  insertion/touch tick at the time the slot was last written).

The stamp array reproduces the dict engine's insertion-ordered-dict LRU
*exactly*: every insertion (and, for promoting policies, every touch) writes
the set's next tick, so "oldest stamp" is identical to "first dict key".
Under a non-promoting policy (random replacement) stamps are written only at
insertion, which is exactly the order a never-reordered dict would have; on
an eviction the stamp-ordered tag dict is rebuilt and handed to the policy's
``victim``, so even seeded-RNG victim choices match the dict engine.

Scalar state access goes through zero-copy :class:`memoryview`\\ s over the
arrays (a memoryview read/write is ~3x cheaper than NumPy scalar indexing),
and an auxiliary ``block -> slot`` index dict provides O(1) associative
lookup; the dict maps plain ints to plain ints -- no per-line objects are
ever allocated, which is where the dict engine spends its time.  Bulk
operations (:meth:`resident_blocks_in_region`) use vectorized NumPy gathers
over the 2-D arrays.

Engine selection lives in :mod:`repro.cache.engine`; the simulator hot loop
additionally calls :meth:`demand_access` directly, which fuses the dict
engine's probe + access + flag update into one allocation-free call.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

import numpy as np

from repro.common.addressing import BLOCK_BITS
from repro.common.params import CacheParams
from repro.common.stats import StatGroup, fold_pending
from repro.cache.replacement import LRUPolicy, ReplacementPolicy
from repro.cache.set_assoc import CacheLine, EvictedLine

__all__ = [
    "FLAG_DIRTY",
    "FLAG_PREFETCHED",
    "FLAG_USED",
    "FlatLineView",
    "FlatSetAssociativeCache",
]

#: Packed per-line flag bits (``flags`` array).
FLAG_DIRTY = 1
FLAG_PREFETCHED = 2
FLAG_USED = 4

#: Candidate counts up to this bound are probed through the slot index --
#: scalar probes beat the fixed overhead of the NumPy gathers until region
#: scans reach thousands of candidate blocks (measured crossover ~2k).
_SCALAR_SCAN_LIMIT = 2048


class FlatLineView:
    """A :class:`CacheLine`-shaped window onto one occupied array slot.

    Attribute reads and writes go straight to the backing arrays, so mutating
    ``view.dirty`` behaves exactly like mutating a dict-engine line.  Views
    are only materialized on the compatibility surface (``lookup``,
    ``iter_lines``, region scans); the simulator hot path never creates one.
    """

    __slots__ = ("_cache", "_slot")

    def __init__(self, cache: "FlatSetAssociativeCache", slot: int) -> None:
        self._cache = cache
        self._slot = slot

    @property
    def block_address(self) -> int:
        return self._cache._tags_mv[self._slot]

    @property
    def dirty(self) -> bool:
        return bool(self._cache._flags_mv[self._slot] & FLAG_DIRTY)

    @dirty.setter
    def dirty(self, value: bool) -> None:
        mv = self._cache._flags_mv
        if value:
            mv[self._slot] |= FLAG_DIRTY
        else:
            mv[self._slot] &= ~FLAG_DIRTY & 0xFF

    @property
    def prefetched(self) -> bool:
        return bool(self._cache._flags_mv[self._slot] & FLAG_PREFETCHED)

    @property
    def used(self) -> bool:
        return bool(self._cache._flags_mv[self._slot] & FLAG_USED)

    @used.setter
    def used(self, value: bool) -> None:
        mv = self._cache._flags_mv
        if value:
            mv[self._slot] |= FLAG_USED
        else:
            mv[self._slot] &= ~FLAG_USED & 0xFF

    @property
    def pc(self) -> int:
        return self._cache._pcs_mv[self._slot]

    @property
    def core(self) -> int:
        return self._cache._cores_mv[self._slot]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            flag
            for flag, present in (("D", self.dirty), ("P", self.prefetched), ("U", self.used))
            if present
        )
        return f"FlatLineView(0x{self.block_address:x}, {flags})"


class FlatSetAssociativeCache:
    """Array-backed cache with the :class:`SetAssociativeCache` interface."""

    def __init__(self, params: CacheParams, name: str = "cache",
                 policy: Optional[ReplacementPolicy] = None) -> None:
        self.params = params
        self.name = name
        self.policy = policy if policy is not None else LRUPolicy()
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
        #: Occupied ways per set (the dict engine's ``len(cache_set)``).
        self._count = [0] * self.num_sets

        self._lru = self.policy.__class__ is LRUPolicy
        # The stamp model needs to know whether an access reorders recency.
        # LRU promotes by definition; any other policy must say so explicitly
        # -- silently assuming would break the engine-parity guarantee for a
        # policy with a no-op on_access (insertion order != recency order).
        if self._lru:
            self._promote = True
        else:
            declared = any(
                "touch_promotes" in klass.__dict__
                for klass in type(self.policy).__mro__
                if klass is not ReplacementPolicy
            )
            if not declared:
                raise TypeError(
                    f"{type(self.policy).__name__} must declare "
                    "'touch_promotes' (does on_access move a line to MRU?) "
                    "to run under the flat-array engine")
            self._promote = self.policy.touch_promotes

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
    def lookup(self, block_address: int, touch: bool = False) -> Optional[FlatLineView]:
        """Return a view of the resident line for ``block_address`` or ``None``."""
        slot = self._slot_of.get(block_address)
        if slot is None:
            return None
        if touch and self._promote:
            set_index = (block_address >> BLOCK_BITS) & self._set_mask
            tick = self._tick[set_index] + 1
            self._tick[set_index] = tick
            self._stamps_mv[slot] = tick
        return FlatLineView(self, slot)

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
        flag byte lets the caller derive what the dict engine's separate
        ``probe`` observed (e.g. prefetched-but-unused coverage) for free.
        """
        slot = self._slot_of.get(block_address)
        if slot is None:
            self._p_misses += 1
            return -1
        self._p_hits += 1
        if self._promote:
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

    def access(self, block_address: int, is_write: bool = False) -> Optional[FlatLineView]:
        """Demand access; return a view of the line on a hit, ``None`` on a miss."""
        if self.demand_access(block_address, is_write) < 0:
            return None
        return FlatLineView(self, self._slot_of[block_address])

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
            if self._promote:
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
        # ``used`` starts true for demand fills, false for prefetched ones,
        # mirroring CacheLine.__init__.
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
        """Pick the slot to evict from the full set starting at ``base``."""
        stamps_mv = self._stamps_mv
        if self._lru:
            best = base
            best_stamp = stamps_mv[base]
            for slot in range(base + 1, base + self.ways):
                stamp = stamps_mv[slot]
                if stamp < best_stamp:
                    best_stamp = stamp
                    best = slot
            return best
        # Generic policy: rebuild the set as the stamp-ordered dict the
        # dict engine would hold and let the policy pick, so any internal
        # policy state (e.g. a seeded RNG) advances identically.
        slots = sorted(range(base, base + self.ways), key=stamps_mv.__getitem__)
        tags_mv = self._tags_mv
        ordered = {tags_mv[slot]: None for slot in slots}
        victim_tag = self.policy.victim(ordered)
        return self._slot_of[victim_tag]

    # ------------------------------------------------------------------ #
    # Maintenance operations used by eager writeback / bulk streaming
    # ------------------------------------------------------------------ #
    def invalidate(self, block_address: int) -> Optional[CacheLine]:
        """Remove ``block_address``, returning a detached copy of its line."""
        slot = self._slot_of.pop(block_address, None)
        if slot is None:
            return None
        flags = self._flags_mv[slot]
        line = CacheLine(
            block_address,
            dirty=bool(flags & FLAG_DIRTY),
            prefetched=bool(flags & FLAG_PREFETCHED),
            pc=self._pcs_mv[slot],
            core=self._cores_mv[slot],
        )
        line.used = bool(flags & FLAG_USED)
        self._tags_mv[slot] = -1
        self._flags_mv[slot] = 0
        set_index = (block_address >> BLOCK_BITS) & self._set_mask
        self._count[set_index] -= 1
        return line

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

        Equivalent to ``lookup(block, touch=True)`` followed by
        ``line.dirty = True``, without materializing a view.  Returns False
        when the block is not resident (the caller then allocates via
        :meth:`fill`).
        """
        slot = self._slot_of.get(block_address)
        if slot is None:
            return False
        if self._promote:
            set_index = (block_address >> BLOCK_BITS) & self._set_mask
            tick = self._tick[set_index] + 1
            self._tick[set_index] = tick
            self._stamps_mv[slot] = tick
        self._flags_mv[slot] |= FLAG_DIRTY
        return True

    def resident_blocks_in_region(self, region_base: int, region_size: int,
                                  block_size: int = 1 << BLOCK_BITS) -> List[FlatLineView]:
        """Return views of the resident lines inside a region, address-ascending.

        Small regions are probed through the slot index; large ones gather
        the candidate set rows from the tag array in one vectorized compare
        instead of issuing one lookup per block offset.
        """
        candidates = range(region_base, region_base + region_size, block_size)
        if len(candidates) <= _SCALAR_SCAN_LIMIT:
            slot_of = self._slot_of
            lines = []
            for block in candidates:
                slot = slot_of.get(block)
                if slot is not None:
                    lines.append(FlatLineView(self, slot))
            return lines

        blocks = np.arange(region_base, region_base + region_size, block_size,
                           dtype=np.int64)
        set_indices = (blocks >> BLOCK_BITS) & self._set_mask
        rows = self.tags[set_indices]                    # (candidates, ways) gather
        candidate_idx, way_idx = np.nonzero(rows == blocks[:, None])
        ways = self.ways
        set_list = set_indices.tolist()
        return [FlatLineView(self, set_list[i] * ways + w)
                for i, w in zip(candidate_idx.tolist(), way_idx.tolist())]

    def dirty_blocks_in_region(self, region_base: int, region_size: int,
                               block_size: int = 1 << BLOCK_BITS) -> List[int]:
        """Addresses of resident *dirty* blocks in a region, address-ascending.

        This is the BuMP bulk-writeback scan.  Unlike
        :meth:`resident_blocks_in_region` it never materializes line views:
        large regions reduce to two vectorized gathers (tags and flags) and a
        mask, small ones to slot-index probes plus a flag-byte read each.
        """
        candidates = range(region_base, region_base + region_size, block_size)
        if len(candidates) <= _SCALAR_SCAN_LIMIT:
            slot_of = self._slot_of
            flags_mv = self._flags_mv
            blocks = []
            for block in candidates:
                slot = slot_of.get(block)
                if slot is not None and flags_mv[slot] & FLAG_DIRTY:
                    blocks.append(block)
            return blocks

        blocks = np.arange(region_base, region_base + region_size, block_size,
                           dtype=np.int64)
        set_indices = (blocks >> BLOCK_BITS) & self._set_mask
        resident = self.tags[set_indices] == blocks[:, None]    # (n, ways)
        dirty = (self.flags[set_indices] & FLAG_DIRTY).astype(bool)
        hit_rows = (resident & dirty).any(axis=1)
        return blocks[hit_rows].tolist()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def resident_count(self) -> int:
        """Total number of blocks currently resident."""
        return sum(self._count)

    def iter_lines(self) -> Iterable[FlatLineView]:
        """Iterate over every resident line (test/debug helper)."""
        for slot, tag in enumerate(self._tags_mv):
            if tag != -1:
                yield FlatLineView(self, slot)

    def recency_ordered_tags(self, set_index: int) -> List[int]:
        """Tags of one set ordered oldest-first (parity/test helper).

        For a promoting policy this is the dict engine's key order (LRU
        first); for a non-promoting policy it is insertion order.
        """
        base = set_index * self.ways
        stamps_mv = self._stamps_mv
        tags_mv = self._tags_mv
        slots = [slot for slot in range(base, base + self.ways) if tags_mv[slot] != -1]
        slots.sort(key=stamps_mv.__getitem__)
        return [tags_mv[slot] for slot in slots]

    @property
    def hit_ratio(self) -> float:
        """Demand hit ratio observed so far."""
        stats = self.stats
        accesses = stats["hits"] + stats["misses"]
        if accesses == 0:
            return 0.0
        return stats["hits"] / accesses
