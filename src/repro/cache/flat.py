"""The LLC array: one recency-ordered dict per set.

:class:`CacheArray` keeps the LLC in :attr:`CacheArray.sets`, one plain dict
per set, mapping each resident block to its *line word* and ordered least-
to most-recently used.  A hit or :meth:`~CacheArray.touch_set_dirty` pops
the block and re-inserts it with its new flags; :meth:`~CacheArray.fill`
inserts last and evicts a full set's first key; :meth:`~CacheArray.clean`
rewrites the word in place.  That is the order the cache layer's
specification, a reference LRU (:mod:`repro.fuzz.reference_lru`), states.

A line word holds the flag bits ``FLAG_DIRTY``, ``FLAG_PREFETCHED`` and
``FLAG_USED`` (the encoding :mod:`repro.cache.agent` states for agents) in
bits 0-2, the requesting core in the next :data:`CORE_BITS` bits and the
requesting PC (any PC below ``2**63``) above them.  A core count above
:data:`MAX_CORES` is refused when the array is built, so a core never
spills into the PC bits.

The simulator hot loop calls the five methods below directly; ``fill``
returns the victim block and leaves its flag byte, PC and core in three int
attributes, so an eviction allocates nothing.  Snapshots pickle
:attr:`~CacheArray.sets` as they stand.  The array counts nothing:
:class:`~repro.sim.system.ServerSystem` owns every LLC counter.
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.addressing import BLOCK_BITS
from repro.common.params import CacheParams
from repro.cache.agent import FLAG_DIRTY, FLAG_PREFETCHED, FLAG_USED

__all__ = [
    "CORE_BITS",
    "FLAG_DIRTY",
    "FLAG_PREFETCHED",
    "FLAG_USED",
    "MAX_CORES",
    "CacheArray",
]

#: Width of a line word's core field.
CORE_BITS = 16
#: Cores a line word can name: ``0 .. MAX_CORES - 1``.
MAX_CORES = 1 << CORE_BITS

_FLAG_MASK = FLAG_DIRTY | FLAG_PREFETCHED | FLAG_USED
_CORE_SHIFT = _FLAG_MASK.bit_length()
_CORE_MASK = MAX_CORES - 1
_PC_SHIFT = _CORE_SHIFT + CORE_BITS
_WRITE_FLAGS = FLAG_USED | FLAG_DIRTY


class CacheArray:
    """An LRU, write-back, write-allocate cache: one ordered dict per set."""

    def __init__(self, params: CacheParams, num_cores: int = 1) -> None:
        if num_cores > MAX_CORES:
            raise ValueError(f"a line word holds cores 0..{MAX_CORES - 1}; "
                             f"{num_cores} cores do not fit")
        self.params = params
        self.num_sets = params.num_sets
        self._set_mask = self.num_sets - 1
        if self.num_sets & self._set_mask:
            raise ValueError("number of sets must be a power of two")
        self.ways = params.associativity
        #: Per set: resident block -> line word, least recently used first.
        self.sets: List[Dict[int, int]] = [{} for _ in range(self.num_sets)]
        #: The last :meth:`fill`'s victim: its flag byte, PC and core.
        self.victim_flags = 0
        self.victim_pc = 0
        self.victim_core = 0

    # ------------------------------------------------------------------ #
    # Probing
    # ------------------------------------------------------------------ #
    def contains(self, block_address: int) -> bool:
        """True when ``block_address`` is resident."""
        return block_address in self.sets[(block_address >> BLOCK_BITS)
                                          & self._set_mask]

    # ------------------------------------------------------------------ #
    # Demand accesses and fills
    # ------------------------------------------------------------------ #
    def demand_access(self, block_address: int, is_write: bool) -> int:
        """Fused probe + access: return the line's *prior* flags, or -1 on a miss.

        This is the simulator's hot-loop entry point: one dict pop and one
        insert, no object allocation.  The prior flag byte tells the caller
        whether the access hit a prefetched-but-unused line (prefetch
        coverage) for free.
        """
        lines = self.sets[(block_address >> BLOCK_BITS) & self._set_mask]
        word = lines.pop(block_address, None)
        if word is None:
            return -1
        lines[block_address] = word | (_WRITE_FLAGS if is_write else FLAG_USED)
        return word & _FLAG_MASK

    def fill(self, block_address: int, dirty: bool = False, prefetched: bool = False,
             pc: int = 0, core: int = 0) -> int:
        """Allocate ``block_address``; return the evicted victim's block, or -1.

        The block must not be resident: every caller fills only after
        :meth:`demand_access`, :meth:`contains` or :meth:`touch_set_dirty`
        found it absent.  A victim's flag byte, PC and core are left in
        :attr:`victim_flags`, :attr:`victim_pc` and :attr:`victim_core`,
        valid until the next fill.
        """
        lines = self.sets[(block_address >> BLOCK_BITS) & self._set_mask]
        victim = -1
        if len(lines) == self.ways:
            for victim in lines:
                break
            word = lines.pop(victim)
            self.victim_flags = word & _FLAG_MASK
            self.victim_pc = word >> _PC_SHIFT
            self.victim_core = (word >> _CORE_SHIFT) & _CORE_MASK
        # ``used`` starts true for demand fills, false for prefetched ones.
        flags = FLAG_PREFETCHED if prefetched else FLAG_USED
        if dirty:
            flags |= FLAG_DIRTY
        lines[block_address] = (pc << _PC_SHIFT) | (core << _CORE_SHIFT) | flags
        return victim

    # ------------------------------------------------------------------ #
    # Maintenance operations used by eager writeback / bulk streaming
    # ------------------------------------------------------------------ #
    def clean(self, block_address: int) -> bool:
        """Clear the dirty bit of a resident block; True when it was dirty."""
        lines = self.sets[(block_address >> BLOCK_BITS) & self._set_mask]
        word = lines.get(block_address)
        if word is None or not word & FLAG_DIRTY:
            return False
        lines[block_address] = word ^ FLAG_DIRTY
        return True

    def touch_set_dirty(self, block_address: int) -> bool:
        """Promote a resident block and mark it dirty (L1 writeback fast path).

        Returns False when the block is not resident (the caller then
        allocates via :meth:`fill`).
        """
        lines = self.sets[(block_address >> BLOCK_BITS) & self._set_mask]
        word = lines.pop(block_address, None)
        if word is None:
            return False
        lines[block_address] = word | FLAG_DIRTY
        return True
