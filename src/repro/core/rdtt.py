"""Region Density Tracking Table (RDTT).

The RDTT monitors the LLC access and eviction streams to learn, for every
*active* region (the interval between the region's first access and the first
LLC eviction of one of its blocks), which of its cache blocks were accessed
and whether any were modified.

Internally it is split exactly as Section IV.B describes:

* the **trigger table** holds regions with a single accessed block, recording
  the (PC, offset) of that first (triggering) access and a dirty bit;
* the **density table** holds regions with more than one accessed block,
  adding a per-block access bit-vector ("pattern").

A region *terminates* when one of its blocks is evicted from the LLC, or when
its tracking entry is displaced by a table conflict.  Both observers return
the terminated region's :class:`RegionEntry` (the caller knows which stream
it fed), which the BuMP engine uses to train the bulk history table and the
dirty region table.

Both tables run once per LLC access, so the operations below work on the
:class:`~repro.common.assoc_table.AssociativeTable` sets directly, under the
table's set-index and LRU rules, and count events in plain ints that the
``stats`` property folds into the :class:`StatGroup`.
"""

from __future__ import annotations

from typing import Optional

from repro.common.addressing import BLOCK_SIZE
from repro.common.assoc_table import AssociativeTable
from repro.common.stats import StatGroup, fold_pending
from repro.core.config import BuMPConfig


class RegionEntry:
    """Tracking state of one active region."""

    __slots__ = ("region", "trigger_pc", "trigger_offset", "pattern", "dirty")

    def __init__(self, region: int, trigger_pc: int, trigger_offset: int,
                 pattern: int, dirty: bool = False) -> None:
        self.region = region
        self.trigger_pc = trigger_pc
        self.trigger_offset = trigger_offset
        self.pattern = pattern
        self.dirty = dirty

    def accessed_blocks(self) -> int:
        """Number of distinct blocks accessed so far."""
        return bin(self.pattern).count("1")


class RegionDensityTracker:
    """The RDTT: trigger table + density table."""

    #: (pending attribute, StatGroup key) pairs folded by ``stats``.
    _PENDING_COUNTERS = (
        ("_n_accesses", "accesses"),
        ("_n_promotions", "promotions"),
        ("_n_density_conflicts", "density_conflicts"),
        ("_n_allocations", "allocations"),
        ("_n_trigger_conflicts", "trigger_conflicts"),
        ("_n_evictions_seen", "evictions_seen"),
        ("_n_eviction_terminations", "eviction_terminations"),
    )

    def __init__(self, config: BuMPConfig = None) -> None:
        self.config = config if config is not None else BuMPConfig()
        self.trigger = AssociativeTable(
            self.config.trigger_entries, self.config.associativity, name="trigger"
        )
        self.density = AssociativeTable(
            self.config.density_entries, self.config.associativity, name="density"
        )
        self._region_size = self.config.region_size_bytes
        self._ways = self.config.associativity
        self._trigger_sets = self.trigger.sets
        self._trigger_num_sets = self.trigger.num_sets
        self._density_sets = self.density.sets
        self._density_num_sets = self.density.num_sets
        self._stats = StatGroup("rdtt")
        for attr, _key in self._PENDING_COUNTERS:
            setattr(self, attr, 0)

    @property
    def stats(self) -> StatGroup:
        """Counters (pending hot increments folded in)."""
        return fold_pending(self, self._stats, self._PENDING_COUNTERS)

    # ------------------------------------------------------------------ #
    # LLC access stream
    # ------------------------------------------------------------------ #
    def observe_access(self, block_address: int, pc: int,
                       is_write: bool) -> Optional[RegionEntry]:
        """Record a demand LLC access; return the entry a table conflict displaced.

        At most one region terminates per access: either a promotion
        displaces a density-table entry or an allocation displaces a
        trigger-table entry.
        """
        region_size = self._region_size
        region = block_address // region_size
        offset = (block_address % region_size) // BLOCK_SIZE
        key_hash = hash(region)
        self._n_accesses += 1

        density_set = self._density_sets[key_hash % self._density_num_sets]
        entry = density_set.get(region)
        if entry is not None:
            del density_set[region]  # promote to most-recently used
            density_set[region] = entry
            entry.pattern |= 1 << offset
            if is_write:
                entry.dirty = True
            return None

        trigger_set = self._trigger_sets[key_hash % self._trigger_num_sets]
        entry = trigger_set.pop(region, None)
        if entry is not None:
            # Second distinct access: promote the region to the density table.
            entry.pattern |= 1 << offset
            if is_write:
                entry.dirty = True
            self._n_promotions += 1
            victim = None
            if len(density_set) >= self._ways:
                victim = density_set.pop(next(iter(density_set)))
                self._n_density_conflicts += 1
            density_set[region] = entry
            return victim

        # First access to the region: allocate in the trigger table.  A
        # displaced single-access region is by definition low density; it
        # is reported anyway so the caller can count it.
        self._n_allocations += 1
        victim = None
        if len(trigger_set) >= self._ways:
            victim = trigger_set.pop(next(iter(trigger_set)))
            self._n_trigger_conflicts += 1
        trigger_set[region] = RegionEntry(region, pc, offset, 1 << offset,
                                          is_write)
        return victim

    # ------------------------------------------------------------------ #
    # LLC eviction stream
    # ------------------------------------------------------------------ #
    def observe_eviction(self, block_address: int) -> Optional[RegionEntry]:
        """Record an LLC eviction; return the terminated entry if it was active."""
        region = block_address // self._region_size
        key_hash = hash(region)
        self._n_evictions_seen += 1
        entry = self._density_sets[key_hash % self._density_num_sets].pop(
            region, None)
        if entry is None:
            entry = self._trigger_sets[key_hash % self._trigger_num_sets].pop(
                region, None)
            if entry is None:
                return None
        self._n_eviction_terminations += 1
        return entry

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def lookup_active(self, block_address: int) -> Optional[RegionEntry]:
        """Return the active entry tracking ``block_address``'s region, if any."""
        region = self.config.region_of(block_address)
        entry = self.density.lookup(region, touch=False)
        if entry is not None:
            return entry
        return self.trigger.lookup(region, touch=False)

    @property
    def active_regions(self) -> int:
        """Number of regions currently tracked in either table."""
        return len(self.trigger) + len(self.density)

    def storage_bits(self) -> int:
        """Storage of both tables.

        Trigger entries hold a region tag, the PC/offset tuple and a dirty
        bit; density entries add the per-block pattern.  With the default
        geometry this lands at roughly 2.5KB + 3KB, matching Section IV.D.
        """
        tag_bits = 30
        pc_offset_bits = 32 + self.config.offset_bits
        trigger_bits = self.config.trigger_entries * (tag_bits + pc_offset_bits + 2)
        density_bits = self.config.density_entries * (
            tag_bits + pc_offset_bits + self.config.blocks_per_region + 2
        )
        return trigger_bits + density_bits
