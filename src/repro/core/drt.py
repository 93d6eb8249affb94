"""Dirty Region Table (DRT).

Most density-table terminations happen because of table conflicts, *before*
the region's first dirty LLC eviction (Section IV.C).  To still be able to
stream such a region's writebacks in bulk later, BuMP records terminated
high-density *modified* regions in the DRT, indexed by region address.

On a dirty LLC eviction the DRT is probed; a hit means the evicted block
belongs to a known high-density modified region, so the writeback generation
logic issues bulk writebacks for the region's remaining dirty blocks and the
entry is invalidated.

Inserts and probes work on the table's sets directly (region in set
``hash(region) % num_sets``, LRU per set, as
:class:`~repro.common.assoc_table.AssociativeTable` lays them out) and count
in plain ints folded into the :class:`StatGroup` on read.
"""

from __future__ import annotations

from repro.common.assoc_table import AssociativeTable
from repro.common.stats import StatGroup, fold_pending
from repro.core.config import BuMPConfig


class DirtyRegionTable:
    """Tracks cache-resident high-density modified regions."""

    #: (pending attribute, StatGroup key) pairs folded by ``stats``.
    _PENDING_COUNTERS = (
        ("_n_insertions", "insertions"),
        ("_n_conflict_evictions", "conflict_evictions"),
        ("_n_probes", "probes"),
        ("_n_hits", "hits"),
    )

    def __init__(self, config: BuMPConfig = None) -> None:
        self.config = config if config is not None else BuMPConfig()
        self.table: AssociativeTable[int, bool] = AssociativeTable(
            self.config.drt_entries, self.config.associativity, name="drt"
        )
        self._sets = self.table.sets
        self._num_sets = self.table.num_sets
        self._ways = self.table.associativity
        self._stats = StatGroup("drt")
        for attr, _key in self._PENDING_COUNTERS:
            setattr(self, attr, 0)

    @property
    def stats(self) -> StatGroup:
        """Counters (pending hot increments folded in)."""
        return fold_pending(self, self._stats, self._PENDING_COUNTERS)

    def insert(self, region: int) -> None:
        """Record ``region`` as a high-density modified region."""
        self._n_insertions += 1
        table_set = self._sets[hash(region) % self._num_sets]
        if region in table_set:
            del table_set[region]  # re-insert as most-recently used
        elif len(table_set) >= self._ways:
            del table_set[next(iter(table_set))]
            self._n_conflict_evictions += 1
        table_set[region] = True

    def probe_and_invalidate(self, region: int) -> bool:
        """Probe on a dirty eviction; a hit consumes (invalidates) the entry."""
        self._n_probes += 1
        if self._sets[hash(region) % self._num_sets].pop(region, None) is None:
            return False
        self._n_hits += 1
        return True

    def contains(self, region: int) -> bool:
        """Presence check that does not consume the entry (test helper)."""
        return self.table.contains(region)

    def invalidate(self, region: int) -> None:
        """Drop a region (used when its blocks all left the LLC)."""
        self.table.remove(region)

    def __len__(self) -> int:
        return len(self.table)

    @property
    def hit_ratio(self) -> float:
        """Fraction of dirty-eviction probes that found a tracked region."""
        return self.stats.ratio("hits", "probes")

    def storage_bits(self) -> int:
        """Storage: region tag + valid per entry (~4.25KB at the default size)."""
        bits_per_entry = 33
        return self.config.drt_entries * bits_per_entry
