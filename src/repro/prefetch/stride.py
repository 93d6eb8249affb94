"""Conventional stride prefetcher (the baseline prefetcher of Table II).

The reference-prediction-table design: each entry, indexed by the accessing
instruction's PC, remembers the last block address it touched and the last
observed stride.  When the same PC produces the same stride twice in a row,
the prefetcher becomes confident and issues prefetches for the next
``degree`` blocks along that stride.
"""

from __future__ import annotations

from repro.common.assoc_table import AssociativeTable
from repro.common.stats import StatGroup, fold_pending
from repro.cache.agent import LLCAgent


class _StrideEntry:
    __slots__ = ("last_block", "stride", "confident")

    def __init__(self, last_block: int, stride: int = 0,
                 confident: bool = False) -> None:
        self.last_block = last_block
        self.stride = stride
        self.confident = confident


class StridePrefetcher(LLCAgent):
    """Stride prefetcher with a configurable degree.

    Entries are indexed by (core, PC): the structure is shared at the LLC but
    each core's instruction streams train their own entries, so the
    interleaving of requests from sixteen cores does not destroy stride
    detection (mirroring the per-core training of commercial designs).

    :meth:`on_access` runs on every LLC access, so it operates on the
    table's sets directly (as :class:`~repro.common.assoc_table.AssociativeTable`
    lays them out), with counters as plain ints folded on read.
    """

    name = "stride"

    #: (pending attribute, StatGroup key) pairs folded by ``stats``.
    _PENDING_COUNTERS = (
        ("_n_prefetch_bursts", "prefetch_bursts"),
        ("_n_prefetches_issued", "prefetches_issued"),
    )

    def __init__(self, degree: int = 4, entries: int = 1024, associativity: int = 4) -> None:
        if degree < 1:
            raise ValueError("prefetch degree must be at least 1")
        self.degree = degree
        self.table: AssociativeTable[tuple, _StrideEntry] = AssociativeTable(
            entries, associativity, name="stride_rpt"
        )
        self._ways = associativity
        self._sets = self.table.sets
        self._num_sets = self.table.num_sets
        self._stats = StatGroup("stride")
        for attr, _key in self._PENDING_COUNTERS:
            setattr(self, attr, 0)

    @property
    def stats(self) -> StatGroup:
        """Counters (pending hot increments folded in)."""
        return fold_pending(self, self._stats, self._PENDING_COUNTERS)

    def on_access(self, core: int, pc: int, block: int, is_store: bool,
                  hit: bool) -> None:
        """Observe a demand access and emit prefetches on a confirmed stride."""
        key = (core, pc)
        table_set = self._sets[hash(key) % self._num_sets]
        entry = table_set.pop(key, None)
        if entry is None:
            if len(table_set) >= self._ways:
                del table_set[next(iter(table_set))]
            table_set[key] = _StrideEntry(last_block=block)
            return
        table_set[key] = entry  # re-inserted: now the most recently used

        stride = block - entry.last_block
        if stride == 0:
            # Same-block re-reference (mostly filtered by the L1); ignore it
            # rather than tearing down an established stride.
            return
        if stride == entry.stride:
            if entry.confident:
                fetches = self.fetches
                for step in range(1, self.degree + 1):
                    fetches.append(block + step * stride)
                self._n_prefetch_bursts += 1
                self._n_prefetches_issued += self.degree
            entry.confident = True
        else:
            entry.confident = False
        entry.stride = stride
        entry.last_block = block

    def storage_bits(self) -> int:
        """Storage of the reference prediction table (tag + address + stride)."""
        bits_per_entry = 16 + 42 + 16 + 1
        return self.table.entries * bits_per_entry

    @property
    def issued(self) -> int:
        """Total prefetches issued so far."""
        return int(self.stats["prefetches_issued"])
