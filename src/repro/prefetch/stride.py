"""Conventional stride prefetcher (the baseline prefetcher of Table II).

The reference-prediction-table design: each entry, indexed by the accessing
instruction's PC, remembers the last block address it touched and the last
observed stride.  When the same PC produces the same stride twice in a row,
the prefetcher becomes confident and issues prefetches for the next
``degree`` blocks along that stride.
"""

from __future__ import annotations

from repro.common.addressing import BLOCK_SIZE
from repro.common.assoc_table import AssociativeTable
from repro.common.stats import StatGroup
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
    """

    name = "stride"

    def __init__(self, degree: int = 4, entries: int = 1024, associativity: int = 4) -> None:
        if degree < 1:
            raise ValueError("prefetch degree must be at least 1")
        self.degree = degree
        self.table: AssociativeTable[tuple, _StrideEntry] = AssociativeTable(
            entries, associativity, name="stride_rpt"
        )
        self.stats = StatGroup("stride")

    def on_access(self, core: int, pc: int, block: int, is_store: bool,
                  hit: bool) -> None:
        """Observe a demand access and emit prefetches on a confirmed stride."""
        key = (core, pc)
        entry = self.table.lookup(key)
        if entry is None:
            self.table.insert(key, _StrideEntry(last_block=block))
            return

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
                self.stats.inc("prefetch_bursts")
                self.stats.inc("prefetches_issued", self.degree)
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


def aligned_stride_blocks(base_block: int, stride_blocks: int, degree: int) -> list:
    """Utility: the block addresses a stride prefetch burst would cover."""
    return [base_block + step * stride_blocks * BLOCK_SIZE for step in range(1, degree + 1)]
