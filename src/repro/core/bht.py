"""Bulk History Table (BHT).

The BHT holds one entry per (PC, offset) tuple that has been observed to
trigger a high-density region.  It is trained by the RDTT when a high-density
region terminates, and probed on every LLC miss: a hit predicts that the miss
falls into a high-density region and causes the access generation logic to
issue a bulk read of the region's remaining blocks (Section IV.B).

Entries carry only a valid bit in the paper; here each entry also remembers
how many times it was trained and how many bulk transfers it triggered so the
experiment harness can report predictor behaviour.

Probes and trainings work on the table's sets directly (key ``(pc, offset)``
in set ``hash(key) % num_sets``, LRU per set, as
:class:`~repro.common.assoc_table.AssociativeTable` lays them out) and count
in plain ints folded into the :class:`StatGroup` on read.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.common.assoc_table import AssociativeTable
from repro.common.stats import StatGroup, fold_pending
from repro.core.config import BuMPConfig


class BHTEntry:
    """Metadata stored for one learned (PC, offset) tuple."""

    __slots__ = ("trainings", "triggers")

    def __init__(self, trainings: int = 1, triggers: int = 0) -> None:
        self.trainings = trainings
        self.triggers = triggers


class BulkHistoryTable:
    """Predicts whether an LLC miss falls into a high-density region."""

    #: (pending attribute, StatGroup key) pairs folded by ``stats``.
    _PENDING_COUNTERS = (
        ("_n_trainings", "trainings"),
        ("_n_probes", "probes"),
        ("_n_hits", "hits"),
    )

    def __init__(self, config: BuMPConfig = None) -> None:
        self.config = config if config is not None else BuMPConfig()
        self.table: AssociativeTable[Tuple[int, int], BHTEntry] = AssociativeTable(
            self.config.bht_entries, self.config.associativity, name="bht"
        )
        self._sets = self.table.sets
        self._num_sets = self.table.num_sets
        self._ways = self.table.associativity
        self._stats = StatGroup("bht")
        for attr, _key in self._PENDING_COUNTERS:
            setattr(self, attr, 0)

    @property
    def stats(self) -> StatGroup:
        """Counters (pending hot increments folded in)."""
        return fold_pending(self, self._stats, self._PENDING_COUNTERS)

    def train(self, pc: int, offset: int) -> None:
        """Record that (``pc``, ``offset``) triggered a high-density region."""
        key = (pc, offset)
        table_set = self._sets[hash(key) % self._num_sets]
        self._n_trainings += 1
        entry = table_set.get(key)
        if entry is not None:
            del table_set[key]  # promote to most-recently used
            table_set[key] = entry
            entry.trainings += 1
            return
        if len(table_set) >= self._ways:
            del table_set[next(iter(table_set))]
        table_set[key] = BHTEntry()

    def predict(self, pc: int, offset: int) -> bool:
        """True when an LLC miss from (``pc``, ``offset``) should bulk-fetch."""
        key = (pc, offset)
        table_set = self._sets[hash(key) % self._num_sets]
        self._n_probes += 1
        entry = table_set.get(key)
        if entry is None:
            return False
        del table_set[key]  # promote to most-recently used
        table_set[key] = entry
        entry.triggers += 1
        self._n_hits += 1
        return True

    def entry_for(self, pc: int, offset: int) -> Optional[BHTEntry]:
        """Inspect the entry for a tuple without touching statistics."""
        return self.table.lookup((pc, offset), touch=False)

    @property
    def hit_ratio(self) -> float:
        """Fraction of LLC-miss probes that predicted a bulk transfer."""
        return self.stats.ratio("hits", "probes")

    def storage_bits(self) -> int:
        """Storage: PC tag + offset + valid per entry (~4.5KB at the default size)."""
        bits_per_entry = 32 + self.config.offset_bits + 1
        return self.config.bht_entries * bits_per_entry
