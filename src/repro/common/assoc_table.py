"""Set-associative predictor table.

BuMP's trigger, density, bulk-history and dirty-region tables, as well as the
SMS pattern tables, are all small set-associative SRAM structures with LRU
replacement.  :class:`AssociativeTable` models exactly that: a bounded
key-value store organised as ``entries / associativity`` sets, where
insertion into a full set evicts the least-recently-used entry of that set
and reports the eviction to the caller (BuMP uses such conflict evictions as
region terminations).

The layout is part of the contract, because the predictors on the
simulator's per-access path (BuMP's four tables, SMS's two, the stride
prefetcher's one) operate on
:attr:`AssociativeTable.sets` directly instead of paying a method call per
operation:

* a key lives in set ``hash(key) % num_sets``;
* each set is a dict ordered least- to most-recently used: a hit that
  promotes deletes and re-inserts the key, and inserting into a full set
  evicts the first key.

Those direct users keep their own statistics; the ``lookups`` / ``hits`` /
``insertions`` / ``conflict_evictions`` counters here count method calls
only.
"""

from __future__ import annotations

from typing import Dict, Generic, Hashable, Iterator, List, Optional, Tuple, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class AssociativeTable(Generic[K, V]):
    """A bounded set-associative table with LRU replacement per set."""

    def __init__(self, entries: int, associativity: int, name: str = "table") -> None:
        if entries <= 0 or associativity <= 0:
            raise ValueError("entries and associativity must be positive")
        if entries % associativity != 0:
            raise ValueError("entries must be a multiple of associativity")
        self.name = name
        self.entries = entries
        self.associativity = associativity
        self.num_sets = entries // associativity
        #: One LRU-ordered dict per set (see the module docstring).
        self.sets: List[Dict[K, V]] = [dict() for _ in range(self.num_sets)]
        self.lookups = 0
        self.hits = 0
        self.insertions = 0
        self.conflict_evictions = 0

    def _set_for(self, key: K) -> Dict[K, V]:
        return self.sets[hash(key) % self.num_sets]

    def lookup(self, key: K, touch: bool = True) -> Optional[V]:
        """Return the value stored under ``key`` or ``None``.

        ``touch`` promotes the entry to most-recently-used on a hit.
        """
        self.lookups += 1
        table_set = self._set_for(key)
        value = table_set.get(key)
        if value is None:
            return None
        self.hits += 1
        if touch:
            del table_set[key]
            table_set[key] = value
        return value

    def contains(self, key: K) -> bool:
        """Presence check that does not perturb LRU order or statistics."""
        return key in self._set_for(key)

    def insert(self, key: K, value: V) -> Optional[Tuple[K, V]]:
        """Insert or update ``key``; return the evicted (key, value) if any."""
        self.insertions += 1
        table_set = self._set_for(key)
        if key in table_set:
            del table_set[key]
            table_set[key] = value
            return None
        victim: Optional[Tuple[K, V]] = None
        if len(table_set) >= self.associativity:
            victim_key = next(iter(table_set))
            victim = (victim_key, table_set.pop(victim_key))
            self.conflict_evictions += 1
        table_set[key] = value
        return victim

    def remove(self, key: K) -> Optional[V]:
        """Remove ``key`` and return its value, or ``None`` when absent."""
        return self._set_for(key).pop(key, None)

    def __len__(self) -> int:
        return sum(len(s) for s in self.sets)

    def __iter__(self) -> Iterator[Tuple[K, V]]:
        for table_set in self.sets:
            yield from table_set.items()

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups that found their key."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups
