"""An injected cache fault (test helper).

The fuzz oracle's ``lru`` check and the shrinker exist to catch the caches
drifting from their specification, the reference LRU.
:func:`skew_flat_victims` plants the canonical instance of that bug class:
every eviction victim picked from a full set is rotated by one way, in the
L1 stage and in the LLC array alike.
"""

from __future__ import annotations

import numpy as np

from repro.cache.flat import CacheArray
from repro.cache.l1 import StackedL1


def skew_flat_victims(monkeypatch) -> None:
    """Rotate every full-set victim of the caches by one way."""
    victim_slot = CacheArray._victim_slot
    victim_ways = StackedL1._victim_ways

    def skewed_slot(self, set_index, base):
        slot = victim_slot(self, set_index, base)
        return base + (slot - base + 1) % self.ways

    def skewed_ways(self, stamps):
        ways = victim_ways(self, stamps)
        full = stamps.min(axis=1) > 0    # never-filled ways keep stamp 0
        return np.where(full, (ways + 1) % self.ways, ways)

    monkeypatch.setattr(CacheArray, "_victim_slot", skewed_slot)
    monkeypatch.setattr(StackedL1, "_victim_ways", skewed_ways)
