"""An injected flat-engine cache fault (test helper).

The fuzz oracle and shrinker exist to catch one engine drifting from the
other.  :func:`skew_flat_victims` plants the canonical instance of that bug
class: every eviction victim the flat engine picks from a full set is
rotated by one way, in the L1 stage and in the LLC array alike, while the
dict engine is left alone.
"""

from __future__ import annotations

import numpy as np

from repro.cache.flat import FlatSetAssociativeCache
from repro.cache.l1 import StackedL1


def skew_flat_victims(monkeypatch) -> None:
    """Rotate every full-set victim of the flat engine by one way."""
    victim_slot = FlatSetAssociativeCache._victim_slot
    victim_ways = StackedL1._victim_ways

    def skewed_slot(self, set_index, base):
        slot = victim_slot(self, set_index, base)
        return base + (slot - base + 1) % self.ways

    def skewed_ways(self, stamps):
        ways = victim_ways(self, stamps)
        full = stamps.min(axis=1) > 0    # never-filled ways keep stamp 0
        return np.where(full, (ways + 1) % self.ways, ways)

    monkeypatch.setattr(FlatSetAssociativeCache, "_victim_slot", skewed_slot)
    monkeypatch.setattr(StackedL1, "_victim_ways", skewed_ways)
