"""Injected cache faults (test helper).

The fuzz oracle's ``lru`` check and the shrinker exist to catch the caches
drifting from their specification, the reference LRU.  These helpers plant
the canonical instance of that bug class, a wrong eviction victim in a full
set: :func:`skew_llc_victims` in the LLC array, :func:`skew_l1_victims` in
the L1 stage, and :func:`skew_flat_victims` in both.
"""

from __future__ import annotations

import numpy as np

from repro.cache.flat import CacheArray
from repro.cache.l1 import StackedL1
from repro.common.addressing import BLOCK_BITS


def skew_llc_victims(monkeypatch) -> None:
    """Make the LLC array evict the second-least-recently-used line of a full set."""
    fill = CacheArray.fill

    def skewed_fill(self, block_address, *args, **kwargs):
        lines = self.sets[(block_address >> BLOCK_BITS) % self.num_sets]
        if len(lines) == self.ways > 1:
            # Swap the two oldest lines, so the second oldest goes first.
            order = list(lines.items())
            order[0], order[1] = order[1], order[0]
            lines.clear()
            lines.update(order)
        return fill(self, block_address, *args, **kwargs)

    monkeypatch.setattr(CacheArray, "fill", skewed_fill)


def skew_l1_victims(monkeypatch) -> None:
    """Rotate every full-set victim of the L1 stage by one way."""
    victim_ways = StackedL1._victim_ways

    def skewed_ways(self, stamps):
        ways = victim_ways(self, stamps)
        full = stamps.min(axis=1) > 0    # never-filled ways keep stamp 0
        return np.where(full, (ways + 1) % self.ways, ways)

    monkeypatch.setattr(StackedL1, "_victim_ways", skewed_ways)


def skew_flat_victims(monkeypatch) -> None:
    """Pick a wrong full-set victim in the L1 stage and in the LLC array alike."""
    skew_llc_victims(monkeypatch)
    skew_l1_victims(monkeypatch)
