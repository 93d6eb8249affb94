"""Next-N-line prefetcher.

The simplest spatial prefetcher: on every demand LLC miss, fetch the next
``degree`` sequential cache blocks.  It needs no state at all, which makes it
a useful lower bound in the prefetcher ablation: it captures strictly
sequential scans (media streaming buffers) but pays overfetch on everything
else and is blind to the data-dependent visiting orders that spatial
footprint schemes (SMS) and BuMP capture.
"""

from __future__ import annotations

from repro.common.addressing import BLOCK_SIZE
from repro.common.stats import StatGroup
from repro.cache.agent import LLCAgent


class NextLinePrefetcher(LLCAgent):
    """Fetch the next ``degree`` sequential blocks on every LLC miss."""

    name = "nextline"

    def __init__(self, degree: int = 1, miss_triggered: bool = True) -> None:
        if degree < 1:
            raise ValueError("prefetch degree must be at least 1")
        self.degree = degree
        #: When False the prefetcher also triggers on LLC hits (more aggressive).
        self.miss_triggered = miss_triggered
        self.stats = StatGroup("nextline")

    def _emit(self, block: int) -> None:
        fetches = self.fetches
        for step in range(1, self.degree + 1):
            fetches.append(block + step * BLOCK_SIZE)
        self.stats.inc("prefetch_bursts")
        self.stats.inc("prefetches_issued", self.degree)

    def on_access(self, core: int, pc: int, block: int, is_store: bool,
                  hit: bool) -> None:
        """Optionally trigger on hits as well as misses."""
        if not self.miss_triggered and not hit:
            self._emit(block)

    def on_miss(self, core: int, pc: int, block: int, is_store: bool) -> None:
        """Trigger a sequential burst on a demand miss."""
        if self.miss_triggered:
            self._emit(block)

    def storage_bits(self) -> int:
        """The next-line prefetcher holds no prediction state."""
        return 0
