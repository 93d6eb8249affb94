"""The indiscriminate "Full-region" streaming design (the paper's foil).

Full-region performs bulk transfers without any density prediction: every LLC
miss fetches the whole region, and every dirty LLC eviction writes back the
whole region.  Section V shows why this is a bad idea -- coverage rises a
little over BuMP, but overfetch explodes (4.3x extra reads on average), the
LLC thrashes, memory bandwidth saturates, and both energy and performance
collapse on bandwidth-hungry workloads.  Reproducing that collapse is part of
validating that the simulator punishes indiscriminate streaming the way real
memory systems do.
"""

from __future__ import annotations

from repro.common.stats import StatGroup
from repro.cache.agent import FLAG_DIRTY, LLCAgent
from repro.core.config import BuMPConfig


class FullRegionStreamer(LLCAgent):
    """Bulk-transfer every region on every miss and every dirty eviction."""

    name = "full_region"

    def __init__(self, config: BuMPConfig = None) -> None:
        self.config = config if config is not None else BuMPConfig()
        self.stats = StatGroup("full_region")

    def _region_except(self, block: int, sink: list) -> int:
        """Append ``block``'s region minus ``block`` itself; return the count."""
        config = self.config
        requested = len(sink)
        for candidate in config.region_blocks(config.region_of(block)):
            if candidate != block:
                sink.append(candidate)
        return len(sink) - requested

    def on_miss(self, core: int, pc: int, block: int, is_store: bool) -> None:
        """Fetch the whole region around every LLC miss."""
        requested = self._region_except(block, self.fetches)
        self.stats.inc("bulk_read_triggers")
        self.stats.inc("bulk_read_blocks_requested", requested)

    def on_eviction(self, block: int, flags: int) -> None:
        """Write back the whole region around every dirty eviction."""
        if not flags & FLAG_DIRTY:
            return
        requested = self._region_except(block, self.writebacks)
        self.stats.inc("bulk_writeback_triggers")
        self.stats.inc("bulk_writeback_blocks_requested", requested)

    def storage_bits(self) -> int:
        """Full-region needs no prediction state at all."""
        return 0
