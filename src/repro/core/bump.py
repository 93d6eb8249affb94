"""The BuMP engine: bulk memory access prediction and streaming.

This class wires the RDTT, BHT and DRT together exactly as Figure 6 of the
paper describes and exposes the result as an LLC agent:

* every demand LLC access (read or write) trains the RDTT;
* every LLC miss probes the BHT with the (PC, offset) of the missing access;
  a hit triggers a *bulk read* of the region's other blocks;
* every LLC eviction terminates the victim's active region (if any); a
  terminated high-density region trains the BHT, and a terminated
  high-density *modified* region either triggers *bulk writebacks* right away
  (when the termination was a dirty eviction) or is remembered in the DRT;
* every dirty LLC eviction that does not belong to an active region probes
  the DRT; a hit triggers bulk writebacks and consumes the entry.

The engine never touches the LLC or memory directly: it appends the block
addresses to fetch or write back to the system's action sink (see
:mod:`repro.cache.agent`) and the system model performs (and attributes) the
traffic.
"""

from __future__ import annotations

from typing import Optional

from repro.common.addressing import BLOCK_SIZE
from repro.common.stats import StatGroup, fold_pending
from repro.cache.agent import FLAG_DIRTY, LLCAgent
from repro.core.bht import BulkHistoryTable
from repro.core.config import BuMPConfig
from repro.core.drt import DirtyRegionTable
from repro.core.rdtt import RegionDensityTracker, RegionEntry


class BuMPPredictor(LLCAgent):
    """Bulk Memory Access Prediction and Streaming."""

    name = "bump"

    #: (pending attribute, StatGroup key) pairs folded by ``stats``.
    _PENDING_COUNTERS = (
        ("_n_rdtt_accesses", "rdtt_accesses"),
        ("_n_bht_probes", "bht_probes"),
        ("_n_bulk_read_triggers", "bulk_read_triggers"),
        ("_n_bulk_read_blocks", "bulk_read_blocks_requested"),
        ("_n_evictions_observed", "evictions_observed"),
        ("_n_drt_probes", "drt_probes"),
        ("_n_regions_terminated", "regions_terminated"),
        ("_n_regions_low_density", "regions_low_density"),
        ("_n_regions_high_density", "regions_high_density"),
        ("_n_regions_high_density_modified", "regions_high_density_modified"),
        ("_n_bulk_writeback_triggers", "bulk_writeback_triggers"),
        ("_n_bulk_writeback_blocks", "bulk_writeback_blocks_requested"),
    )

    def __init__(self, config: BuMPConfig = None) -> None:
        self.config = config if config is not None else BuMPConfig()
        self.rdtt = RegionDensityTracker(self.config)
        self.bht = BulkHistoryTable(self.config)
        self.drt = DirtyRegionTable(self.config)
        self._region_size = self.config.region_size_bytes
        self._threshold = self.config.density_threshold_blocks
        self._stats = StatGroup("bump")
        for attr, _key in self._PENDING_COUNTERS:
            setattr(self, attr, 0)

    @property
    def stats(self) -> StatGroup:
        """Counters (pending hot increments folded in)."""
        return fold_pending(self, self._stats, self._PENDING_COUNTERS)

    # ------------------------------------------------------------------ #
    # LLC access stream (read and write requests after the L1 filter)
    # ------------------------------------------------------------------ #
    def on_access(self, core: int, pc: int, block: int, is_store: bool,
                  hit: bool) -> None:
        """Train the RDTT with a demand access; handle a conflict termination."""
        self._n_rdtt_accesses += 1
        displaced = self.rdtt.observe_access(block, pc, is_store)
        if displaced is not None:
            self._terminate(displaced, False, None)

    # ------------------------------------------------------------------ #
    # LLC miss stream (bulk read prediction)
    # ------------------------------------------------------------------ #
    def on_miss(self, core: int, pc: int, block: int, is_store: bool) -> None:
        """Probe the BHT; on a hit, bulk-read the region's other blocks."""
        region_size = self._region_size
        offset = (block % region_size) // BLOCK_SIZE
        self._n_bht_probes += 1
        if not self.bht.predict(pc, offset):
            return

        self._n_bulk_read_triggers += 1
        fetches = self.fetches
        requested = len(fetches)
        base = block - block % region_size
        for candidate in range(base, base + region_size, BLOCK_SIZE):
            if candidate != block:
                fetches.append(candidate)
        self._n_bulk_read_blocks += len(fetches) - requested

    # ------------------------------------------------------------------ #
    # LLC eviction stream (region termination and bulk writebacks)
    # ------------------------------------------------------------------ #
    def on_eviction(self, block: int, flags: int) -> None:
        """Terminate the victim's region and generate bulk writebacks."""
        self._n_evictions_observed += 1
        dirty = bool(flags & FLAG_DIRTY)
        terminated = self.rdtt.observe_eviction(block)
        if terminated is not None:
            self._terminate(terminated, dirty, block)
            return

        if dirty:
            region = block // self._region_size
            self._n_drt_probes += 1
            if self.drt.probe_and_invalidate(region):
                self._bulk_writeback(region, block)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _terminate(self, entry: RegionEntry, dirty_eviction: bool,
                   evicted_block: Optional[int]) -> None:
        """A region stopped being tracked: train the BHT, stream or defer writebacks.

        ``dirty_eviction`` is true when a dirty LLC eviction of
        ``evicted_block`` ended the region (false for clean evictions and
        table conflicts).
        """
        self._n_regions_terminated += 1
        if bin(entry.pattern).count("1") < self._threshold:
            self._n_regions_low_density += 1
            return

        self._n_regions_high_density += 1
        self.bht.train(entry.trigger_pc, entry.trigger_offset)

        if not entry.dirty:
            return
        self._n_regions_high_density_modified += 1

        if dirty_eviction:
            # The first dirty eviction of a high-density modified region:
            # stream the rest of the region's writebacks right now.
            self._bulk_writeback(entry.region, evicted_block)
        else:
            # Terminated by a conflict or by a clean eviction: remember the
            # region so a later dirty eviction can trigger the bulk writeback.
            self.drt.insert(entry.region)

    def _bulk_writeback(self, region: int, excluded_block: Optional[int]) -> None:
        self._n_bulk_writeback_triggers += 1
        writebacks = self.writebacks
        requested = len(writebacks)
        base = region * self._region_size
        for block in range(base, base + self._region_size, BLOCK_SIZE):
            if block != excluded_block:
                writebacks.append(block)
        self._n_bulk_writeback_blocks += len(writebacks) - requested

    # ------------------------------------------------------------------ #
    # Overheads
    # ------------------------------------------------------------------ #
    def storage_bits(self) -> int:
        """Total storage of BuMP's structures (~14KB at the default geometry)."""
        return (self.rdtt.storage_bits() + self.bht.storage_bits()
                + self.drt.storage_bits())

    def structure_access_counts(self) -> dict:
        """Access counts used by the on-chip energy overhead analysis."""
        stats = self.stats
        return {
            "rdtt": stats["rdtt_accesses"] + stats["evictions_observed"],
            "bht_drt": stats["bht_probes"] + stats["drt_probes"]
                        + self.bht.stats["trainings"] + self.drt.stats["insertions"],
        }
