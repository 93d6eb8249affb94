"""BuMP: Bulk Memory Access Prediction and Streaming (the paper's contribution).

This package implements the three shared structures Figure 6 of the paper
places next to the LLC, plus the glue that turns their predictions into bulk
transfers:

* :class:`repro.core.rdtt.RegionDensityTracker` -- the *region density
  tracking table* (RDTT), internally split into a trigger table (regions with
  a single accessed block) and a density table (regions with more than one
  accessed block, tracking a per-block access pattern and a dirty bit).
* :class:`repro.core.bht.BulkHistoryTable` -- prediction metadata keyed by
  the (PC, offset) of the instruction that triggered a high-density region.
* :class:`repro.core.drt.DirtyRegionTable` -- cache-resident high-density
  *modified* regions whose tracking entry was displaced before their first
  dirty eviction.
* :class:`repro.core.bump.BuMPPredictor` -- the complete engine: it monitors
  LLC accesses, misses and evictions, trains the tables, and generates bulk
  read and bulk writeback requests.
* :class:`repro.core.fullregion.FullRegionStreamer` -- the indiscriminate
  "Full-region" design the paper uses as a foil (bulk-transfer every region,
  no density prediction).

The default geometry matches Section IV.D: 1KB regions, a density threshold
of eight blocks, 256-entry trigger and density tables, 1024-entry BHT and
DRT, all 16-way set-associative, for roughly 14KB of storage.
"""

from repro.core.bht import BulkHistoryTable
from repro.core.bump import BuMPPredictor
from repro.core.config import BuMPConfig
from repro.core.drt import DirtyRegionTable
from repro.core.fullregion import FullRegionStreamer
from repro.core.rdtt import RegionDensityTracker, RegionEntry

__all__ = [
    "BulkHistoryTable",
    "BuMPPredictor",
    "BuMPConfig",
    "DirtyRegionTable",
    "FullRegionStreamer",
    "RegionDensityTracker",
    "RegionEntry",
]
