"""DDR3 main-memory substrate.

The paper evaluates BuMP on a two-channel DDR3-1600 memory system with
FR-FCFS scheduling, modelled with DRAMSim2.  This package provides the
equivalent trace-driven model:

* :mod:`repro.dram.address_mapping` -- the two physical address interleaving
  schemes the paper compares: block-level interleaving (used by the
  close-row baseline to maximise bank/channel parallelism) and region-level
  interleaving (used by the open-row baseline, SMS, VWQ and BuMP so that an
  entire 1KB region maps to a single DRAM row).
* :mod:`repro.dram.flat` -- the memory system: per-bank row-buffer state and
  timing, one bounded transaction window per channel served by FR-FCFS,
  FCFS or bank round robin under open-row or close-row pages, and the
  counters the energy and timing models consume, behind a batched
  ``enqueue_block_batch``/``drain`` interface.

:mod:`repro.fuzz.reference_dram` restates the same rules one request at a
time; it is the memory system's specification.
"""

from repro.dram.address_mapping import (
    AddressMapping,
    DRAMCoordinates,
    make_block_interleaving,
    make_region_interleaving,
)
from repro.dram.flat import SCHEDULERS, FlatMemorySystem, PagePolicy

__all__ = [
    "AddressMapping",
    "DRAMCoordinates",
    "make_block_interleaving",
    "make_region_interleaving",
    "FlatMemorySystem",
    "PagePolicy",
    "SCHEDULERS",
]
