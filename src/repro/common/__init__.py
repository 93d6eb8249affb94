"""Common infrastructure shared by every subsystem of the BuMP reproduction.

The :mod:`repro.common` package holds the pieces that do not belong to any
single microarchitectural component:

* :mod:`repro.common.params` -- the architectural parameters of Table II of
  the paper (cache geometry, DRAM organisation, DDR3 timing).
* :mod:`repro.common.request` -- the provenance kinds of DRAM transfers.
* :mod:`repro.common.addressing` -- helpers for carving physical addresses
  into blocks, regions and DRAM coordinates.
* :mod:`repro.common.stats` -- lightweight named counters and histograms used
  by every component to expose measurements to the experiment harness.
* :mod:`repro.common.rng` -- deterministic random-number helpers so that every
  experiment is exactly reproducible.
"""

from repro.common.addressing import (
    BLOCK_BITS,
    BLOCK_SIZE,
    REGION_BITS,
    REGION_SIZE,
    BLOCKS_PER_REGION,
    block_address,
    block_index_in_region,
    block_offset,
    region_address,
    region_base,
    region_offset_bits,
)
from repro.common.params import (
    CacheParams,
    CoreParams,
    DDR3Timing,
    DRAMOrganization,
    SystemParams,
)
from repro.common.request import DRAMRequestKind
from repro.common.stats import StatGroup

__all__ = [
    "BLOCK_BITS",
    "BLOCK_SIZE",
    "REGION_BITS",
    "REGION_SIZE",
    "BLOCKS_PER_REGION",
    "block_address",
    "block_index_in_region",
    "block_offset",
    "region_address",
    "region_base",
    "region_offset_bits",
    "CacheParams",
    "CoreParams",
    "DDR3Timing",
    "DRAMOrganization",
    "SystemParams",
    "DRAMRequestKind",
    "StatGroup",
]
