"""Storage-scaling analysis of Section VI (design scalability & virtualization).

The paper argues BuMP scales to larger CMPs and to virtualised servers with
modest storage growth:

* the region density tracking table (RDTT) grows **linearly with the core
  count**, because more cores interleave more concurrently-active regions;
* the dirty region table (DRT) grows **linearly with the LLC capacity**,
  because a larger LLC keeps more high-density modified regions resident;
* under virtualisation the bulk history table (BHT) must hold the triggering
  instructions of every active workload; with one distinct workload per core
  on a 16-core CMP the paper quotes a 72KB BHT, i.e. ~5KB of BuMP storage per
  core in total.

:func:`scaled_bump_config` applies those scaling rules to a
:class:`repro.core.config.BuMPConfig`, and :func:`storage_scaling_table` /
:func:`virtualization_storage_table` regenerate the numbers the section
quotes; the ``section6`` entry of :mod:`repro.analysis.figures` prints and
checks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.core.bht import BulkHistoryTable
from repro.core.config import BuMPConfig
from repro.core.drt import DirtyRegionTable
from repro.core.rdtt import RegionDensityTracker

#: The reference design point of Section IV.D.
REFERENCE_CORES = 16
REFERENCE_LLC_BYTES = 4 * 1024 * 1024


def _round_to_associativity(entries: float, associativity: int) -> int:
    """Round an entry count up to a whole number of sets."""
    sets = max(1, -(-int(round(entries)) // associativity))
    return sets * associativity


def scaled_bump_config(num_cores: int = REFERENCE_CORES,
                       llc_bytes: int = REFERENCE_LLC_BYTES,
                       workloads_sharing: int = 1,
                       base: BuMPConfig = None) -> BuMPConfig:
    """BuMP structure sizes for a scaled CMP, per the Section VI rules.

    ``workloads_sharing`` is the number of distinct consolidated workloads
    (1 = native execution; ``num_cores`` = the paper's extreme one-workload-
    per-core virtualisation case); the BHT grows linearly with it.
    """
    if num_cores < 1 or llc_bytes < 1 or workloads_sharing < 1:
        raise ValueError("core count, LLC size and workload count must be positive")
    base = base if base is not None else BuMPConfig()
    core_scale = num_cores / REFERENCE_CORES
    llc_scale = llc_bytes / REFERENCE_LLC_BYTES

    return BuMPConfig(
        region_size_bytes=base.region_size_bytes,
        density_threshold_blocks=base.density_threshold_blocks,
        trigger_entries=_round_to_associativity(base.trigger_entries * core_scale,
                                                base.associativity),
        density_entries=_round_to_associativity(base.density_entries * core_scale,
                                                base.associativity),
        bht_entries=_round_to_associativity(base.bht_entries * workloads_sharing,
                                            base.associativity),
        drt_entries=_round_to_associativity(base.drt_entries * llc_scale,
                                            base.associativity),
        associativity=base.associativity,
    )


@dataclass
class StorageBudget:
    """Per-structure storage of one BuMP configuration, in kibibytes."""

    cores: int
    llc_mib: float
    workloads_sharing: int
    rdtt_kib: float
    bht_kib: float
    drt_kib: float

    @property
    def total_kib(self) -> float:
        """Total BuMP storage."""
        return self.rdtt_kib + self.bht_kib + self.drt_kib

    @property
    def per_core_kib(self) -> float:
        """BuMP storage per core (the paper's ~1KB native / ~5KB virtualised)."""
        return self.total_kib / self.cores


def storage_budget(num_cores: int = REFERENCE_CORES,
                   llc_bytes: int = REFERENCE_LLC_BYTES,
                   workloads_sharing: int = 1,
                   base: BuMPConfig = None) -> StorageBudget:
    """Instantiate the scaled structures and measure their storage."""
    config = scaled_bump_config(num_cores, llc_bytes, workloads_sharing, base)
    rdtt = RegionDensityTracker(config)
    bht = BulkHistoryTable(config)
    drt = DirtyRegionTable(config)
    return StorageBudget(
        cores=num_cores,
        llc_mib=llc_bytes / (1024 * 1024),
        workloads_sharing=workloads_sharing,
        rdtt_kib=rdtt.storage_bits() / 8 / 1024,
        bht_kib=bht.storage_bits() / 8 / 1024,
        drt_kib=drt.storage_bits() / 8 / 1024,
    )


def storage_scaling_table(core_counts: Iterable[int] = (16, 32, 64, 128),
                          llc_bytes_per_core: int = REFERENCE_LLC_BYTES // REFERENCE_CORES
                          ) -> List[StorageBudget]:
    """BuMP storage as the CMP scales (LLC grows proportionally with cores)."""
    return [
        storage_budget(num_cores=cores, llc_bytes=cores * llc_bytes_per_core)
        for cores in core_counts
    ]


def virtualization_storage_table(num_cores: int = REFERENCE_CORES,
                                 workload_counts: Iterable[int] = (1, 2, 4, 8, 16)
                                 ) -> List[StorageBudget]:
    """BuMP storage under workload consolidation (Section VI, virtualization)."""
    return [
        storage_budget(num_cores=num_cores, workloads_sharing=workloads)
        for workloads in workload_counts
    ]


def scaling_summary() -> Dict[str, float]:
    """Headline numbers quoted in Sections IV.D and VI.

    ``native_total_kib`` is the ~14KB of the base design; ``virtualized_bht_kib``
    and ``virtualized_per_core_kib`` are the 72KB BHT and ~5KB-per-core figures
    of the extreme one-workload-per-core consolidation case.
    """
    native = storage_budget()
    virtualized = storage_budget(workloads_sharing=REFERENCE_CORES)
    return {
        "native_total_kib": native.total_kib,
        "native_per_core_kib": native.per_core_kib,
        "virtualized_bht_kib": virtualized.bht_kib,
        "virtualized_total_kib": virtualized.total_kib,
        "virtualized_per_core_kib": virtualized.per_core_kib,
    }
