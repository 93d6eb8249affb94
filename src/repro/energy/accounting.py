"""Aggregation of component energies into the paper's reported metrics.

Three figures of the paper consume the energy model:

* **Figure 1** needs the *whole-server* energy split across cores, LLC, NOC,
  memory controllers and memory, with memory further split into activation,
  burst & I/O, and background.
* **Figures 9 and 13** need the *dynamic memory energy per access* split into
  activation vs. burst/IO, normalised between systems.
* The text of Section V reports energy per instruction improvements.

:class:`ServerEnergyModel` assembles those views from the DRAM and chip
energy models given the activity counts a simulation produced.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.params import DRAMOrganization, SystemParams
from repro.energy.chip_energy import ChipEnergyBreakdown, ChipEnergyModel
from repro.energy.dram_energy import DRAMEnergyBreakdown, DRAMEnergyModel, MemoryEnergyPerAccess
from repro.energy.params import ChipEnergyParams, DRAMEnergyParams


@dataclass
class EnergyBreakdown:
    """Complete server energy picture for one simulated run."""

    chip: ChipEnergyBreakdown
    dram: DRAMEnergyBreakdown
    instructions: float
    useful_accesses: float

    @property
    def total_nj(self) -> float:
        """Total server energy (on-chip + memory) in nanojoules."""
        return self.chip.total_nj + self.dram.total_nj

    @property
    def energy_per_instruction_nj(self) -> float:
        """Server energy divided by committed application instructions."""
        if self.instructions <= 0:
            return 0.0
        return self.total_nj / self.instructions

    def component_shares(self) -> dict:
        """Fractional energy share of each Figure-1 component."""
        total = self.total_nj
        if total <= 0:
            return {}
        return {
            "cores": self.chip.cores_nj / total,
            "llc": self.chip.llc_nj / total,
            "noc": self.chip.noc_nj / total,
            "memory_controller": self.chip.memory_controller_nj / total,
            "memory_activation": self.dram.activation_nj / total,
            "memory_burst_io": self.dram.burst_io_nj / total,
            "memory_background": self.dram.background_nj / total,
        }

    @property
    def memory_share(self) -> float:
        """Fraction of server energy consumed by main memory."""
        total = self.total_nj
        if total <= 0:
            return 0.0
        return self.dram.total_nj / total


class ServerEnergyModel:
    """Combines the chip and DRAM energy models for one system configuration."""

    def __init__(self, system: SystemParams = None,
                 dram_params: DRAMEnergyParams = None,
                 chip_params: ChipEnergyParams = None) -> None:
        self.system = system if system is not None else SystemParams()
        self.dram_model = DRAMEnergyModel(dram_params, self.system.dram_org)
        self.chip_model = ChipEnergyModel(chip_params, self.system.num_cores)

    def breakdown(self, *, instructions: float, elapsed_seconds: float,
                  aggregate_ipc: float, activations: float, dram_reads: float,
                  dram_writes: float, llc_reads: float, llc_writes: float,
                  noc_utilization: float, channel_utilization: float,
                  useful_accesses: float) -> EnergyBreakdown:
        """Produce the full server energy breakdown for one run."""
        delivered_gbps = self._delivered_bandwidth_gbps(
            dram_reads + dram_writes, elapsed_seconds
        )
        chip = self.chip_model.compute(
            aggregate_ipc=aggregate_ipc,
            llc_reads=llc_reads,
            llc_writes=llc_writes,
            noc_utilization=noc_utilization,
            delivered_bandwidth_gbps=delivered_gbps,
            elapsed_seconds=elapsed_seconds,
        )
        dram = self.dram_model.compute(
            activations=activations,
            reads=dram_reads,
            writes=dram_writes,
            elapsed_seconds=elapsed_seconds,
            utilization=channel_utilization,
        )
        return EnergyBreakdown(
            chip=chip,
            dram=dram,
            instructions=instructions,
            useful_accesses=useful_accesses,
        )

    def memory_energy_per_access(self, activations: float, dram_reads: float,
                                 dram_writes: float,
                                 useful_accesses: float) -> MemoryEnergyPerAccess:
        """Dynamic memory energy per useful access, as plotted in Figure 9."""
        return self.dram_model.energy_per_access_nj(
            activations, dram_reads, dram_writes, useful_accesses
        )

    @staticmethod
    def _delivered_bandwidth_gbps(transfers: float, elapsed_seconds: float) -> float:
        if elapsed_seconds <= 0:
            return 0.0
        return transfers * 64.0 / elapsed_seconds / 1e9
