"""Micron-style DRAM energy model.

Dynamic DRAM energy has two parts the paper's figures separate:

* **Activation energy** -- one fixed cost per row activation (page open plus
  the implied precharge).  This is the component bulk streaming amortises:
  serving sixteen blocks of a region from one activation pays the 29.7 nJ
  once instead of up to sixteen times.
* **Burst & I/O energy** -- per 64-byte transfer: the array burst plus the
  I/O and on-die-termination energy on the channel.

Background (static) power is charged per rank for the duration of the run,
scaled between the idle and active values by channel utilisation, mirroring
how the Micron power calculator interpolates between IDD3N-style idle and
active-standby currents.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.params import DRAMOrganization
from repro.energy.params import DRAMEnergyParams


@dataclass
class DRAMEnergyBreakdown:
    """Energy consumed by main memory over a simulated interval (nanojoules)."""

    activation_nj: float
    read_burst_io_nj: float
    write_burst_io_nj: float
    background_nj: float

    @property
    def burst_io_nj(self) -> float:
        """Total burst + I/O energy (reads and writes)."""
        return self.read_burst_io_nj + self.write_burst_io_nj

    @property
    def dynamic_nj(self) -> float:
        """Activation plus burst/IO energy."""
        return self.activation_nj + self.burst_io_nj

    @property
    def total_nj(self) -> float:
        """Dynamic plus background energy."""
        return self.dynamic_nj + self.background_nj


class DRAMEnergyModel:
    """Computes DRAM energy from memory-controller event counts."""

    def __init__(self, params: DRAMEnergyParams = None,
                 org: DRAMOrganization = None) -> None:
        self.params = params if params is not None else DRAMEnergyParams()
        self.org = org if org is not None else DRAMOrganization()

    @property
    def total_ranks(self) -> int:
        """Number of 2GB ranks in the memory system."""
        return self.org.channels * self.org.ranks_per_channel

    def background_power_w(self, utilization: float) -> float:
        """Background power of the whole memory system at a given utilisation."""
        utilization = min(max(utilization, 0.0), 1.0)
        per_rank = (
            self.params.background_power_idle_w
            + utilization
            * (self.params.background_power_active_w - self.params.background_power_idle_w)
        )
        return per_rank * self.total_ranks

    def compute(self, activations: float, reads: float, writes: float,
                elapsed_seconds: float, utilization: float = 0.0) -> DRAMEnergyBreakdown:
        """Energy for a run with the given command counts and duration."""
        params = self.params
        activation_nj = activations * params.activation_energy_nj
        read_nj = reads * params.read_transfer_energy_nj
        write_nj = writes * params.write_transfer_energy_nj
        background_nj = self.background_power_w(utilization) * elapsed_seconds * 1e9
        return DRAMEnergyBreakdown(
            activation_nj=activation_nj,
            read_burst_io_nj=read_nj,
            write_burst_io_nj=write_nj,
            background_nj=background_nj,
        )

    def energy_per_access_nj(self, activations: float, reads: float, writes: float,
                             useful_accesses: float) -> "MemoryEnergyPerAccess":
        """Dynamic memory energy per *useful* access, split as in Figure 9.

        ``useful_accesses`` is the number of demand transfers the program
        actually required (demand reads plus demand writebacks of the
        baseline traffic).  Overfetched blocks and premature writebacks
        inflate the numerator but not the denominator, which is what makes
        the indiscriminate Full-region scheme look (correctly) bad.
        """
        if useful_accesses <= 0:
            return MemoryEnergyPerAccess(0.0, 0.0)
        breakdown = self.compute(activations, reads, writes, elapsed_seconds=0.0)
        return MemoryEnergyPerAccess(
            activation_nj=breakdown.activation_nj / useful_accesses,
            burst_io_nj=breakdown.burst_io_nj / useful_accesses,
        )


@dataclass
class MemoryEnergyPerAccess:
    """Per-access dynamic memory energy, split into the Figure 9 components."""

    activation_nj: float
    burst_io_nj: float

    @property
    def total_nj(self) -> float:
        """Activation plus burst/IO energy per access."""
        return self.activation_nj + self.burst_io_nj
