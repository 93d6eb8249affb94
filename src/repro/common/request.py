"""Provenance kinds of block transfers between the LLC and main memory.

Every DRAM transfer is tagged with the reason it was generated (demand
miss, prefetch, bulk read, demand writeback, eager/bulk writeback) so the
experiment harness can attribute traffic, coverage and overfetch.
Transfers never exist as records: the simulator stages them as scalar
columns (block, kind code, arrival cycle, issuing core) for the memory
system's batched intake, and processor-side references travel as
:class:`repro.trace.buffer.TraceBuffer` columns.
"""

from __future__ import annotations

from enum import Enum


class DRAMRequestKind(Enum):
    """Provenance of a DRAM transfer; used for coverage/overfetch accounting."""

    DEMAND_READ = "demand_read"
    PREFETCH_READ = "prefetch_read"
    BULK_READ = "bulk_read"
    DEMAND_WRITEBACK = "demand_writeback"
    EAGER_WRITEBACK = "eager_writeback"
    BULK_WRITEBACK = "bulk_writeback"

    @property
    def is_read(self) -> bool:
        """True for transfers that move data from DRAM to the chip."""
        return self in (
            DRAMRequestKind.DEMAND_READ,
            DRAMRequestKind.PREFETCH_READ,
            DRAMRequestKind.BULK_READ,
        )

    @property
    def is_write(self) -> bool:
        """True for transfers that move data from the chip to DRAM."""
        return not self.is_read

    @property
    def is_demand(self) -> bool:
        """True for transfers directly required by the running program."""
        return self in (
            DRAMRequestKind.DEMAND_READ,
            DRAMRequestKind.DEMAND_WRITEBACK,
        )


# Scheduling and accounting run once per DRAM transfer, and Enum's
# Python-level ``__hash__``/property machinery is measurably slow there.
# Each kind carries a small integer ``code`` so hot paths can classify with
# one attribute load and a tuple index instead of enum dict lookups.
for _code, _kind in enumerate(DRAMRequestKind):
    _kind.code = _code

#: ``KIND_IS_READ[kind.code]`` / ``KIND_IS_DEMAND[kind.code]`` fast tables.
KIND_IS_READ = tuple(kind.is_read for kind in DRAMRequestKind)
KIND_IS_DEMAND = tuple(kind.is_demand for kind in DRAMRequestKind)
