"""Record types for block transfers between the LLC and main memory.

A :class:`DRAMRequest` is one block transfer, tagged with the reason it was
generated (demand miss, prefetch, bulk read, demand writeback, eager/bulk
writeback) so the experiment harness can attribute traffic, coverage and
overfetch.  Processor-side references never exist as records: they travel
as :class:`repro.trace.buffer.TraceBuffer` columns.
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


class DRAMRequest:
    """One 64-byte transfer between the LLC and main memory.

    A plain ``__slots__`` class (one is allocated per transfer on the
    simulator hot path).  Equality compares the identity fields only --
    ``row_hit`` and ``latency_cycles`` are measurement outputs, matching the
    ``compare=False`` semantics of the original dataclass.
    """

    __slots__ = ("block_address", "kind", "core", "pc", "arrival_cycle",
                 "row_hit", "latency_cycles")

    def __init__(self, block_address: int, kind: DRAMRequestKind, core: int = 0,
                 pc: int = 0, arrival_cycle: float = 0.0) -> None:
        self.block_address = block_address
        self.kind = kind
        self.core = core
        self.pc = pc
        #: Core-clock cycle at which the request became visible to the memory
        #: controller.  Filled in by the system model.
        self.arrival_cycle = arrival_cycle
        #: Set by the memory controller: whether the column access hit in an
        #: already-open row buffer.
        self.row_hit = False
        #: Set by the memory controller: total latency in memory-bus cycles
        #: from arrival to completion (queueing + bank timing + burst).
        self.latency_cycles = 0.0

    def __eq__(self, other) -> bool:
        if not isinstance(other, DRAMRequest):
            return NotImplemented
        return (self.block_address == other.block_address
                and self.kind == other.kind
                and self.core == other.core
                and self.pc == other.pc
                and self.arrival_cycle == other.arrival_cycle)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DRAMRequest(block_address=0x{self.block_address:x}, "
                f"kind={self.kind}, core={self.core}, pc={self.pc}, "
                f"arrival_cycle={self.arrival_cycle})")

    @property
    def is_read(self) -> bool:
        """True when the transfer moves data from DRAM toward the chip."""
        return self.kind.is_read

    @property
    def is_write(self) -> bool:
        """True when the transfer moves data from the chip into DRAM."""
        return self.kind.is_write
