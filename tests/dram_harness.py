"""Small memory systems and hand-placed transfers (test helper).

The DRAM timing and scheduling tests drive a
:class:`~repro.dram.flat.FlatMemorySystem` directly: they place transfers on
chosen (rank, bank, row) coordinates, serve them, and read the outcome off
the engine's counters and per-bank state.
"""

from repro.common.addressing import BLOCK_BITS
from repro.common.params import DDR3Timing, DRAMOrganization
from repro.common.request import DRAMRequestKind
from repro.dram.address_mapping import make_region_interleaving
from repro.dram.flat import FlatMemorySystem, PagePolicy

TIMING = DDR3Timing()
READ = DRAMRequestKind.DEMAND_READ
PREFETCH = DRAMRequestKind.PREFETCH_READ
WRITEBACK = DRAMRequestKind.DEMAND_WRITEBACK


def memory(policy=PagePolicy.OPEN, scheduler="frfcfs", window=64,
           timing=TIMING, channels=1,
           interleave=make_region_interleaving) -> FlatMemorySystem:
    """A memory system of ``channels`` DDR3 channels (one by default)."""
    org = DRAMOrganization(channels=channels)
    return FlatMemorySystem(timing, org, interleave(org, org.row_buffer_bytes),
                            policy, window=window, scheduler=scheduler)


def block(system: FlatMemorySystem, row: int, bank: int = 0, rank: int = 0,
          column: int = 0) -> int:
    """The channel-0 block address of ``(rank, bank, row, column)``."""
    mapping = system.mapping
    low = column & ((1 << mapping.column_low_bits) - 1)
    bits = row
    bits = (bits << mapping.column_high_bits) | (column >> mapping.column_low_bits)
    bits = (bits << mapping.rank_bits) | rank
    bits = (bits << mapping.bank_bits) | bank
    bits <<= mapping.channel_bits
    bits = (bits << mapping.column_low_bits) | low
    address = bits << BLOCK_BITS
    coords = mapping.map(address)
    assert (coords.channel, coords.rank, coords.bank, coords.row) == (
        0, rank, bank, row)
    return address


def enqueue(system: FlatMemorySystem, *transfers) -> None:
    """Queue transfers as one batch.

    Each transfer is a block address or a ``(block, kind, arrival, core)``
    tuple; trailing fields may be left out and default to a demand read at
    cycle 0 from core 0.
    """
    rows = []
    for transfer in transfers:
        transfer = transfer if isinstance(transfer, tuple) else (transfer,)
        rows.append(transfer + (READ, 0.0, 0)[len(transfer) - 1:])
    system.enqueue_block_batch([row[0] for row in rows],
                               [row[1].code for row in rows],
                               [row[2] for row in rows],
                               [row[3] for row in rows])


def serve(system: FlatMemorySystem, *transfers) -> None:
    """Queue transfers as one batch, then serve everything pending."""
    enqueue(system, *transfers)
    system.drain()


def bank_state(system: FlatMemorySystem, bank: int = 0, rank: int = 0,
               channel: int = 0):
    """``(open row or -1, ready cycle, last activation)`` of one bank."""
    index = rank * system.org.banks_per_rank + bank
    return (system.open_rows(channel)[index],
            system.bank_ready[channel][index],
            system.last_activate[channel][index])


def stat(system: FlatMemorySystem, key: str):
    """One aggregate counter of ``system``."""
    return system.aggregate_stats()[key]


def row_hit_ratio(system: FlatMemorySystem) -> float:
    """Row-buffer hit ratio across every channel of ``system``."""
    return system.aggregate_stats().ratio("row_hits", "accesses")


def demand_read_latency(system: FlatMemorySystem) -> float:
    """Mean loaded demand-read latency of ``system``, in bus cycles."""
    return system.aggregate_stats().ratio("demand_read_latency_cycles",
                                          "demand_reads")
