"""Physical-address-to-DRAM-coordinate mapping.

Section IV.D and V.A of the paper describe two interleaving schemes, both of
the form ``Row : ColumnHigh : Rank : Bank : Channel : ColumnLow : ByteOffset``
but differing in how the column bits are split around the channel/bank/rank
bits:

* **Block-level interleaving** (the close-row baseline, "Base-close"):
  ``ColumnLow`` covers one 64-byte cache block, so consecutive blocks rotate
  across channels, banks and ranks.  This maximises bank-level parallelism
  for sequential streams but guarantees that the blocks of a 1KB region live
  in sixteen different banks, so bulk transfers cannot amortise activations.

* **Region-level interleaving** (Base-open, SMS, VWQ and BuMP):
  ``ColumnLow`` covers one 1KB region, so an entire region maps to a single
  DRAM row of a single bank and consecutive regions rotate across channels,
  banks and ranks.  ``ColumnHigh`` then selects one of the eight 1KB regions
  that share an 8KB row.

The mapping works on block-aligned physical addresses and returns a
:class:`DRAMCoordinates` tuple of (channel, rank, bank, row, column).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.common.addressing import BLOCK_BITS, REGION_BITS
from repro.common.params import DRAMOrganization


class DRAMCoordinates(NamedTuple):
    """Location of one cache block inside the memory system.

    A ``NamedTuple`` rather than a frozen dataclass: one is built per DRAM
    transfer, and tuple construction skips the ``object.__setattr__`` dance
    frozen dataclasses pay per field.
    """

    channel: int = 0
    rank: int = 0
    bank: int = 0
    row: int = 0
    column: int = 0


class AddressMapping:
    """Splits a block-aligned physical address into DRAM coordinates.

    ``column_low_bits`` counts the *block-granular* column bits placed below
    the channel/bank/rank bits -- 0 for block interleaving (the whole block
    offset already sits in the byte offset) and ``REGION_BITS - BLOCK_BITS``
    (= 4) for region interleaving.
    """

    def __init__(self, org: DRAMOrganization, column_low_bits: int,
                 row_size_bytes: int = 8192) -> None:
        if org.channels & (org.channels - 1):
            raise ValueError("channel count must be a power of two")
        if org.banks_per_rank & (org.banks_per_rank - 1):
            raise ValueError("bank count must be a power of two")
        if org.ranks_per_channel & (org.ranks_per_channel - 1):
            raise ValueError("rank count must be a power of two")

        self.org = org
        self.row_size_bytes = row_size_bytes
        self.column_low_bits = column_low_bits
        self.channel_bits = org.channels.bit_length() - 1
        self.bank_bits = org.banks_per_rank.bit_length() - 1
        self.rank_bits = org.ranks_per_channel.bit_length() - 1
        blocks_per_row = row_size_bytes // (1 << BLOCK_BITS)
        self.column_bits = blocks_per_row.bit_length() - 1
        if column_low_bits > self.column_bits:
            raise ValueError("column_low_bits exceeds total column bits")
        self.column_high_bits = self.column_bits - column_low_bits

    def map(self, block_address: int) -> DRAMCoordinates:
        """Return the DRAM coordinates of a block-aligned physical address."""
        bits = block_address >> BLOCK_BITS

        column_low = bits & ((1 << self.column_low_bits) - 1)
        bits >>= self.column_low_bits

        channel = bits & ((1 << self.channel_bits) - 1)
        bits >>= self.channel_bits

        bank = bits & ((1 << self.bank_bits) - 1)
        bits >>= self.bank_bits

        rank = bits & ((1 << self.rank_bits) - 1)
        bits >>= self.rank_bits

        column_high = bits & ((1 << self.column_high_bits) - 1)
        bits >>= self.column_high_bits

        row = bits
        column = (column_high << self.column_low_bits) | column_low
        return DRAMCoordinates(channel=channel, rank=rank, bank=bank, row=row, column=column)


def make_block_interleaving(org: DRAMOrganization,
                            row_size_bytes: int = 8192) -> AddressMapping:
    """Mapping used by Base-close: consecutive blocks rotate across channels/banks."""
    return AddressMapping(org, column_low_bits=0, row_size_bytes=row_size_bytes)


def make_region_interleaving(org: DRAMOrganization,
                             row_size_bytes: int = 8192,
                             region_bits: int = REGION_BITS) -> AddressMapping:
    """Mapping used by BuMP/Base-open: an entire region maps to one DRAM row."""
    return AddressMapping(
        org,
        column_low_bits=region_bits - BLOCK_BITS,
        row_size_bytes=row_size_bytes,
    )
