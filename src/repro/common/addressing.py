"""Address arithmetic used across the simulator.

The paper works with three granularities:

* the 64-byte cache *block*, the unit of transfer between the LLC and DRAM;
* the 1-kilobyte *region*, the unit at which BuMP tracks access density and
  triggers bulk transfers (Section IV.D of the paper);
* the 8-kilobyte DRAM *row* (page), the unit of activation inside a bank.

All helpers below operate on plain integers holding physical byte addresses.
They are deliberately free functions (not methods of an address class) so the
hot simulation loops pay no object-construction cost.
"""

from __future__ import annotations

BLOCK_BITS = 6
BLOCK_SIZE = 1 << BLOCK_BITS

REGION_BITS = 10
REGION_SIZE = 1 << REGION_BITS

BLOCKS_PER_REGION = REGION_SIZE // BLOCK_SIZE

_OFFSET_MASK = BLOCKS_PER_REGION - 1


def block_address(addr: int) -> int:
    """Return the block-aligned address containing byte address ``addr``."""
    return addr & ~(BLOCK_SIZE - 1)


def block_offset(addr: int) -> int:
    """Return the byte offset of ``addr`` inside its cache block."""
    return addr & (BLOCK_SIZE - 1)


def region_address(addr: int) -> int:
    """Return the region number of byte address ``addr``.

    The region number is the physical address shifted right by the region
    offset bits, exactly as the RDTT indexes its tables (Section IV.B).
    """
    return addr >> REGION_BITS


def region_base(addr: int) -> int:
    """Return the byte address of the first block of ``addr``'s region."""
    return addr & ~(REGION_SIZE - 1)


def block_index_in_region(addr: int) -> int:
    """Return the block index (0..15 for 1KB regions) of ``addr`` in its region.

    This index is the *offset* that BuMP appends to the triggering PC when
    indexing the Bulk History Table.
    """
    return (addr >> BLOCK_BITS) & _OFFSET_MASK


def region_offset_bits(region_size: int = REGION_SIZE, block_size: int = BLOCK_SIZE) -> int:
    """Number of bits needed to name a block within a region.

    For the paper's default 1KB region and 64B blocks this is 4 bits.
    """
    if region_size % block_size != 0:
        raise ValueError("region size must be a multiple of the block size")
    blocks = region_size // block_size
    if blocks & (blocks - 1) != 0:
        raise ValueError("blocks per region must be a power of two")
    return blocks.bit_length() - 1


def blocks_of_region(region: int, region_size: int = REGION_SIZE,
                     block_size: int = BLOCK_SIZE) -> list:
    """Return the block-aligned addresses of every block in ``region``.

    ``region`` is a region number (i.e. a byte address shifted right by the
    region bits for the given ``region_size``).
    """
    base = region * region_size
    return [base + i * block_size for i in range(region_size // block_size)]
