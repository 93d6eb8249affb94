"""Unit tests for the DRAM address interleaving schemes."""

import pytest

from repro.common.addressing import BLOCK_SIZE, REGION_SIZE
from repro.common.params import DRAMOrganization, SystemParams
from repro.dram.address_mapping import (
    AddressMapping,
    make_block_interleaving,
    make_region_interleaving,
)


def test_block_interleaving_spreads_consecutive_blocks():
    mapping = make_block_interleaving(DRAMOrganization())
    coords = [mapping.map(i * BLOCK_SIZE) for i in range(16)]
    # Consecutive blocks must not share a (channel, rank, bank, row) tuple.
    keys = {(c.channel, c.rank, c.bank, c.row) for c in coords}
    assert len(keys) == 16


def test_block_interleaving_alternates_channels():
    mapping = make_block_interleaving(DRAMOrganization())
    assert mapping.map(0).channel != mapping.map(BLOCK_SIZE).channel


def test_region_interleaving_keeps_region_in_one_row():
    mapping = make_region_interleaving(DRAMOrganization())
    base = 17 * REGION_SIZE
    coords = [mapping.map(base + i * BLOCK_SIZE) for i in range(16)]
    rows = {(c.channel, c.rank, c.bank, c.row) for c in coords}
    assert len(rows) == 1
    columns = {c.column for c in coords}
    assert len(columns) == 16


def test_region_interleaving_rotates_regions_across_channels():
    mapping = make_region_interleaving(DRAMOrganization())
    first = mapping.map(0)
    second = mapping.map(REGION_SIZE)
    assert first.channel != second.channel


def test_eight_regions_share_one_row_under_region_interleaving():
    # An 8KB row holds eight 1KB regions; regions that differ only in the
    # ColumnHigh bits map to the same row of the same bank.
    org = DRAMOrganization()
    mapping = make_region_interleaving(org)
    base_coords = mapping.map(0)
    regions_per_row = org.row_buffer_bytes // REGION_SIZE
    stride = REGION_SIZE * org.channels * org.banks_per_rank * org.ranks_per_channel
    same_row = [mapping.map(i * stride) for i in range(regions_per_row)]
    assert all(c.row == base_coords.row and c.bank == base_coords.bank
               and c.rank == base_coords.rank and c.channel == base_coords.channel
               for c in same_row)


def test_coordinates_within_bounds():
    org = DRAMOrganization()
    for mapping in (make_block_interleaving(org), make_region_interleaving(org)):
        for address in range(0, 64 * 1024 * 1024, 997 * BLOCK_SIZE):
            coords = mapping.map(address)
            assert 0 <= coords.channel < org.channels
            assert 0 <= coords.rank < org.ranks_per_channel
            assert 0 <= coords.bank < org.banks_per_rank
            assert 0 <= coords.column < org.row_buffer_bytes // BLOCK_SIZE


def test_mapping_is_injective_over_a_large_window():
    org = DRAMOrganization()
    mapping = make_region_interleaving(org)
    seen = set()
    for address in range(0, 8 * 1024 * 1024, BLOCK_SIZE):
        coords = mapping.map(address)
        key = (coords.channel, coords.rank, coords.bank, coords.row, coords.column)
        assert key not in seen
        seen.add(key)


def test_invalid_geometry_rejected():
    org = DRAMOrganization(channels=3)
    with pytest.raises(ValueError):
        AddressMapping(org, column_low_bits=0)
    with pytest.raises(ValueError):
        AddressMapping(DRAMOrganization(), column_low_bits=20)


@pytest.mark.parametrize("field", ["channels", "ranks_per_channel",
                                   "banks_per_rank"])
def test_zero_count_rejected_naming_the_field(field):
    # 0 passes a bare power-of-two test (0 & -1 == 0); a memory system
    # without channels would then drop every transfer silently.
    org = DRAMOrganization(**{field: 0})
    with pytest.raises(ValueError, match=field):
        make_region_interleaving(org)


@pytest.mark.parametrize("field", ["channels", "ranks_per_channel",
                                   "banks_per_rank"])
def test_count_not_a_power_of_two_rejected_naming_the_field(field):
    org = DRAMOrganization(**{field: 6})
    with pytest.raises(ValueError, match=f"{field} must be a power of two"):
        make_block_interleaving(org)


def test_one_channel_rank_and_bank_is_the_smallest_organisation():
    org = DRAMOrganization(channels=1, ranks_per_channel=1, banks_per_rank=1)
    for mapping in (make_block_interleaving(org), make_region_interleaving(org)):
        assert (mapping.channel_bits, mapping.rank_bits,
                mapping.bank_bits) == (0, 0, 0)
        coords = [mapping.map(i * BLOCK_SIZE) for i in range(0, 4096, 7)]
        assert {(c.channel, c.rank, c.bank) for c in coords} == {(0, 0, 0)}


@pytest.mark.parametrize("field", ["channels", "ranks_per_channel",
                                   "banks_per_rank"])
def test_system_with_a_zero_count_is_refused_when_built(field):
    from repro.sim.config import bump_system
    from repro.sim.system import ServerSystem

    config = bump_system().with_overrides(system=SystemParams().scaled(
        dram_org=DRAMOrganization(**{field: 0})))
    with pytest.raises(ValueError, match=field):
        ServerSystem(config)
