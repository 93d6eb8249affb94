"""Property-based tests (hypothesis) for core data structures and invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cache_planes import line_flags, resident

from repro.common.addressing import (
    BLOCK_SIZE,
    REGION_SIZE,
    block_address,
    block_index_in_region,
    block_offset,
    region_address,
    region_base,
)
from repro.common.assoc_table import AssociativeTable
from repro.common.params import CacheParams, DRAMOrganization
from repro.common.stats import StatGroup
from repro.cache.flat import FLAG_DIRTY, CacheArray
from repro.dram.address_mapping import make_block_interleaving, make_region_interleaving
from repro.fuzz.reference_lru import ReferenceLRU
from repro.energy.dram_energy import DRAMEnergyModel

addresses = st.integers(min_value=0, max_value=2**40 - 1)
block_addresses = st.builds(lambda a: a * BLOCK_SIZE, st.integers(0, 2**30))


# --------------------------------------------------------------------- #
# Addressing
# --------------------------------------------------------------------- #
@given(addresses)
def test_block_decomposition_roundtrip(addr):
    assert block_address(addr) + block_offset(addr) == addr
    assert block_address(addr) % BLOCK_SIZE == 0


@given(addresses)
def test_region_relationships(addr):
    assert region_base(addr) <= addr < region_base(addr) + REGION_SIZE
    assert region_address(addr) == region_base(addr) // REGION_SIZE
    assert 0 <= block_index_in_region(addr) < REGION_SIZE // BLOCK_SIZE


@given(block_addresses)
def test_address_mappings_are_consistent_and_bounded(block):
    org = DRAMOrganization()
    for mapping in (make_block_interleaving(org), make_region_interleaving(org)):
        coords = mapping.map(block)
        assert 0 <= coords.channel < org.channels
        assert 0 <= coords.rank < org.ranks_per_channel
        assert 0 <= coords.bank < org.banks_per_rank
        assert 0 <= coords.column < org.row_buffer_bytes // BLOCK_SIZE
        # Mapping the same block twice gives the same coordinates.
        assert mapping.map(block) == coords


@given(block_addresses)
def test_region_interleaving_keeps_regions_together(block):
    mapping = make_region_interleaving(DRAMOrganization())
    base = region_base(block)
    first = mapping.map(base)
    other = mapping.map(block_address(block))
    assert (first.channel, first.rank, first.bank, first.row) == (
        other.channel, other.rank, other.bank, other.row
    )


# --------------------------------------------------------------------- #
# Associative table
# --------------------------------------------------------------------- #
@given(st.lists(st.tuples(st.integers(0, 500), st.integers()), max_size=300),
       st.sampled_from([(16, 4), (32, 8), (64, 16)]))
@settings(max_examples=50, deadline=None)
def test_assoc_table_never_exceeds_capacity_and_finds_latest_value(operations, geometry):
    entries, assoc = geometry
    table = AssociativeTable(entries, assoc)
    latest = {}
    for key, value in operations:
        table.insert(key, value)
        latest[key] = value
    assert len(table) <= entries
    # Any key still resident must hold the most recently inserted value.
    for key, value in iter(table):
        assert latest[key] == value


# --------------------------------------------------------------------- #
# Set-associative cache
# --------------------------------------------------------------------- #
@given(st.lists(st.tuples(st.integers(0, 2000), st.booleans()), max_size=400))
@settings(max_examples=50, deadline=None)
def test_cache_dirty_data_is_never_silently_dropped(operations):
    """Every dirty block is either still resident or was reported dirty on eviction."""
    cache = CacheArray(CacheParams(size_bytes=4 * 1024,
                                                associativity=4))
    dirty = set()
    for block_number, is_write in operations:
        block = block_number * BLOCK_SIZE
        if cache.demand_access(block, is_write) < 0:
            victim = cache.fill(block, dirty=is_write)
            if victim >= 0 and cache.victim_flags & FLAG_DIRTY:
                dirty.discard(victim)
        if is_write:
            dirty.add(block)
    for block in dirty:
        flags = line_flags(cache, block)
        assert flags is not None and flags & FLAG_DIRTY
    assert resident(cache) <= cache.params.num_blocks


@given(st.lists(st.integers(0, 300), min_size=1, max_size=300))
@settings(max_examples=50, deadline=None)
def test_cache_hits_plus_misses_equals_accesses(blocks):
    """Each access is one hit or one miss, as the reference LRU says.

    The array counts nothing; the system counts the outcomes its
    ``demand_access`` calls return (``llc_hits``, ``llc_misses``).
    """
    cache = CacheArray(CacheParams(size_bytes=2 * 1024, associativity=2))
    reference = ReferenceLRU(cache.num_sets, cache.ways)
    hits = misses = 0
    for block_number in blocks:
        block = block_number * BLOCK_SIZE
        hit = cache.demand_access(block, False) >= 0
        assert hit == (reference.demand_access(block, False) >= 0)
        if hit:
            hits += 1
        else:
            misses += 1
            assert cache.fill(block) == reference.fill(block)
    assert hits + misses == len(blocks)


# --------------------------------------------------------------------- #
# Stats and energy
# --------------------------------------------------------------------- #
@given(st.dictionaries(st.text(min_size=1, max_size=8), st.floats(-1e6, 1e6),
                       max_size=20),
       st.dictionaries(st.text(min_size=1, max_size=8), st.floats(-1e6, 1e6),
                       max_size=20))
def test_statgroup_merge_is_additive(left_values, right_values):
    left = StatGroup()
    right = StatGroup()
    left.update(left_values)
    right.update(right_values)
    merged = StatGroup()
    merged.merge(left)
    merged.merge(right)
    for key in set(left_values) | set(right_values):
        expected = left_values.get(key, 0.0) + right_values.get(key, 0.0)
        assert abs(merged[key] - expected) < 1e-6


@given(st.integers(0, 10_000), st.integers(0, 10_000), st.integers(0, 10_000),
       st.integers(1, 10_000))
def test_dram_energy_is_monotone_in_every_command_count(activations, reads, writes, useful):
    model = DRAMEnergyModel()
    base = model.energy_per_access_nj(activations, reads, writes, useful)
    more_activations = model.energy_per_access_nj(activations + 1, reads, writes, useful)
    more_reads = model.energy_per_access_nj(activations, reads + 1, writes, useful)
    assert more_activations.total_nj >= base.total_nj
    assert more_reads.total_nj >= base.total_nj
    assert base.total_nj >= 0.0
