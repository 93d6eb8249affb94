"""Unit tests for the Region Density Tracking Table."""

from repro.common.addressing import BLOCK_SIZE, REGION_SIZE
from repro.core.config import BuMPConfig
from repro.core.rdtt import RegionDensityTracker


def block(region, offset):
    return region * REGION_SIZE + offset * BLOCK_SIZE


def test_first_access_allocates_in_trigger_table():
    rdtt = RegionDensityTracker()
    rdtt.observe_access(block(5, 2), pc=0x400, is_write=False)
    entry = rdtt.lookup_active(block(5, 0))
    assert entry is not None
    assert entry.trigger_pc == 0x400
    assert entry.trigger_offset == 2
    assert entry.accessed_blocks() == 1
    assert len(rdtt.density) == 0


def test_second_access_promotes_to_density_table():
    """Figure 7, events 1-3: allocate, transfer, update."""
    rdtt = RegionDensityTracker()
    rdtt.observe_access(block(5, 2), pc=0x400, is_write=False)
    rdtt.observe_access(block(5, 3), pc=0x404, is_write=False)
    assert len(rdtt.trigger) == 0
    assert len(rdtt.density) == 1
    entry = rdtt.lookup_active(block(5, 0))
    assert entry.accessed_blocks() == 2
    # The trigger PC/offset of the *first* access is preserved.
    assert entry.trigger_pc == 0x400 and entry.trigger_offset == 2
    rdtt.observe_access(block(5, 0), pc=0x408, is_write=False)
    assert rdtt.lookup_active(block(5, 0)).accessed_blocks() == 3


def test_store_access_sets_dirty_bit():
    rdtt = RegionDensityTracker()
    rdtt.observe_access(block(1, 0), pc=1, is_write=False)
    assert not rdtt.lookup_active(block(1, 0)).dirty
    rdtt.observe_access(block(1, 1), pc=1, is_write=True)
    assert rdtt.lookup_active(block(1, 0)).dirty


def test_eviction_terminates_active_region():
    """Figure 7, event 4: an eviction in an active region terminates it."""
    rdtt = RegionDensityTracker()
    for offset in range(10):
        rdtt.observe_access(block(7, offset), pc=0x400, is_write=False)
    terminated = rdtt.observe_eviction(block(7, 3))
    assert terminated is not None
    assert terminated.region == 7
    assert terminated.accessed_blocks() == 10
    assert terminated.accessed_blocks() >= rdtt.config.density_threshold_blocks
    assert rdtt.lookup_active(block(7, 0)) is None


def test_eviction_outside_tracked_regions_returns_none():
    rdtt = RegionDensityTracker()
    assert rdtt.observe_eviction(block(99, 0)) is None


def test_eviction_terminates_single_access_region_as_low_density():
    rdtt = RegionDensityTracker()
    rdtt.observe_access(block(3, 0), pc=1, is_write=False)
    terminated = rdtt.observe_eviction(block(3, 0))
    assert terminated is not None
    assert terminated.accessed_blocks() < rdtt.config.density_threshold_blocks


def test_density_table_conflict_reports_termination():
    config = BuMPConfig(trigger_entries=16, density_entries=16, associativity=16)
    rdtt = RegionDensityTracker(config)
    # Promote 17 distinct regions into the fully-associative density table;
    # the 17th promotion must displace the least recently used region.
    terminated = []
    for region in range(17):
        for offset in (0, 1):
            displaced = rdtt.observe_access(block(region, offset), pc=0x10,
                                            is_write=False)
            if displaced is not None:
                terminated.append(displaced)
    assert len(terminated) == 1
    assert terminated[0].region == 0


def test_trigger_table_conflict_reports_low_density_region():
    config = BuMPConfig(trigger_entries=16, density_entries=16, associativity=16)
    rdtt = RegionDensityTracker(config)
    terminated = []
    for region in range(17):
        displaced = rdtt.observe_access(block(region, 0), pc=0x10, is_write=False)
        if displaced is not None:
            terminated.append(displaced)
    assert len(terminated) == 1
    assert terminated[0].accessed_blocks() == 1


def test_active_region_count_and_storage():
    rdtt = RegionDensityTracker()
    assert rdtt.active_regions == 0
    rdtt.observe_access(block(1, 0), pc=1, is_write=False)
    rdtt.observe_access(block(2, 0), pc=1, is_write=False)
    rdtt.observe_access(block(2, 1), pc=1, is_write=False)
    assert rdtt.active_regions == 2
    # Section IV.D: the RDTT costs roughly 2.5KB + 3KB.
    assert 4 * 1024 <= rdtt.storage_bits() / 8 <= 8 * 1024


def test_repeated_access_to_same_block_does_not_inflate_density():
    rdtt = RegionDensityTracker()
    for _ in range(5):
        rdtt.observe_access(block(4, 2), pc=1, is_write=False)
    # A single-block region bounces between trigger and density tables but
    # its density never exceeds one block.
    assert rdtt.lookup_active(block(4, 0)).accessed_blocks() == 1
