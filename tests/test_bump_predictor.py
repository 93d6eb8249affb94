"""Unit tests for the complete BuMP engine and the Full-region foil."""

import pytest

from agent_harness import AgentHarness
from repro.common.addressing import BLOCK_SIZE, REGION_SIZE
from repro.core.bump import BuMPPredictor
from repro.core.config import BuMPConfig
from repro.core.fullregion import FullRegionStreamer


def block(region, offset):
    return region * REGION_SIZE + offset * BLOCK_SIZE


def harness(config=None):
    return AgentHarness(BuMPPredictor(config))


def train_dense_region(bump, region, pc=0x400, blocks=10, store=False, trigger_offset=0):
    """Access ``blocks`` blocks of ``region`` then evict one to terminate it."""
    for offset in range(trigger_offset, trigger_offset + blocks):
        bump.access(pc, block(region, offset % 16), store=store)
    return bump.evict(block(region, trigger_offset), dirty=store)


# --------------------------------------------------------------------- #
# Bulk read prediction
# --------------------------------------------------------------------- #
def test_untrained_miss_generates_no_bulk_read():
    bump = harness()
    actions = bump.miss(0x400, block(1, 0))
    assert actions.fetch_blocks == []


def test_high_density_termination_trains_bht_and_triggers_bulk_reads():
    bump = harness()
    train_dense_region(bump, region=1, pc=0x400, blocks=10)
    # A later miss by the same instruction at the same offset of a brand new
    # region triggers a bulk read of the region's other fifteen blocks.
    actions = bump.miss(0x400, block(50, 0))
    assert len(actions.fetch_blocks) == 15
    assert block(50, 0) not in actions.fetch_blocks
    assert set(actions.fetch_blocks) == {block(50, i) for i in range(1, 16)}


def test_low_density_region_does_not_train_bht():
    bump = harness()
    train_dense_region(bump, region=2, pc=0x500, blocks=3)
    actions = bump.miss(0x500, block(60, 0))
    assert actions.fetch_blocks == []


def test_bulk_read_keyed_by_pc_and_offset():
    bump = harness()
    train_dense_region(bump, region=3, pc=0x600, blocks=12, trigger_offset=4)
    # Same PC but different trigger offset: no prediction.
    assert bump.miss(0x600, block(70, 0)).fetch_blocks == []
    # Same PC and matching offset: prediction fires.
    assert len(bump.miss(0x600, block(70, 4)).fetch_blocks) == 15


def test_density_threshold_respected():
    config = BuMPConfig(density_threshold_blocks=12)
    bump = harness(config)
    train_dense_region(bump, region=4, pc=0x700, blocks=10)
    assert bump.miss(0x700, block(80, 0)).fetch_blocks == []
    train_dense_region(bump, region=5, pc=0x700, blocks=13)
    assert len(bump.miss(0x700, block(81, 0)).fetch_blocks) == 15


# --------------------------------------------------------------------- #
# Bulk write prediction
# --------------------------------------------------------------------- #
def test_dirty_eviction_of_active_modified_region_triggers_bulk_writeback():
    bump = harness()
    actions = train_dense_region(bump, region=6, pc=0x800, blocks=10, store=True)
    # The terminating dirty eviction itself must stream the rest of the region.
    assert len(actions.writeback_blocks) == 15
    assert block(6, 0) not in actions.writeback_blocks


def test_clean_eviction_of_modified_region_defers_to_drt():
    bump = harness()
    for offset in range(10):
        bump.access(0x900, block(7, offset), store=True)
    clean_term = bump.evict(block(7, 2), dirty=False)
    assert clean_term.writeback_blocks == []
    assert bump.agent.drt.contains(7)
    # The later dirty eviction of another block finds the region in the DRT.
    actions = bump.evict(block(7, 5), dirty=True)
    assert len(actions.writeback_blocks) == 15
    assert not bump.agent.drt.contains(7)


def test_clean_region_never_enters_drt():
    bump = harness()
    train_dense_region(bump, region=8, pc=0xA00, blocks=10, store=False)
    assert len(bump.agent.drt) == 0


def test_dirty_eviction_without_tracking_generates_nothing():
    bump = harness()
    actions = bump.evict(block(99, 3), dirty=True)
    assert actions.writeback_blocks == []


def test_conflict_terminated_modified_region_lands_in_drt():
    config = BuMPConfig(trigger_entries=16, density_entries=16, associativity=16)
    bump = harness(config)
    # Fill the density table with 16 dense modified regions, then promote a
    # 17th to force a conflict termination of the oldest one.
    for region in range(17):
        for offset in range(9):
            bump.access(0xB00, block(region, offset), store=True)
    assert bump.agent.drt.contains(0)


# --------------------------------------------------------------------- #
# Overheads and bookkeeping
# --------------------------------------------------------------------- #
def test_total_storage_is_about_14_kilobytes():
    bump = BuMPPredictor()
    assert bump.storage_bits() / 8 / 1024 == pytest.approx(14.0, abs=2.5)


def test_structure_access_counts_accumulate():
    bump = harness()
    train_dense_region(bump, region=10, pc=0xC00, blocks=10)
    bump.miss(0xC00, block(90, 0))
    counts = bump.agent.structure_access_counts()
    assert counts["rdtt"] > 0
    assert counts["bht_drt"] > 0


# --------------------------------------------------------------------- #
# Full-region foil
# --------------------------------------------------------------------- #
def test_full_region_fetches_whole_region_on_every_miss():
    streamer = AgentHarness(FullRegionStreamer())
    actions = streamer.miss(0x1, block(3, 5))
    assert len(actions.fetch_blocks) == 15
    assert block(3, 5) not in actions.fetch_blocks


def test_full_region_writes_back_whole_region_on_dirty_eviction():
    streamer = AgentHarness(FullRegionStreamer())
    assert streamer.evict(block(4, 1), dirty=False).writeback_blocks == []
    actions = streamer.evict(block(4, 1), dirty=True)
    assert len(actions.writeback_blocks) == 15


def test_full_region_needs_no_storage():
    assert FullRegionStreamer().storage_bits() == 0
