"""Unit tests for the stride and SMS prefetcher baselines."""

from agent_harness import AgentHarness
from repro.common.addressing import BLOCK_SIZE, REGION_SIZE
from repro.prefetch.sms import SpatialMemoryStreaming, footprint_to_blocks, pattern_from_offsets
from repro.prefetch.stride import StridePrefetcher


# --------------------------------------------------------------------- #
# Stride prefetcher
# --------------------------------------------------------------------- #
def test_stride_needs_two_confirmations_before_prefetching():
    pf = AgentHarness(StridePrefetcher(degree=4))
    assert pf.access(0x400, 0).fetch_blocks == []
    assert pf.access(0x400, 64).fetch_blocks == []
    assert pf.access(0x400, 128).fetch_blocks == []
    actions = pf.access(0x400, 192)
    assert actions.fetch_blocks == [256, 320, 384, 448]
    assert pf.agent.issued == 4


def test_stride_detects_negative_and_multi_block_strides():
    pf = AgentHarness(StridePrefetcher(degree=2))
    for block in (1024, 896, 768, 640):
        actions = pf.access(0x10, block)
    assert actions.fetch_blocks == [640 - 128, 640 - 256]


def test_stride_broken_by_irregular_pattern():
    pf = AgentHarness(StridePrefetcher(degree=4))
    for block in (0, 64, 128, 8192, 64 * 100, 64 * 7):
        actions = pf.access(0x20, block)
    assert actions.fetch_blocks == []


def test_stride_ignores_same_block_repeats():
    pf = AgentHarness(StridePrefetcher(degree=2))
    blocks = (0, 64, 64, 128, 192)
    last_actions = None
    for block in blocks:
        last_actions = pf.access(0x30, block)
    # The duplicate access must not reset stride confidence.
    assert last_actions.fetch_blocks == [256, 320]


def test_stride_streams_are_per_core():
    pf = AgentHarness(StridePrefetcher(degree=2))
    # Two cores interleave the same PC with different address streams; each
    # core's stride is still detected independently.
    for i in range(4):
        a0 = pf.access(0x40, i * 64, core=0)
        a1 = pf.access(0x40, 10_000_000 + i * 128, core=1)
    assert a0.fetch_blocks == [256, 320]
    assert a1.fetch_blocks == [10_000_000 + 4 * 128, 10_000_000 + 5 * 128]


def test_stride_storage_reported():
    assert StridePrefetcher().storage_bits() > 0


def test_stride_counters_appear_only_once_a_burst_happened():
    pf = AgentHarness(StridePrefetcher(degree=4))
    for block in (0, 64, 128):
        pf.access(0x400, block)
    stats = pf.agent.stats
    assert "prefetch_bursts" not in stats and "prefetches_issued" not in stats
    pf.access(0x400, 192)
    pf.access(0x400, 256)
    stats = pf.agent.stats
    assert (stats["prefetch_bursts"], stats["prefetches_issued"]) == (2, 8)
    stats.reset()
    assert pf.agent.issued == 0


def test_stride_table_replaces_its_least_recently_used_entry():
    # One set of two entries: touching PC A makes PC B the LRU entry, so a
    # third PC replaces B and A keeps its trained stride.
    pf = AgentHarness(StridePrefetcher(degree=1, entries=2, associativity=2))
    for block in (0, 64):
        pf.access(0xA0, block)
    pf.access(0xB0, 4096)
    pf.access(0xA0, 128)
    pf.access(0xC0, 8192)
    assert pf.agent.table.contains((0, 0xA0))
    assert not pf.agent.table.contains((0, 0xB0))
    assert pf.access(0xA0, 192).fetch_blocks == [256]


# --------------------------------------------------------------------- #
# SMS
# --------------------------------------------------------------------- #
def test_sms_learns_and_replays_footprint():
    sms = AgentHarness(SpatialMemoryStreaming())
    region_a = 100 * REGION_SIZE
    trigger_pc = 0x900
    offsets = [2, 3, 5, 7]
    # Training generation on region A.
    for offset in offsets:
        sms.access(trigger_pc, region_a + offset * BLOCK_SIZE)
    # Generation ends when one of its blocks is evicted.
    sms.evict(region_a + 2 * BLOCK_SIZE, dirty=False)
    # A new region triggered by the same PC at the same offset replays the footprint.
    region_b = 555 * REGION_SIZE
    actions = sms.access(trigger_pc, region_b + 2 * BLOCK_SIZE)
    expected = {region_b + offset * BLOCK_SIZE for offset in offsets if offset != 2}
    assert set(actions.fetch_blocks) == expected


def test_sms_ignores_store_traffic():
    sms = AgentHarness(SpatialMemoryStreaming())
    region = 42 * REGION_SIZE
    for offset in range(8):
        actions = sms.access(0x11, region + offset * BLOCK_SIZE, store=True)
        assert actions.fetch_blocks == []
    sms.evict(region, dirty=True)
    actions = sms.access(0x11, 77 * REGION_SIZE, store=True)
    assert actions.fetch_blocks == []


def test_sms_does_not_predict_single_block_generations():
    sms = AgentHarness(SpatialMemoryStreaming())
    region = 9 * REGION_SIZE
    sms.access(0x77, region)
    sms.evict(region, dirty=False)
    actions = sms.access(0x77, 11 * REGION_SIZE)
    assert actions.fetch_blocks == []


def test_sms_agt_conflict_trains_pht():
    sms = AgentHarness(SpatialMemoryStreaming(agt_entries=2, pht_entries=64,
                                             associativity=2))
    pc = 0x123
    # Fill the tiny AGT with two multi-block generations, then add a third
    # region to force a conflict eviction which must train the PHT.
    for region_index in range(3):
        base = (1000 + region_index * 7) * REGION_SIZE
        sms.access(pc, base)
        sms.access(pc, base + BLOCK_SIZE)
    assert sms.agent.stats["generations_trained"] >= 1


def test_footprint_helpers_round_trip():
    pattern = pattern_from_offsets([0, 4, 15])
    blocks = footprint_to_blocks(3, pattern)
    assert blocks == [3 * REGION_SIZE, 3 * REGION_SIZE + 4 * BLOCK_SIZE,
                      3 * REGION_SIZE + 15 * BLOCK_SIZE]


def test_sms_storage_accounted():
    assert SpatialMemoryStreaming().storage_bits() > 0
