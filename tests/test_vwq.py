"""Unit tests for the Virtual Write Queue eager-writeback baseline."""

import pytest

from agent_harness import AgentHarness
from repro.common.addressing import BLOCK_SIZE, REGION_SIZE
from repro.writeback.vwq import VirtualWriteQueue


def test_clean_eviction_generates_nothing():
    vwq = AgentHarness(VirtualWriteQueue())
    assert vwq.evict(0, dirty=False).writeback_blocks == []


def test_dirty_eviction_targets_adjacent_blocks():
    vwq = AgentHarness(VirtualWriteQueue(lookahead_blocks=3))
    base = 8 * REGION_SIZE + 4 * BLOCK_SIZE
    actions = vwq.evict(base, dirty=True)
    assert len(actions.writeback_blocks) == 3
    for candidate in actions.writeback_blocks:
        assert abs(candidate - base) <= 3 * BLOCK_SIZE
        assert candidate != base


def test_candidates_stay_within_the_dram_row_region():
    vwq = AgentHarness(VirtualWriteQueue(lookahead_blocks=3))
    base = 8 * REGION_SIZE  # first block of a region
    actions = vwq.evict(base, dirty=True)
    for candidate in actions.writeback_blocks:
        assert base <= candidate < base + REGION_SIZE


def test_lookahead_budget_respected():
    vwq = AgentHarness(VirtualWriteQueue(lookahead_blocks=2))
    actions = vwq.evict(10 * REGION_SIZE + 5 * BLOCK_SIZE, dirty=True)
    assert len(actions.writeback_blocks) == 2
    assert vwq.agent.stats["probes_issued"] == 2


def test_invalid_lookahead_rejected():
    with pytest.raises(ValueError):
        VirtualWriteQueue(lookahead_blocks=0)


def test_vwq_storage_is_negligible():
    assert VirtualWriteQueue().storage_bits() / 8 / 1024 < 2.0
