"""Tests for the related-work mechanisms added for the Section VII ablations:
next-line prefetching, Stealth-style region prefetching, age-based eager
writeback, and the extended system configurations that wire them up."""

import pytest

from agent_harness import AgentHarness
from repro.common.addressing import BLOCK_SIZE, REGION_SIZE
from repro.prefetch.nextline import NextLinePrefetcher
from repro.prefetch.stealth import StealthPrefetcher
from repro.sim.config import (
    bump_vwq_system,
    eager_writeback_system,
    extended_configs,
    named_configs,
    nextline_system,
    stealth_system,
)
from repro.sim.runner import build_trace, run_trace
from repro.writeback.eager import EagerWriteback


READ_PC = 0x400000
WRITE_PC = 0x500000


class TestNextLinePrefetcher:
    def test_miss_triggers_sequential_burst(self):
        prefetcher = AgentHarness(NextLinePrefetcher(degree=3))
        actions = prefetcher.miss(READ_PC, 0x1000)
        assert actions.fetch_blocks == [0x1000 + BLOCK_SIZE,
                                        0x1000 + 2 * BLOCK_SIZE,
                                        0x1000 + 3 * BLOCK_SIZE]

    def test_access_path_is_silent_in_miss_triggered_mode(self):
        prefetcher = AgentHarness(NextLinePrefetcher(degree=2))
        assert prefetcher.access(READ_PC, 0x1000, hit=True).empty
        assert prefetcher.access(READ_PC, 0x1000, hit=False).empty

    def test_hit_triggered_mode_fires_on_misses_via_access(self):
        prefetcher = AgentHarness(NextLinePrefetcher(degree=1, miss_triggered=False))
        assert prefetcher.miss(READ_PC, 0x1000).empty
        actions = prefetcher.access(READ_PC, 0x1000, hit=False)
        assert actions.fetch_blocks == [0x1000 + BLOCK_SIZE]

    def test_degree_validation_and_zero_storage(self):
        with pytest.raises(ValueError):
            NextLinePrefetcher(degree=0)
        assert NextLinePrefetcher().storage_bits() == 0

    def test_stats_count_issued_prefetches(self):
        prefetcher = AgentHarness(NextLinePrefetcher(degree=4))
        prefetcher.miss(READ_PC, 0)
        prefetcher.miss(READ_PC, REGION_SIZE)
        assert prefetcher.agent.stats["prefetches_issued"] == 8
        assert prefetcher.agent.stats["prefetch_bursts"] == 2


class TestStealthPrefetcher:
    def region_blocks(self, base=0x40000):
        return [base + i * BLOCK_SIZE for i in range(REGION_SIZE // BLOCK_SIZE)]

    def test_does_not_stream_before_trigger_count(self):
        prefetcher = AgentHarness(StealthPrefetcher(trigger_count=4))
        blocks = self.region_blocks()
        for block in blocks[:3]:
            assert prefetcher.access(READ_PC, block, hit=False).empty

    def test_streams_whole_region_without_history(self):
        prefetcher = AgentHarness(StealthPrefetcher(trigger_count=2))
        blocks = self.region_blocks()
        prefetcher.access(READ_PC, blocks[0], hit=False)
        actions = prefetcher.access(READ_PC, blocks[1], hit=False)
        # Everything except the two already-touched blocks is requested.
        assert set(actions.fetch_blocks) == set(blocks[2:])

    def test_streams_learned_footprint_on_second_generation(self):
        prefetcher = AgentHarness(StealthPrefetcher(trigger_count=2))
        blocks = self.region_blocks()
        footprint = blocks[:6]
        for block in footprint:
            prefetcher.access(READ_PC, block, hit=False)
        # Close the generation; the learned footprint is blocks[:6].
        prefetcher.evict(blocks[0])

        prefetcher.access(READ_PC, blocks[0], hit=False)
        actions = prefetcher.access(READ_PC, blocks[1], hit=False)
        assert set(actions.fetch_blocks) == set(footprint[2:])

    def test_streams_only_once_per_generation(self):
        prefetcher = AgentHarness(StealthPrefetcher(trigger_count=2))
        blocks = self.region_blocks()
        prefetcher.access(READ_PC, blocks[0], hit=False)
        first = prefetcher.access(READ_PC, blocks[1], hit=False)
        second = prefetcher.access(READ_PC, blocks[2], hit=False)
        assert first.fetch_blocks and second.empty

    def test_repeated_access_to_same_block_does_not_advance_trigger(self):
        prefetcher = AgentHarness(StealthPrefetcher(trigger_count=2))
        block = self.region_blocks()[0]
        prefetcher.access(READ_PC, block, hit=False)
        assert prefetcher.access(READ_PC, block, hit=True).empty

    def test_storage_requirement_far_exceeds_bump(self):
        prefetcher = StealthPrefetcher()
        # Section VII: hundreds of kilobytes versus BuMP's ~14KB.
        assert prefetcher.storage_bits() / 8 / 1024 > 100

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            StealthPrefetcher(trigger_count=0)
        with pytest.raises(ValueError):
            StealthPrefetcher(region_size=100)


class TestEagerWriteback:
    def test_drains_oldest_dirty_blocks_past_limit(self):
        eager = AgentHarness(EagerWriteback(pending_limit=2, drain_batch=2))
        eager.access(WRITE_PC, 0x0000, store=True, hit=True)
        eager.access(WRITE_PC, 0x1000, store=True, hit=True)
        actions = eager.access(WRITE_PC, 0x2000, store=True, hit=True)
        assert actions.writeback_blocks == [0x0000]

    def test_rewritten_block_moves_to_young_end(self):
        eager = AgentHarness(EagerWriteback(pending_limit=2, drain_batch=1))
        eager.access(WRITE_PC, 0x0000, store=True, hit=True)
        eager.access(WRITE_PC, 0x1000, store=True, hit=True)
        eager.access(WRITE_PC, 0x0000, store=True, hit=True)  # re-dirty the first
        actions = eager.access(WRITE_PC, 0x2000, store=True, hit=True)
        assert actions.writeback_blocks == [0x1000]

    def test_reads_do_not_enqueue_candidates(self):
        eager = AgentHarness(EagerWriteback(pending_limit=1))
        eager.access(READ_PC, 0x0000, hit=True)
        eager.access(READ_PC, 0x1000, hit=True)
        assert eager.agent.tracked_dirty_blocks == 0

    def test_evicted_blocks_are_forgotten(self):
        eager = AgentHarness(EagerWriteback(pending_limit=8))
        eager.access(WRITE_PC, 0x0000, store=True, hit=True)
        eager.evict(0x0000, dirty=True)
        assert eager.agent.tracked_dirty_blocks == 0

    def test_drain_batch_bounds_per_access_work(self):
        eager = AgentHarness(EagerWriteback(pending_limit=1, drain_batch=2))
        for index in range(6):
            eager.access(WRITE_PC, index * 0x1000, store=True, hit=True)
        # Never more than drain_batch writebacks per notification.
        actions = eager.access(WRITE_PC, 0x7000, store=True, hit=True)
        assert len(actions.writeback_blocks) <= 2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            EagerWriteback(pending_limit=0)
        with pytest.raises(ValueError):
            EagerWriteback(drain_batch=0)


class TestExtendedConfigs:
    def test_paper_set_is_unchanged(self):
        assert set(named_configs()) == {
            "base_close", "base_open", "sms", "vwq", "sms_vwq",
            "full_region", "bump", "ideal",
        }

    def test_extended_names_resolve_when_listed_explicitly(self):
        configs = named_configs(["bump", "bump_vwq", "stealth"])
        assert set(configs) == {"bump", "bump_vwq", "stealth"}

    def test_extended_registry_contents(self):
        configs = extended_configs()
        assert set(configs) == {"bump_vwq", "nextline", "stealth", "eager_writeback"}
        with pytest.raises(KeyError):
            extended_configs(["flux_capacitor"])

    def test_factories_set_expected_flags(self):
        assert bump_vwq_system().use_bump and bump_vwq_system().use_vwq
        assert nextline_system().use_nextline and not nextline_system().use_stride
        assert stealth_system().use_stealth
        assert eager_writeback_system().use_eager_writeback
        assert eager_writeback_system().use_stride

    @pytest.fixture(scope="class")
    def trace(self):
        return build_trace("web_search", 8_000, seed=7)

    def test_extended_configs_run_end_to_end(self, trace):
        for name, config in extended_configs().items():
            result = run_trace(trace, config, warmup_fraction=0.25)
            assert result.total_dram_accesses > 0, name
            assert result.throughput_ipc > 0, name

    def test_bump_vwq_streams_at_least_as_many_writes_as_bump(self, trace):
        bump = run_trace(trace, named_configs(["bump"])["bump"], warmup_fraction=0.25)
        combined = run_trace(trace, bump_vwq_system(), warmup_fraction=0.25)
        assert combined.write_coverage >= bump.write_coverage * 0.9
