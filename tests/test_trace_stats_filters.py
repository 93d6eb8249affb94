"""Tests for trace characterisation and the LLC recorder."""

import numpy as np
import pytest

from repro.common.addressing import BLOCK_SIZE, REGION_SIZE
from repro.sim.config import base_open
from repro.sim.runner import build_trace, run_trace
from repro.trace.buffer import TraceBuffer
from repro.trace.capture import LLCTraceRecorder
from repro.trace.stats import characterize_trace
from repro.workloads.catalog import get_workload
from repro.workloads.generator import generate_trace_buffer


def access(core=0, pc=0x400000, address=0, store=False, instructions=1):
    """One trace row: ``(core, pc, address, is_store, instructions)``."""
    return core, pc, address, store, instructions


def trace_of(rows):
    """A :class:`TraceBuffer` holding ``rows`` in order."""
    if not rows:
        return TraceBuffer.empty()
    return TraceBuffer(*(list(column) for column in zip(*rows)))


class TestCharacterize:
    def test_counts_and_footprint(self):
        trace = [
            access(core=0, address=0, instructions=2),
            access(core=1, address=BLOCK_SIZE, store=True, instructions=4),
            access(core=0, address=8, instructions=6),  # same block as the first
        ]
        stats = characterize_trace(trace_of(trace))
        assert stats.accesses == 3
        assert stats.stores == 1
        assert stats.store_fraction == pytest.approx(1 / 3)
        assert stats.footprint_blocks == 2
        assert stats.footprint_regions == 1
        assert stats.active_cores == 2
        assert stats.mean_instructions_per_access == pytest.approx(4.0)

    def test_empty_trace_yields_zeroes(self):
        stats = characterize_trace(TraceBuffer.empty())
        assert stats.accesses == 0
        assert stats.store_fraction == 0.0
        assert stats.summary()["footprint_mib"] == 0.0
        assert stats.region_density_histogram() == {"low": 0.0, "medium": 0.0, "high": 0.0}

    def test_region_density_histogram_classifies_by_blocks_touched(self):
        dense = [access(address=i * BLOCK_SIZE) for i in range(16)]           # 100%
        medium = [access(address=REGION_SIZE * 4 + i * BLOCK_SIZE) for i in range(5)]
        sparse = [access(address=REGION_SIZE * 8)]
        histogram = characterize_trace(
            trace_of(dense + medium + sparse)).region_density_histogram()
        assert histogram["high"] == pytest.approx(1 / 3)
        assert histogram["medium"] == pytest.approx(1 / 3)
        assert histogram["low"] == pytest.approx(1 / 3)

    def test_pc_concentration_reflects_code_data_correlation(self):
        hot = [access(pc=0x400000, address=i * BLOCK_SIZE) for i in range(90)]
        cold = [access(pc=0x700000 + i * 16, address=10 * REGION_SIZE + i * BLOCK_SIZE)
                for i in range(10)]
        stats = characterize_trace(trace_of(hot + cold))
        assert stats.pc_concentration(1) == pytest.approx(0.9)
        assert stats.hot_pcs(1) == [0x400000]

    def test_workload_trace_matches_spec_characteristics(self):
        spec = get_workload("media_streaming")
        trace = generate_trace_buffer(spec, 20_000, num_cores=8, seed=3)
        stats = characterize_trace(trace)
        assert stats.active_cores == 8
        # Stores exist but do not dominate.
        assert 0.02 < stats.store_fraction < 0.6
        # Code/data correlation: a small number of PCs issues most accesses.
        assert stats.pc_concentration(50) > 0.5


class TestLLCTraceRecorder:
    #: A scaled-down LLC so a few-thousand-access trace produces evictions.
    small_system = None

    @classmethod
    def small_config(cls):
        from repro.common.params import CacheParams, SystemParams

        if cls.small_system is None:
            cls.small_system = SystemParams().scaled(
                llc=CacheParams(size_bytes=256 * 1024, associativity=16,
                                hit_latency_cycles=8),
            )
        return base_open().with_overrides(system=cls.small_system)

    def test_recorder_is_passive_and_counts_streams(self):
        trace = build_trace("web_serving", 6_000, seed=5)
        recorder = LLCTraceRecorder()
        result = run_trace(trace, self.small_config(), warmup_fraction=0.0,
                           extra_agents=[recorder])
        assert recorder.accesses and recorder.misses and recorder.evictions
        assert len(recorder.misses) == result.counters["llc_misses"]
        assert 0.0 < recorder.llc_miss_ratio <= 1.0

    def test_miss_trace_is_replayable(self):
        trace = build_trace("web_serving", 4_000, seed=5)
        recorder = LLCTraceRecorder()
        run_trace(trace, base_open(), warmup_fraction=0.0, extra_agents=[recorder])
        replay = recorder.miss_trace_buffer()
        assert len(replay) == len(recorder.misses) > 0
        assert np.all(replay.address % BLOCK_SIZE == 0)
        result = run_trace(replay, base_open(), warmup_fraction=0.0)
        assert result.total_dram_accesses > 0

    def test_capacity_bounds_memory(self):
        recorder = LLCTraceRecorder(capacity=10)
        trace = build_trace("web_serving", 4_000, seed=5)
        result = run_trace(trace, base_open(), warmup_fraction=0.0,
                           extra_agents=[recorder])
        assert len(recorder.accesses) == len(recorder.misses) == 10
        # Only stored rows count as recorded; every other row is dropped.
        stats = result.predictor
        assert stats["accesses_recorded"] == stats["misses_recorded"] == 10
        counters = result.counters
        observed = (counters["llc_hits"] + 2 * counters["llc_misses"]
                    + counters["llc_evictions"])
        recorded = (stats["accesses_recorded"] + stats["misses_recorded"]
                    + stats["evictions_recorded"])
        assert stats["dropped_records"] == observed - recorded > 0

    def test_clear_resets_everything(self):
        recorder = LLCTraceRecorder()
        trace = build_trace("web_serving", 2_000, seed=5)
        run_trace(trace, base_open(), warmup_fraction=0.0, extra_agents=[recorder])
        recorder.clear()
        assert not recorder.accesses and not recorder.misses and not recorder.evictions
        assert recorder.llc_miss_ratio == 0.0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LLCTraceRecorder(capacity=0)
