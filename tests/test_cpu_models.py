"""Tests for the CPU microarchitecture models (ROB, interval timing)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.params import CoreParams, SystemParams
from repro.cpu.interval import IntervalTimingModel
from repro.cpu.rob import ROBModel
from repro.sim.config import base_open, bump_system
from repro.sim.runner import build_trace, run_trace
from repro.sim.timing import TimingModel


class TestROBModel:
    def test_dependent_misses_yield_mlp_of_one(self):
        rob = ROBModel(independence=0.0)
        assert rob.memory_level_parallelism(instructions_per_miss=10) == 1.0

    def test_mlp_grows_with_miss_density_and_independence(self):
        sparse = ROBModel(independence=0.5).memory_level_parallelism(48)
        dense = ROBModel(independence=0.5).memory_level_parallelism(6)
        assert dense > sparse >= 1.0
        more_independent = ROBModel(independence=0.9).memory_level_parallelism(6)
        assert more_independent > dense

    def test_mlp_is_capped_by_mshrs(self):
        rob = ROBModel(independence=1.0, mshr_entries=4)
        assert rob.memory_level_parallelism(instructions_per_miss=1) == 4.0

    def test_rob_fill_time_scales_with_rob_size(self):
        small = ROBModel(core=CoreParams(rob_entries=32))
        large = ROBModel(core=CoreParams(rob_entries=128))
        assert large.rob_fill_cycles(1.0) > small.rob_fill_cycles(1.0)

    def test_exposed_latency_never_negative_and_below_raw_latency(self):
        rob = ROBModel()
        exposed = rob.exposed_miss_latency(200.0, instructions_per_miss=12)
        assert 0.0 <= exposed <= 200.0
        assert rob.exposed_miss_latency(5.0, instructions_per_miss=12) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ROBModel(independence=1.5)
        with pytest.raises(ValueError):
            ROBModel(mshr_entries=0)
        with pytest.raises(ValueError):
            ROBModel().rob_fill_cycles(0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        instructions_per_miss=st.floats(min_value=0.5, max_value=1000.0),
        latency=st.floats(min_value=0.0, max_value=2000.0),
        independence=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_property_mlp_and_exposure_bounds(self, instructions_per_miss,
                                              latency, independence):
        rob = ROBModel(independence=independence)
        mlp = rob.memory_level_parallelism(instructions_per_miss)
        assert 1.0 <= mlp <= rob.mshr_entries
        exposed = rob.exposed_miss_latency(latency, instructions_per_miss)
        assert 0.0 <= exposed <= latency + 1e-9


class TestIntervalTimingModel:
    def summarize(self, model, misses=2_000, covered=500):
        return model.summarize(
            instructions=1_000_000,
            load_demand_misses=misses,
            covered_loads=covered,
            llc_load_hits=10_000,
            average_dram_latency_bus_cycles=60.0,
            dram_elapsed_bus_cycles=50_000.0,
        )

    def test_interval_model_produces_sane_summary(self):
        summary = self.summarize(IntervalTimingModel())
        assert summary.cycles > 0
        assert summary.throughput_ipc > 0
        assert 0.0 <= summary.stall_fraction < 1.0

    def test_fewer_misses_means_higher_throughput(self):
        model = IntervalTimingModel()
        many = self.summarize(model, misses=20_000)
        few = self.summarize(model, misses=1_000)
        assert few.throughput_ipc > many.throughput_ipc

    def test_agreement_with_analytic_model_on_ordering(self):
        params = SystemParams()
        analytic = TimingModel(params)
        interval = IntervalTimingModel(params)
        for model in (analytic, interval):
            slow = self.summarize(model, misses=30_000, covered=0)
            fast = self.summarize(model, misses=3_000, covered=27_000)
            assert fast.throughput_ipc > slow.throughput_ipc

    def test_bandwidth_bound_still_applies(self):
        summary = IntervalTimingModel().summarize(
            instructions=1_000,
            load_demand_misses=0,
            covered_loads=0,
            llc_load_hits=0,
            average_dram_latency_bus_cycles=60.0,
            dram_elapsed_bus_cycles=10_000_000.0,
        )
        assert summary.cycles == pytest.approx(summary.dram_bound_cycles)


class TestIntervalTimingIntegration:
    def test_config_selects_interval_model(self):
        trace = build_trace("web_search", 6_000, seed=9)
        analytic = run_trace(trace, base_open(), warmup_fraction=0.25)
        interval = run_trace(trace, base_open().with_overrides(timing_model="interval"),
                             warmup_fraction=0.25)
        assert interval.throughput_ipc > 0
        # The two models disagree on absolute IPC but both are finite and positive.
        assert analytic.throughput_ipc > 0

    def test_unknown_timing_model_is_rejected(self):
        from repro.sim.system import ServerSystem

        with pytest.raises(ValueError):
            ServerSystem(base_open().with_overrides(timing_model="quantum"))

    def test_bump_still_beats_baseline_under_interval_timing(self):
        trace = build_trace("web_search", 20_000, seed=9)
        base = run_trace(trace, base_open().with_overrides(timing_model="interval"),
                         warmup_fraction=0.4)
        bump = run_trace(trace, bump_system().with_overrides(timing_model="interval"),
                         warmup_fraction=0.4)
        assert bump.throughput_ipc >= base.throughput_ipc * 0.95
