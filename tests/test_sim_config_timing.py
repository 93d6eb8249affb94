"""Unit tests for system configurations and the analytic timing model."""

import pytest

from repro.common.params import SystemParams
from repro.dram.flat import PagePolicy
from repro.sim.config import (
    base_close,
    base_open,
    bump_system,
    full_region_system,
    ideal_system,
    named_configs,
    sms_system,
    sms_vwq_system,
    vwq_system,
)
from repro.sim.timing import TimingModel


# --------------------------------------------------------------------- #
# Configurations
# --------------------------------------------------------------------- #
def test_named_configs_cover_every_evaluated_system():
    configs = named_configs()
    assert set(configs) == {
        "base_close", "base_open", "sms", "vwq", "sms_vwq",
        "full_region", "bump", "ideal",
    }
    with pytest.raises(KeyError):
        named_configs(["nonexistent"])


def test_base_close_uses_close_row_and_block_interleaving():
    config = base_close()
    assert config.page_policy is PagePolicy.CLOSE
    assert config.interleaving == "block"
    assert config.use_stride and not config.use_bump


def test_base_open_matches_bump_memory_controller():
    open_config = base_open()
    bump_config = bump_system()
    assert open_config.page_policy is bump_config.page_policy is PagePolicy.OPEN
    assert open_config.interleaving == bump_config.interleaving == "region"


def test_pc_is_carried_only_by_pc_indexed_predictor_configs():
    assert bump_system().carries_pc
    assert sms_system().carries_pc
    assert sms_vwq_system().carries_pc
    assert not base_open().carries_pc
    assert not vwq_system().carries_pc


def test_bump_replaces_stride_prefetcher():
    config = bump_system()
    assert config.use_bump and not config.use_stride
    assert config.uses_bulk_streaming
    assert full_region_system().uses_bulk_streaming
    assert not vwq_system().uses_bulk_streaming


def test_ideal_attaches_profiler():
    config = ideal_system()
    assert config.ideal_row_locality and config.attach_profiler


def test_with_overrides_builds_variants():
    config = bump_system().with_overrides(name="bump_small")
    assert config.name == "bump_small"
    assert config.use_bump


def test_unknown_scheduler_is_rejected_at_construction():
    for scheduler in ("fcfs", "frfcfs", "bank_round_robin"):
        assert base_open().with_overrides(
            scheduler=scheduler).scheduler == scheduler
    with pytest.raises(ValueError, match="unknown scheduler 'frfcs'.*"
                                         "bank_round_robin"):
        base_open().with_overrides(scheduler="frfcs")
    with pytest.raises(ValueError, match="unknown scheduler 'write_drain'"):
        bump_system(scheduler="write_drain")


# --------------------------------------------------------------------- #
# Timing model
# --------------------------------------------------------------------- #
def make_summary(load_misses, covered=0.0, dram_elapsed=0.0, latency=30.0,
                 instructions=1_000_000.0):
    model = TimingModel(SystemParams())
    return model.summarize(
        instructions=instructions,
        load_demand_misses=load_misses,
        covered_loads=covered,
        llc_load_hits=0.0,
        average_dram_latency_bus_cycles=latency,
        dram_elapsed_bus_cycles=dram_elapsed,
    )


def test_more_misses_mean_fewer_instructions_per_cycle():
    fast = make_summary(load_misses=1_000)
    slow = make_summary(load_misses=20_000)
    assert slow.cycles > fast.cycles
    assert slow.throughput_ipc < fast.throughput_ipc


def test_covered_misses_are_cheaper_than_demand_misses():
    uncovered = make_summary(load_misses=10_000, covered=0)
    covered = make_summary(load_misses=2_000, covered=8_000)
    assert covered.cycles < uncovered.cycles


def test_bandwidth_bound_caps_throughput():
    unbound = make_summary(load_misses=1_000, dram_elapsed=0.0)
    bound = make_summary(load_misses=1_000, dram_elapsed=10 * unbound.cycles)
    assert bound.cycles > unbound.cycles
    assert bound.dram_bound_cycles == pytest.approx(
        10 * unbound.cycles * SystemParams().core_cycles_per_dram_cycle
    )


def test_stall_fraction_and_elapsed_time_consistency():
    summary = make_summary(load_misses=5_000)
    assert 0.0 < summary.stall_fraction < 1.0
    expected_seconds = summary.cycles * 0.4e-9
    assert summary.elapsed_seconds == pytest.approx(expected_seconds)


def test_zero_instruction_run_is_safe():
    summary = make_summary(load_misses=0, instructions=0.0)
    assert summary.throughput_ipc == 0.0
