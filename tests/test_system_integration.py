"""Integration tests: whole-system runs on a scaled-down server.

These tests run short synthetic traces through complete ServerSystem
instances.  To keep them fast they scale the LLC down (so evictions,
writebacks and region terminations happen within a few thousand accesses)
while keeping every mechanism — L1 filter, LLC, prefetchers, BuMP, FR-FCFS
DRAM, energy and timing — in the loop.
"""

import pytest

from repro.common.params import CacheParams, SystemParams
from repro.sim.config import (
    base_close,
    base_open,
    bump_system,
    full_region_system,
    ideal_system,
    named_configs,
    vwq_system,
)
from repro.sim.runner import build_trace, run_trace, run_workload
from repro.sim.system import ServerSystem
from repro.workloads.catalog import get_workload

#: A scaled-down memory hierarchy: a 1MB LLC keeps coarse-object scans alive
#: long enough for region tracking to matter while letting a ~50k-access
#: trace reach steady-state evictions quickly.
SMALL_SYSTEM = SystemParams().scaled(
    llc=CacheParams(size_bytes=1024 * 1024, associativity=16, hit_latency_cycles=8),
)
TRACE_LENGTH = 52_000
WARMUP = 0.4


def small(config):
    return config.with_overrides(system=SMALL_SYSTEM)


@pytest.fixture(scope="module")
def trace():
    return build_trace("web_search", TRACE_LENGTH, num_cores=16, seed=42)


@pytest.fixture(scope="module")
def small_results(trace):
    configs = [small(base_close()), small(base_open()), small(vwq_system()),
               small(bump_system()), small(full_region_system()), small(ideal_system())]
    return {
        config.name: run_trace(trace, config, workload_name="web_search",
                               warmup_fraction=WARMUP)
        for config in configs
    }


def test_traffic_conservation(small_results):
    """Every DRAM transfer must be attributed to exactly one provenance."""
    for name, result in small_results.items():
        dram_reads = result.dram["reads"]
        dram_writes = result.dram["writes"]
        assert dram_reads == pytest.approx(result.total_dram_reads), name
        assert dram_writes == pytest.approx(result.total_dram_writes), name
        assert result.total_dram_accesses > 0, name


def test_baseline_generates_reads_and_writebacks(small_results):
    base = small_results["base_open"]
    assert base.demand_reads > 0
    assert base.demand_writebacks > 0
    assert 0.05 < base.write_traffic_share < 0.6
    assert base.load_triggered_reads > base.store_triggered_reads > 0


def test_bump_improves_row_buffer_locality(small_results):
    assert (small_results["bump"].row_buffer_hit_ratio
            > small_results["base_open"].row_buffer_hit_ratio + 0.15)
    assert (small_results["base_open"].row_buffer_hit_ratio
            >= small_results["base_close"].row_buffer_hit_ratio)


def test_bump_covers_reads_and_writes(small_results):
    bump = small_results["bump"]
    assert bump.read_coverage > 0.2
    assert bump.write_coverage > 0.2
    assert bump.read_overfetch < 1.0
    base = small_results["base_open"]
    assert base.read_coverage < bump.read_coverage


def test_bump_reduces_memory_energy_per_access(small_results):
    assert (small_results["bump"].memory_energy_per_access_nj
            < small_results["base_open"].memory_energy_per_access_nj
            < small_results["base_close"].memory_energy_per_access_nj)


def test_full_region_overfetches_and_saturates_bandwidth(small_results):
    full = small_results["full_region"]
    bump = small_results["bump"]
    assert full.read_overfetch > 3 * bump.read_overfetch
    assert full.total_dram_accesses > 1.5 * bump.total_dram_accesses
    assert full.throughput_ipc < 0.8 * small_results["base_open"].throughput_ipc


def test_vwq_improves_write_locality_only(small_results):
    vwq = small_results["vwq"]
    base = small_results["base_open"]
    assert vwq.bulk_writebacks > 0
    assert vwq.row_buffer_hit_ratio > base.row_buffer_hit_ratio
    assert vwq.read_coverage <= base.read_coverage + 0.05


def test_ideal_row_hit_tops_every_real_system(small_results):
    ideal = small_results["ideal"]
    assert ideal.row_buffer_hit_ratio >= small_results["bump"].row_buffer_hit_ratio - 0.05
    assert ideal.density is not None
    assert ideal.density.read_density["high"] > 0.3


def test_energy_breakdown_present_and_positive(small_results):
    for name, result in small_results.items():
        assert result.energy is not None, name
        assert result.energy.total_nj > 0, name
        assert 0.0 < result.energy.memory_share < 1.0, name
        assert result.cycles > 0 and result.throughput_ipc > 0, name


def test_noc_traffic_larger_with_bump(small_results):
    assert small_results["bump"].noc["bytes"] > small_results["base_open"].noc["bytes"]


def test_warmup_discards_cold_start_effects(trace):
    config = small(base_open())
    cold = run_trace(trace, config, warmup_fraction=0.0)
    warm = run_trace(trace, config, warmup_fraction=0.5)
    # The warmed run must observe fewer accesses, and excluding the cold-start
    # interval must remove compulsory misses from the measurement: fewer
    # demand DRAM reads per access and a higher L1 hit ratio.
    assert warm.counters["accesses"] < cold.counters["accesses"]
    assert (warm.demand_reads / warm.counters["accesses"]
            <= cold.demand_reads / cold.counters["accesses"])
    assert (warm.counters["l1_hits"] / warm.counters["accesses"]
            >= cold.counters["l1_hits"] / cold.counters["accesses"])


def test_warmup_longer_than_trace_is_rejected():
    system = ServerSystem(small(base_open()))
    trace = build_trace("web_search", 100, num_cores=4, seed=1)
    with pytest.raises(ValueError):
        system.run(trace, warmup_accesses=1000)


def test_run_workload_and_named_config_helpers():
    # The trace cache keys on the spec's content fingerprint, so the
    # ``with_overrides()`` copy may safely share the catalog spec's cache
    # entry -- no cache clearing needed.
    result = run_workload(get_workload("media_streaming").with_overrides(),
                          small(base_open()), num_accesses=6000, warmup_fraction=0.3)
    assert result.workload == "media_streaming"
    assert result.total_dram_accesses > 0


def test_results_are_deterministic_for_identical_runs(trace):
    config = small(bump_system())
    first = run_trace(trace, config, warmup_fraction=WARMUP)
    second = run_trace(trace, config, warmup_fraction=WARMUP)
    assert first.row_buffer_hit_ratio == pytest.approx(second.row_buffer_hit_ratio)
    assert first.total_dram_accesses == second.total_dram_accesses
    assert first.throughput_ipc == pytest.approx(second.throughput_ipc)


def test_invalid_interleaving_rejected():
    with pytest.raises(ValueError):
        ServerSystem(base_open().with_overrides(interleaving="page"))


def test_all_named_configs_run_end_to_end(trace):
    for name, config in named_configs().items():
        result = run_trace(trace[:6000], small(config), warmup_fraction=0.25)
        assert result.total_dram_accesses > 0, name
        assert result.throughput_ipc > 0, name
