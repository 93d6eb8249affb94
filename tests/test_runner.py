"""Unit tests for the experiment runner (trace cache, config sweeps)."""

import pytest

from repro.common.params import CacheParams, SystemParams
from repro.sim.config import base_open, named_configs
from repro.sim.runner import (
    TRACE_CACHE_MAX_ENTRIES,
    build_trace,
    clear_trace_cache,
    run_configs,
    run_named_configs,
    run_workload,
    trace_cache_info,
)
from repro.workloads.catalog import get_workload

SMALL = SystemParams().scaled(
    llc=CacheParams(size_bytes=256 * 1024, associativity=16, hit_latency_cycles=8)
)


@pytest.fixture(autouse=True)
def _clean_cache():
    clear_trace_cache()
    yield
    clear_trace_cache()


def test_build_trace_caches_identical_requests():
    first = build_trace("web_search", 2000, num_cores=4, seed=1)
    second = build_trace("web_search", 2000, num_cores=4, seed=1)
    assert first is second
    third = build_trace("web_search", 2000, num_cores=4, seed=2)
    assert third is not first


def test_cache_key_fingerprints_spec_parameters_not_just_name():
    """Two specs sharing a name but differing in any knob never share a trace."""
    spec = get_workload("web_search")
    tweaked = spec.with_overrides(coarse_job_fraction=0.9)
    assert tweaked.name == spec.name
    base = build_trace(spec, 1000, num_cores=2, seed=1)
    other = build_trace(tweaked, 1000, num_cores=2, seed=1)
    assert other is not base
    assert other.address.tolist() != base.address.tolist()
    # Both entries coexist in the cache and keep serving their own trace.
    assert build_trace(spec, 1000, num_cores=2, seed=1) is base
    assert build_trace(tweaked, 1000, num_cores=2, seed=1) is other


def test_cache_hit_for_field_identical_spec_copies():
    """An identical-content copy (with_overrides()) hits the same entry."""
    spec = get_workload("web_search")
    first = build_trace(spec, 1000, num_cores=2, seed=1)
    assert build_trace(spec.with_overrides(), 1000, num_cores=2, seed=1) is first
    assert trace_cache_info()["entries"] == 1


def test_build_trace_can_bypass_cache():
    first = build_trace("web_search", 1000, num_cores=2, seed=1, use_cache=False)
    second = build_trace("web_search", 1000, num_cores=2, seed=1, use_cache=False)
    assert first is not second
    assert first == second


def test_trace_cache_is_bounded_by_lru_eviction():
    for seed in range(TRACE_CACHE_MAX_ENTRIES + 3):
        build_trace("web_search", 200, num_cores=2, seed=seed)
    info = trace_cache_info()
    assert info["capacity"] == TRACE_CACHE_MAX_ENTRIES
    assert info["entries"] == TRACE_CACHE_MAX_ENTRIES
    # The oldest seeds were evicted; rebuilding one yields a fresh list.
    oldest = build_trace("web_search", 200, num_cores=2, seed=0)
    again = build_trace("web_search", 200, num_cores=2, seed=0)
    assert oldest is again  # re-cached after the rebuild


def test_trace_cache_recency_is_refreshed_on_hit():
    first = build_trace("web_search", 200, num_cores=2, seed=0)
    for seed in range(1, TRACE_CACHE_MAX_ENTRIES):
        build_trace("web_search", 200, num_cores=2, seed=seed)
    # Touch seed 0 so it is the most recently used, then overflow the cache.
    assert build_trace("web_search", 200, num_cores=2, seed=0) is first
    build_trace("web_search", 200, num_cores=2, seed=TRACE_CACHE_MAX_ENTRIES)
    assert build_trace("web_search", 200, num_cores=2, seed=0) is first


def test_clear_trace_cache_resets_occupancy():
    build_trace("web_search", 200, num_cores=2, seed=1)
    assert trace_cache_info()["entries"] == 1
    clear_trace_cache()
    assert trace_cache_info()["entries"] == 0


def test_run_workload_accepts_spec_and_name():
    config = base_open().with_overrides(system=SMALL)
    by_name = run_workload("web_search", config, num_accesses=4000,
                           warmup_fraction=0.25)
    by_spec = run_workload(get_workload("web_search"), config, num_accesses=4000,
                           warmup_fraction=0.25)
    assert by_name.workload == by_spec.workload == "web_search"
    assert by_name.total_dram_accesses == by_spec.total_dram_accesses


def test_run_configs_shares_one_trace_across_systems():
    configs = [cfg.with_overrides(system=SMALL)
               for cfg in named_configs(["base_open", "bump"]).values()]
    results = run_configs("media_streaming", configs, num_accesses=5000,
                          warmup_fraction=0.2)
    assert set(results) == {"base_open", "bump"}
    # Identical demand-side work: the number of processor accesses observed
    # by both systems must match exactly.
    assert (results["base_open"].counters["accesses"]
            == results["bump"].counters["accesses"])


def test_run_named_configs_rejects_unknown_names():
    with pytest.raises(KeyError):
        run_named_configs("web_search", ["warp_drive"], num_accesses=1000)


class TestTraceCacheAliasing:
    """Cached buffers are shared by reference; they must be immutable."""

    def test_cached_trace_columns_are_read_only(self):
        trace = build_trace("web_search", 500, num_cores=2, seed=1)
        import numpy as np

        for column in (trace.core, trace.pc, trace.address, trace.is_store,
                       trace.instructions):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 0

    def test_mutation_attempt_cannot_corrupt_later_cache_hits(self):
        first = build_trace("web_search", 500, num_cores=2, seed=1)
        original = first.address.copy()
        with pytest.raises(ValueError):
            first.address[:] = 0
        second = build_trace("web_search", 500, num_cores=2, seed=1)
        assert second is first
        import numpy as np

        assert np.array_equal(second.address, original)

    def test_uncached_traces_stay_writable(self):
        trace = build_trace("web_search", 500, num_cores=2, seed=1,
                            use_cache=False)
        assert trace.address.flags.writeable
        trace.address[0] = 0  # must not raise

    def test_read_only_trace_still_simulates(self):
        build_trace("web_search", 1000, num_cores=4, seed=3)  # freeze in cache
        result = run_workload("web_search", base_open(), num_accesses=1000,
                              num_cores=4, seed=3, warmup_fraction=0.0)
        assert result.counters["accesses"] == 1000


class TestTraceCacheCounters:
    def test_info_reports_hits_misses_and_derived_ratio(self):
        info = trace_cache_info()
        assert info["hits"] == 0
        assert info["misses"] == 0
        assert info["hit_ratio"] == 0.0  # no lookups yet, no division
        build_trace("web_search", 2000)
        build_trace("web_search", 2000)
        build_trace("web_serving", 2000)
        info = trace_cache_info()
        assert info["misses"] == 2
        assert info["hits"] == 1
        assert info["hit_ratio"] == pytest.approx(1 / 3)

    def test_cache_bypass_does_not_count_as_a_lookup(self):
        build_trace("web_search", 2000, use_cache=False)
        info = trace_cache_info()
        assert info["hits"] == 0
        assert info["misses"] == 0

    def test_clear_resets_the_counters(self):
        build_trace("web_search", 2000)
        build_trace("web_search", 2000)
        clear_trace_cache()
        info = trace_cache_info()
        assert info["hits"] == 0
        assert info["misses"] == 0
        assert info["entries"] == 0
