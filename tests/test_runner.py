"""Unit tests for the experiment runner (workload runs, config sweeps)."""

import pytest

from repro.common.params import CacheParams, SystemParams
from repro.exec.campaign import result_fingerprint
from repro.exec.store import ArtifactStore
from repro.scenario import get_scenario, run_scenario
from repro.sim.config import base_open, bump_system, named_configs
from repro.sim.runner import build_trace, run_configs, run_trace, run_workload
from repro.sim.snapshot import capture_warmup
from repro.sim.system import ServerSystem
from repro.workloads.catalog import get_workload

SMALL = SystemParams().scaled(
    llc=CacheParams(size_bytes=256 * 1024, associativity=16, hit_latency_cycles=8)
)


def test_build_trace_can_bypass_cache():
    """build_trace never caches: equal traces, never the same object."""
    first = build_trace("web_search", 1000, num_cores=2, seed=1)
    second = build_trace("web_search", 1000, num_cores=2, seed=1)
    assert first is not second
    assert first == second


class TestTraceCacheAliasing:
    """build_trace hands each caller its own buffers; none is shared."""

    def test_uncached_traces_stay_writable(self):
        trace = build_trace("web_search", 500, num_cores=2, seed=1)
        pristine = build_trace("web_search", 500, num_cores=2, seed=1)
        assert trace.address.flags.writeable
        trace.address[0] = 0  # must not raise
        # The caller owns the buffer: nothing else sees the write.
        assert build_trace("web_search", 500, num_cores=2, seed=1) == pristine


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


class TestRunWorkloadStreams:
    """run_workload streams generator chunks and matches the buffer run."""

    ACCESSES = 6_000
    CORES = 4
    SEED = 11

    def _materialized(self, config, warmup_fraction=0.5):
        trace = build_trace("web_search", self.ACCESSES,
                            num_cores=self.CORES, seed=self.SEED)
        return run_trace(trace, config, workload_name="web_search",
                         warmup_fraction=warmup_fraction)

    def _streamed(self, config, chunk_size, **kwargs):
        return run_workload("web_search", config, num_accesses=self.ACCESSES,
                            num_cores=self.CORES, seed=self.SEED,
                            chunk_size=chunk_size, **kwargs)

    @pytest.mark.parametrize("chunk_size", [700, 4096, 65_536])
    def test_fingerprint_matches_the_materialized_run(self, chunk_size):
        config = bump_system()
        expected = result_fingerprint(self._materialized(config))
        assert result_fingerprint(self._streamed(config, chunk_size)) == expected

    @pytest.mark.parametrize("chunk_size", [700, 65_536])
    def test_warmup_snapshot_capture_and_restore_match(self, tmp_path,
                                                       chunk_size):
        config = base_open()
        expected = result_fingerprint(self._materialized(config))
        store = ArtifactStore(tmp_path)
        captured = self._streamed(config, chunk_size, warmup_snapshot=store)
        restored = self._streamed(config, chunk_size, warmup_snapshot=store)
        assert result_fingerprint(captured) == expected
        assert result_fingerprint(restored) == expected

    @pytest.mark.parametrize("chunk_size", [700, 65_536])
    def test_explicit_snapshot_matches(self, chunk_size):
        config = bump_system()
        expected = result_fingerprint(self._materialized(config))
        system = ServerSystem(config, workload_name="web_search")
        trace = build_trace("web_search", self.ACCESSES,
                            num_cores=self.CORES, seed=self.SEED)
        snapshot, _, _ = capture_warmup(system, trace, self.ACCESSES // 2)
        resumed = self._streamed(config, chunk_size, snapshot=snapshot)
        assert result_fingerprint(resumed) == expected


class TestRejectsImpossibleArguments:
    """Every run entry point rejects an impossible run before simulating."""

    @pytest.mark.parametrize("fraction", [1.0, 1.5, -0.5])
    def test_run_workload_rejects_warmup_fraction(self, fraction):
        with pytest.raises(ValueError, match=r"warmup_fraction must be in \[0, 1\)"):
            run_workload("web_search", base_open(), num_accesses=1000,
                         warmup_fraction=fraction)

    @pytest.mark.parametrize("fraction", [1.0, -0.5])
    def test_run_trace_rejects_warmup_fraction(self, fraction):
        trace = build_trace("web_search", 500, num_cores=2, seed=1)
        with pytest.raises(ValueError, match="warmup_fraction"):
            run_trace(trace, base_open(), warmup_fraction=fraction)

    @pytest.mark.parametrize("fraction", [1.0, -0.5])
    def test_run_scenario_rejects_warmup_fraction(self, fraction):
        scenario = get_scenario("idle-cores", scale=0.002)
        with pytest.raises(ValueError, match="warmup_fraction"):
            run_scenario(scenario, base_open(), warmup_fraction=fraction)

    @pytest.mark.parametrize("accesses", [0, -5])
    def test_run_workload_rejects_an_empty_trace(self, accesses):
        with pytest.raises(ValueError, match="num_accesses must be at least 1"):
            run_workload("web_search", base_open(), num_accesses=accesses)
