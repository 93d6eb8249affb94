"""Unit and property tests for the memory system.

The contract of :class:`repro.dram.flat.FlatMemorySystem` is state-for-state
identity with the reference DRAM (:mod:`repro.fuzz.reference_dram`) over any
request stream, for every scheduler, both page policies and both
interleaving schemes.  The tests here drive the memory system directly, so
failures localize to the engine rather than the simulator; the lockstep
class at the end runs the reference beside whole simulations.
"""

import numpy as np
import pytest

from repro.common.params import (
    CacheParams,
    DDR3Timing,
    DRAMOrganization,
    SystemParams,
)
from repro.common.request import DRAMRequestKind
from repro.dram.address_mapping import (
    make_block_interleaving,
    make_region_interleaving,
)
from repro.dram.flat import SCHEDULERS, FlatMemorySystem, PagePolicy
from repro.fuzz.reference_dram import (
    DRAMShadow,
    ReferenceDRAM,
    engine_state,
    first_difference,
)
from repro.scenario import Phase, Scenario, TenantAssignment
from repro.scenario.compiler import iter_scenario_chunks
from repro.sim import pipeline
from repro.sim.config import bump_system
from repro.sim.runner import build_trace
from repro.sim.system import ServerSystem

KINDS = list(DRAMRequestKind)


def _params():
    return SystemParams()


def _systems(mapping_factory=make_region_interleaving,
             policy=PagePolicy.OPEN, scheduler="frfcfs"):
    """``(reference, engine)`` over the same geometry."""
    params = _params()
    org = params.dram_org
    timing = params.dram_timing
    mapping = mapping_factory(org, org.row_buffer_bytes)
    window = org.transaction_queue_entries
    reference = ReferenceDRAM(timing, org, mapping, policy, window=window,
                              scheduler=scheduler)
    flat = FlatMemorySystem(timing, org, mapping, policy, window=window,
                            scheduler=scheduler)
    return reference, flat


def _random_stream(n, seed=0, region_runs=True):
    """(blocks, kind codes, arrivals, cores): random and same-region runs."""
    rng = np.random.default_rng(seed)
    if region_runs:
        base = rng.integers(0, 1 << 20, (n + 3) // 4).astype(np.int64)
        blocks = (np.repeat(base, 4)[:n]
                  + np.tile(np.arange(4, dtype=np.int64), (n + 3) // 4)[:n])
    else:
        blocks = rng.integers(0, 1 << 24, n).astype(np.int64)
    blocks = blocks << 6
    kinds = rng.choice(len(KINDS), size=n,
                       p=[0.45, 0.1, 0.1, 0.25, 0.05, 0.05]).astype(np.int64)
    arrivals = np.cumsum(rng.random(n) * 1.5)
    cores = rng.integers(0, 16, n).astype(np.int64)
    return blocks, kinds, arrivals, cores


def _assert_same_state(flat, reference):
    problem = first_difference(engine_state(flat), reference.state())
    assert problem is None, problem


GEOMETRIES = [
    (make_region_interleaving, PagePolicy.OPEN),
    (make_region_interleaving, PagePolicy.CLOSE),
    (make_block_interleaving, PagePolicy.OPEN),
    (make_block_interleaving, PagePolicy.CLOSE),
]


class TestBitIdentity:
    @pytest.mark.parametrize("mapping_factory,policy", GEOMETRIES)
    def test_stats_identical_over_mixed_stream(self, mapping_factory, policy):
        stream = _random_stream(12_000, seed=3)
        for scheduler in SCHEDULERS:
            reference, flat = _systems(mapping_factory, policy, scheduler)
            reference.enqueue_block_batch(*stream)
            reference.drain()
            flat.enqueue_block_batch(*stream)
            flat.drain()
            _assert_same_state(flat, reference)

    def test_batch_boundaries_are_invisible(self):
        """Splitting a stream into arbitrary batches changes nothing."""
        stream = _random_stream(6_000, seed=11)
        for scheduler in SCHEDULERS:
            _, one_shot = _systems(scheduler=scheduler)
            one_shot.enqueue_block_batch(*stream)
            one_shot.drain()
            expected = engine_state(one_shot)
            for batch in (1, 7, 63, 64, 65, 4096):
                _, chunked = _systems(scheduler=scheduler)
                for start in range(0, len(stream[0]), batch):
                    chunked.enqueue_block_batch(
                        *(column[start:start + batch] for column in stream))
                chunked.drain()
                assert engine_state(chunked) == expected, (scheduler, batch)

    def test_per_channel_stats_match_controllers(self):
        """Each channel's counters equal the reference channel's."""
        reference, flat = _systems()
        stream = _random_stream(8_000, seed=9)
        reference.enqueue_block_batch(*stream)
        reference.drain()
        flat.enqueue_block_batch(*stream)
        flat.drain()
        for channel, modelled in enumerate(reference.channels):
            stats = flat.channel_stats(channel)
            for key, value in modelled.counts.items():
                assert stats[key] == value, (channel, key)
            for key, value in modelled.latencies.items():
                assert stats[key] == value, (channel, key)
            assert flat.last_completion[channel] == modelled.last_completion

    def test_drain_is_idempotent_and_returns_nothing(self):
        _, flat = _systems()
        flat.enqueue_block_batch(*_random_stream(500, seed=1))
        assert flat.drain() is None
        first = flat.aggregate_stats().snapshot()
        assert flat.drain() is None
        assert flat.aggregate_stats().snapshot() == first
        assert flat.pending_count() == 0


class TestQueue:
    def test_long_streams_stay_identical(self):
        """Streams hundreds of windows long, fed in batches, stay identical."""
        reference, flat = _systems()
        stream = _random_stream(30_000, seed=21, region_runs=False)
        reference.enqueue_block_batch(*stream)
        reference.drain()
        for start in range(0, len(stream[0]), 1000):
            flat.enqueue_block_batch(
                *(column[start:start + 1000] for column in stream))
        flat.drain()
        _assert_same_state(flat, reference)

    def test_queue_stays_bounded_during_batches(self):
        """Eager draining keeps each channel under twice the window."""
        for scheduler in SCHEDULERS:
            _, flat = _systems(scheduler=scheduler)
            flat.enqueue_block_batch(*_random_stream(10_000, seed=2))
            for channel in range(flat.org.channels):
                assert flat.pending_count(channel) < 2 * flat.window


class TestCounters:
    def test_reset_counters_preserves_architectural_state(self):
        reference, flat = _systems()
        stream = _random_stream(6_000, seed=13)
        half = len(stream[0]) // 2
        for system in (reference, flat):
            system.enqueue_block_batch(*(column[:half] for column in stream))
            system.drain()
            system.reset_counters()
        _assert_same_state(flat, reference)
        assert flat.aggregate_stats()["accesses"] == 0
        for system in (reference, flat):
            system.enqueue_block_batch(*(column[half:] for column in stream))
            system.drain()
        # Post-warmup measurements still identical: row-buffer and bank
        # timing state survived the reset.
        _assert_same_state(flat, reference)


class TestEngineResolution:
    """Construction-time validation of the memory system."""

    def test_flat_system_accepts_boundary_organisation(self):
        # Counts of exactly 64 still pack (indices 0..63 fit six bits).
        org = DRAMOrganization(banks_per_rank=64)
        mapping = make_region_interleaving(org, org.row_buffer_bytes)
        assert FlatMemorySystem(DDR3Timing(), org, mapping) is not None

    def test_flat_system_rejects_oversized_organisation(self):
        for field in ("banks_per_rank", "ranks_per_channel"):
            org = DRAMOrganization(**{field: 128})
            mapping = make_region_interleaving(org, org.row_buffer_bytes)
            with pytest.raises(ValueError, match=f"{field}=128.*not exceed 64"):
                FlatMemorySystem(DDR3Timing(), org, mapping)

    def test_flat_system_rejects_empty_window(self):
        params = _params()
        mapping = make_region_interleaving(params.dram_org,
                                           params.dram_org.row_buffer_bytes)
        with pytest.raises(ValueError, match="window"):
            FlatMemorySystem(params.dram_timing, params.dram_org, mapping,
                             window=0)

    def test_flat_system_rejects_unknown_scheduler(self):
        params = _params()
        mapping = make_region_interleaving(params.dram_org,
                                           params.dram_org.row_buffer_bytes)
        with pytest.raises(ValueError, match="unknown scheduler 'write_drain'"):
            FlatMemorySystem(params.dram_timing, params.dram_org, mapping,
                             scheduler="write_drain")


def _evicting_scenario():
    """Two tenants on eight cores, long enough to fill a 256 KB LLC."""
    return Scenario(
        name="dram-lockstep", description="LLC-evicting two-tenant mix",
        phases=[Phase("only", 6_000, [
            TenantAssignment("web_search", (0, 1, 2, 3)),
            TenantAssignment("data_serving", (4, 5, 6, 7), intensity=1.5),
        ])],
        num_cores=8)


class TestSystemLockstep:
    @pytest.mark.parametrize("policy", [PagePolicy.OPEN, PagePolicy.CLOSE])
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_system_memory_matches_the_reference_dram(self, scheduler, policy):
        """Every memory-system call of an LLC-evicting run, in lockstep."""
        params = SystemParams(num_cores=8, llc=CacheParams(
            size_bytes=256 * 1024, associativity=16, hit_latency_cycles=8))
        config = bump_system(system=params, page_policy=policy,
                             scheduler=scheduler)
        system = ServerSystem(config)
        shadow = DRAMShadow(system)
        result = system.run(iter_scenario_chunks(_evicting_scenario(), seed=3,
                                                 chunk_size=256),
                            warmup_accesses=1_500)
        assert shadow.mismatch is None, shadow.mismatch
        assert shadow.calls > 20
        assert result.counters["demand_writebacks"] > 0
        assert result.counters["bulk_reads"] > 0

    @pytest.mark.skipif(pipeline.helper_cpus() is None,
                        reason="the pipeline needs a second CPU")
    def test_a_pipelined_run_is_reported_not_passed(self, monkeypatch):
        """The DRAM helper serves out of the shadow's sight, so the state it
        hands back is a mismatch, never a silent pass."""
        monkeypatch.setattr(pipeline, "ENGAGE_ACCESSES", 1)
        system = ServerSystem(bump_system())
        shadow = DRAMShadow(system)
        trace = build_trace("web_search", 1_000, num_cores=16, seed=1)
        system.run(list(trace.iter_chunks(256)))
        assert "replaced from outside the shadow" in shadow.mismatch
