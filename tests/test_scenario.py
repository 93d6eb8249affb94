"""Tests for the composable scenario engine (`repro.scenario`).

The load-bearing properties: one seed fixes the whole multi-tenant trace
bit for bit, chunking cannot change it (including chunks spanning phase
boundaries), idle cores stay silent, intensity scales arrival gaps, and a
compiled scenario behaves like any other trace end to end (streaming entry
points; the ``MATRIX`` scenarios' results under ``base_open`` are the
registry's ``scenario`` cells in ``test_golden_pins``).
"""

import numpy as np
import pytest

from repro.exec.campaign import result_fingerprint
from repro.exec.jobs import JobSpec
from repro.scenario import (
    Burst,
    Phase,
    Scenario,
    TenantAssignment,
    generate_scenario_buffer,
    get_scenario,
    iter_scenario_chunks,
    run_scenario,
    scenario_names,
)
from repro.sim.config import base_open
from repro.workloads.catalog import get_workload
from repro.sim.runner import run_trace, run_workload
from repro.sim.system import ServerSystem

#: Scales every catalog scenario down to a few thousand accesses.
SCALE = 0.003

#: Catalog scenarios the determinism/parity matrix runs over (one single
#: phase, one bursty multi-phase, one maximally heterogeneous).
MATRIX = ["tenant-colocation", "antagonist-burst", "all-six-mix"]


def small(name: str) -> Scenario:
    return get_scenario(name, scale=SCALE)


# --------------------------------------------------------------------- #
# Description validation
# --------------------------------------------------------------------- #
class TestSpecValidation:
    def test_overlapping_cores_rejected(self):
        with pytest.raises(ValueError, match="more than one tenant"):
            Phase("p", 100, [
                TenantAssignment("web_search", (0, 1)),
                TenantAssignment("data_serving", (1, 2)),
            ])

    def test_burst_window_must_be_ordered(self):
        with pytest.raises(ValueError):
            Burst(0.5, 0.5, 2.0)
        with pytest.raises(ValueError):
            Burst(-0.1, 0.5, 2.0)
        with pytest.raises(ValueError):
            Burst(0.1, 0.5, 0.0)

    def test_cores_must_fit_the_system(self):
        phase = Phase("p", 100, [TenantAssignment("web_search", (0, 16))])
        with pytest.raises(ValueError, match="outside the 16-core system"):
            Scenario(name="bad", description="", phases=[phase])

    def test_accesses_need_a_tenant(self):
        with pytest.raises(ValueError, match="no tenants"):
            Phase("p", 100, [])

    def test_unknown_scenario_name(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("no-such-scenario")

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            get_scenario("idle-cores", scale=0.0)

    def test_workload_names_resolve(self):
        tenant = TenantAssignment("web_search", (0,))
        assert tenant.workload.name == "web_search"


# --------------------------------------------------------------------- #
# Catalog integrity
# --------------------------------------------------------------------- #
class TestCatalog:
    def test_ships_the_six_scenarios(self):
        assert scenario_names() == [
            "tenant-colocation", "diurnal-ramp", "antagonist-burst",
            "phase-change", "idle-cores", "all-six-mix",
        ]

    @pytest.mark.parametrize("name", [
        "tenant-colocation", "diurnal-ramp", "antagonist-burst",
        "phase-change", "idle-cores", "all-six-mix",
    ])
    def test_full_scale_is_measurement_sized(self, name):
        scenario = get_scenario(name)
        assert scenario.total_accesses >= 1_000_000
        assert len(scenario.describe()) == len(scenario.phases)

    def test_name_normalisation(self):
        assert get_scenario("Tenant_Colocation").name == "tenant-colocation"

    def test_scale_shrinks_phases(self):
        assert get_scenario("idle-cores", scale=0.001).total_accesses == 1_000

    def test_scale_applies_to_scenario_instances(self):
        # get_scenario must rescale a ready instance, not silently ignore
        # scale= (ScenarioGrid relies on this for custom scenarios).
        custom = Scenario(
            name="custom", description="",
            phases=[Phase("p", 10_000,
                          [TenantAssignment("web_search", (0, 1))],
                          bursts=(Burst(0.1, 0.2, 2.0),))])
        scaled = get_scenario(custom, scale=0.1)
        assert scaled.total_accesses == 1_000
        assert scaled.phases[0].bursts == custom.phases[0].bursts
        assert custom.total_accesses == 10_000  # input untouched
        assert get_scenario(custom) is custom  # scale=1.0 passes through


# --------------------------------------------------------------------- #
# Seed determinism and chunk-size invariance
# --------------------------------------------------------------------- #
class TestDeterminism:
    @pytest.mark.parametrize("name", MATRIX)
    def test_bit_identical_across_chunk_sizes(self, name):
        scenario = small(name)
        reference = generate_scenario_buffer(scenario, seed=11,
                                             chunk_size=scenario.total_accesses)
        for chunk_size in (512, 1111):
            assert generate_scenario_buffer(scenario, seed=11,
                                            chunk_size=chunk_size) == reference

    @pytest.mark.parametrize("name", MATRIX)
    def test_seed_changes_the_trace(self, name):
        scenario = small(name)
        one = generate_scenario_buffer(scenario, seed=1)
        two = generate_scenario_buffer(scenario, seed=2)
        assert not np.array_equal(one.address, two.address)

    def test_chunks_are_full_sized_except_the_last(self):
        scenario = small("antagonist-burst")
        chunks = list(iter_scenario_chunks(scenario, seed=3, chunk_size=500))
        assert [len(chunk) for chunk in chunks[:-1]] == [500] * (len(chunks) - 1)
        assert sum(len(chunk) for chunk in chunks) == scenario.total_accesses

    def test_idle_cores_stay_silent(self):
        buffer = generate_scenario_buffer(small("idle-cores"), seed=5)
        assert set(np.unique(buffer.core).tolist()) == {0, 1, 2, 3}

    def test_phase_boundary_not_multiple_of_chunk_size(self):
        # 1000 + 777 accesses, chunked at 256: the fifth chunk splices the
        # tail of phase one with the head of phase two.
        scenario = Scenario(
            name="boundary", description="",
            phases=[
                Phase("one", 1000, [TenantAssignment("web_search", (0, 1))]),
                Phase("two", 777, [TenantAssignment("data_serving", (4, 5, 6))]),
            ])
        whole = generate_scenario_buffer(scenario, seed=9, chunk_size=10_000)
        chunked = generate_scenario_buffer(scenario, seed=9, chunk_size=256)
        assert chunked == whole
        assert len(whole) == 1777
        # The boundary lands exactly at access 1000: phase one's cores before
        # it, phase two's after it.
        assert set(np.unique(whole.core[:1000]).tolist()) == {0, 1}
        assert set(np.unique(whole.core[1000:]).tolist()) == {4, 5, 6}

    def test_intensity_compresses_instruction_gaps(self):
        tenants = [TenantAssignment("web_search", (0, 1, 2, 3))]
        scenario = Scenario(
            name="ramp", description="",
            phases=[
                Phase("slow", 2000, tenants, intensity=1.0),
                Phase("fast", 2000, tenants, intensity=2.0),
            ])
        buffer = generate_scenario_buffer(scenario, seed=4)
        slow = float(buffer.instructions[:2000].mean())
        fast = float(buffer.instructions[2000:].mean())
        assert fast < 0.7 * slow

    def test_burst_window_compresses_gaps_inside_only(self):
        tenants = [TenantAssignment("web_search", (0, 1))]
        scenario = Scenario(
            name="spike", description="",
            phases=[Phase("p", 4000, tenants,
                          bursts=(Burst(0.25, 0.5, 4.0),))])
        buffer = generate_scenario_buffer(scenario, seed=4)
        inside = float(buffer.instructions[1000:2000].mean())
        outside = float(buffer.instructions[2000:].mean())
        assert inside < 0.5 * outside

    def test_override_variants_do_not_share_layouts(self):
        # Two specs named "web_search" on the same core: the layout cache
        # keys on the spec's content fingerprint, so the overridden tenant
        # must draw from its own (tiny) dataset, not the default one.
        tiny = get_workload("web_search").with_overrides(
            coarse_heap_bytes=1024 * 1024, fine_space_bytes=1024 * 1024,
            coarse_object_count=64)
        scenario = Scenario(
            name="variants", description="",
            phases=[
                Phase("default", 1000, [TenantAssignment("web_search", (0,))]),
                Phase("tiny", 1000, [TenantAssignment(tiny, (0,))]),
            ])
        buffer = generate_scenario_buffer(scenario, seed=3)
        tiny_addresses = buffer.address[1000:]
        assert int(tiny_addresses.max()) < 4 * 1024 * 1024
        assert int(buffer.address[:1000].max()) > 4 * 1024 * 1024

    def test_round_robin_interleaves_active_cores(self):
        buffer = generate_scenario_buffer(small("tenant-colocation"), seed=6)
        # All sixteen cores are active, in sorted round-robin order.
        assert buffer.core[:16].tolist() == list(range(16))


# --------------------------------------------------------------------- #
# Simulation integration: chunking, entry points
# --------------------------------------------------------------------- #
class TestSimulationParity:
    def test_result_invariant_under_chunk_size(self):
        scenario = small("antagonist-burst")
        small_chunks = run_scenario(scenario, base_open(), chunk_size=512)
        large_chunks = run_scenario(scenario, base_open(), chunk_size=4096)
        assert result_fingerprint(small_chunks) == result_fingerprint(large_chunks)

    def test_server_system_accepts_a_scenario(self):
        scenario = small("idle-cores")
        direct = ServerSystem(base_open(), workload_name=scenario.name).run(scenario)
        streamed = run_scenario(scenario, base_open(), warmup_fraction=0.0)
        assert result_fingerprint(direct) == result_fingerprint(streamed)

    def test_run_trace_accepts_a_scenario(self):
        scenario = small("idle-cores")
        via_trace = run_trace(scenario, base_open(), workload_name=scenario.name)
        via_runner = run_scenario(scenario, base_open())
        assert result_fingerprint(via_trace) == result_fingerprint(via_runner)

    def test_streaming_run_retains_no_completed_requests(self):
        # Bounded-memory promise: the memory system must not keep one entry
        # per DRAM transfer; it folds everything into counters at serve
        # time, and its queues hold less than twice the window, however
        # long the trace.
        scenario = small("tenant-colocation")
        system = ServerSystem(base_open(), workload_name=scenario.name)
        result = system.run(scenario)
        memory = system.memory
        assert result.counters["accesses"] == scenario.total_accesses
        assert memory.aggregate_stats()["accesses"] > 2 * memory.window
        assert memory.pending_count() == 0
        assert all(len(queue) < 2 * memory.window
                   for queue in memory._pending)

    def test_run_workload_rejects_a_scenario(self):
        """A scenario has one run path, and the error names it."""
        with pytest.raises(TypeError, match="run_scenario"):
            run_workload(small("idle-cores"), base_open(), seed=7)


# --------------------------------------------------------------------- #
# Campaign engine
# --------------------------------------------------------------------- #
def test_jobspec_rejects_a_scenario():
    """Campaign jobs are workloads; a scenario's one path is run_scenario."""
    with pytest.raises(TypeError, match="run_scenario"):
        JobSpec(workload=small("idle-cores"), config=base_open())
