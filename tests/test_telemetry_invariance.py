"""Telemetry must be purely observational.

A run with ``telemetry="full"`` produces a :class:`SimulationResult` whose
content fingerprint is bit-identical to the same run with telemetry off --
across every workload, every named system configuration, the ablation
schedulers, the streaming path and the scenario runner.
This is the invariant that keeps the artifact store sound (fingerprints
cover every result field) and is additionally gated in CI by
``benchmarks/bench_telemetry.py``.
"""

import functools

import pytest

from repro.exec.campaign import result_fingerprint
from repro.scenario import (
    Phase,
    Scenario,
    TenantAssignment,
    get_scenario,
    run_scenario,
)
from repro.sim.config import base_open, bump_system, named_configs
from repro.sim.runner import build_trace, run_trace, run_workload
from repro.telemetry import TelemetryRecorder
from repro.workloads import WORKLOADS

ACCESSES = 2500
CONFIGS = sorted(named_configs())


@functools.lru_cache(maxsize=None)
def _trace(workload):
    return build_trace(workload, ACCESSES)


def _digests(trace, config, **kwargs):
    off = run_trace(trace, config, telemetry="off", **kwargs)
    recorder = TelemetryRecorder("full")
    full = run_trace(trace, config, telemetry=recorder, **kwargs)
    assert len(recorder.timeline) >= 1  # telemetry actually recorded
    return result_fingerprint(off), result_fingerprint(full)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("config_name", CONFIGS)
def test_full_is_bit_identical_to_off(workload, config_name):
    trace = _trace(workload)
    config = named_configs()[config_name]
    off, full = _digests(trace, config)
    assert off == full


@pytest.mark.parametrize("scheduler", ["frfcfs", "bank_round_robin"])
def test_invariance_holds_on_every_engine_combination(scheduler):
    # Telemetry reads the queue depth, which round robin keeps in per-core
    # queues as well.
    trace = _trace("web_search")
    off, full = _digests(trace, bump_system(scheduler=scheduler))
    assert off == full


def test_invariance_holds_for_streaming_runs():
    kwargs = dict(num_accesses=4000, chunk_size=1000)
    off = run_workload("media_streaming", base_open(),
                       telemetry="off", **kwargs)
    recorder = TelemetryRecorder("full")
    full = run_workload("media_streaming", base_open(),
                        telemetry=recorder, **kwargs)
    assert len(recorder.timeline) >= 4
    assert result_fingerprint(off) == result_fingerprint(full)


def test_invariance_holds_for_scenarios_and_phases_are_marked():
    scenario = get_scenario("phase-change", scale=0.01)
    off = run_scenario(scenario, bump_system(), telemetry="off")
    recorder = TelemetryRecorder("full")
    full = run_scenario(scenario, bump_system(), telemetry=recorder)
    assert result_fingerprint(off) == result_fingerprint(full)
    phases = [e for e in recorder.events()
              if e["event"] == "mark" and e["name"] == "phase"]
    assert [m["fields"]["phase"] for m in phases] == \
        [phase.name for phase in scenario.phases]
    boundaries = [m["fields"]["accesses"] for m in phases]
    assert boundaries == sorted(boundaries)
    assert boundaries[-1] == scenario.total_accesses


def test_invariance_holds_when_the_warmup_boundary_splits_a_later_chunk():
    # 600 warmup accesses in chunks of 160: three chunks are sampled before
    # the boundary splits the fourth.
    scenario = Scenario(
        name="split-boundary", description="two tenants",
        phases=[Phase("only", 2_400, [
            TenantAssignment("web_search", (0, 1)),
            TenantAssignment("online_analytics", (2, 3), intensity=1.5),
        ])],
        num_cores=4)
    kwargs = dict(seed=11, warmup_fraction=0.25, chunk_size=160)
    off = run_scenario(scenario, base_open(), telemetry="off", **kwargs)
    recorder = TelemetryRecorder("full")
    full = run_scenario(scenario, base_open(), telemetry=recorder, **kwargs)
    assert len(recorder.timeline) == 2_400 // 160 + 1
    assert result_fingerprint(off) == result_fingerprint(full)
