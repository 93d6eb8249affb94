"""Closed-loop traffic: the feedback controller and its determinism envelope.

The properties that make a feedback-driven run usable for measurement (all
also sampled continuously by the fuzz oracle):

* one seed fixes the whole run -- rerunning reproduces the result
  fingerprint and the entire intensity trajectory bit for bit;
* the streaming chunk size is invisible: control updates land at fixed
  access-count boundaries, so any chunk size yields the identical run;
* FR-FCFS and bank round robin reproduce the results both DRAM engines
  agreed on, pinned in ``engine_pins``;
* telemetry is an observer, and the intensity gauge actually records the
  controller's trajectory;
* a warm-state snapshot taken mid-run carries the controller state, so the
  restored tail is bit-identical to never having stopped;
* the warmup-boundary split (one code path for all sources after the
  ``_cross_warmup_boundary`` dedup) behaves identically whether or not the
  boundary lands mid-chunk.
"""

import numpy as np
import pytest

from engine_pins import PINS
from repro.exec.campaign import result_fingerprint
from repro.scenario import (
    ClosedLoopSource,
    ClosedLoopSpec,
    Phase,
    Scenario,
    TenantAssignment,
    run_scenario,
)
from repro.scenario.closed_loop import as_closed_loop_spec
from repro.sim.config import base_open, bump_system
from repro.sim.snapshot import capture_warmup, load_snapshot, save_snapshot
from repro.sim.system import ServerSystem
from repro.telemetry import TelemetryRecorder
from repro.trace.source import FeedbackSample


def small_scenario(accesses=2400, num_cores=4):
    return Scenario(
        name="closed-loop-test",
        description="two tenants for controller tests",
        phases=[Phase("only", accesses, [
            TenantAssignment("web_search", (0, 1)),
            TenantAssignment("online_analytics", (2, 3), intensity=1.5),
        ])],
        num_cores=num_cores,
    )


SPEC = ClosedLoopSpec(target_latency=60.0, interval=160, gain=0.5)


def run(scenario=None, spec=SPEC, chunk_size=160, warmup=0.25,
        config=None, **kwargs):
    scenario = scenario if scenario is not None else small_scenario()
    config = config if config is not None else base_open()
    return run_scenario(scenario, config, seed=11,
                        warmup_fraction=warmup, chunk_size=chunk_size,
                        closed_loop=spec, **kwargs)


def feedback(accesses, reads, latency):
    return FeedbackSample(accesses=accesses, core_cycle=accesses * 4.0,
                          demand_reads=reads, read_latency_cycles=latency,
                          queue_depth=0, llc_misses=reads)


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClosedLoopSpec(target_latency=0.0)
        with pytest.raises(ValueError):
            ClosedLoopSpec(interval=0)
        with pytest.raises(ValueError):
            ClosedLoopSpec(gain=-0.1)
        with pytest.raises(ValueError):
            ClosedLoopSpec(min_intensity=2.0, max_intensity=1.0)
        with pytest.raises(ValueError):
            ClosedLoopSpec(initial_intensity=9.0)

    def test_dict_round_trip(self):
        spec = ClosedLoopSpec(target_latency=80.0, interval=256, gain=0.3)
        assert ClosedLoopSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unsupported closed-loop"):
            ClosedLoopSpec.from_dict({"target_latency": 60.0, "gian": 0.5})

    def test_as_closed_loop_spec_coercions(self):
        assert as_closed_loop_spec(None) is None
        assert as_closed_loop_spec(SPEC) is SPEC
        assert as_closed_loop_spec({"interval": 64}).interval == 64
        with pytest.raises(TypeError):
            as_closed_loop_spec(42)


class TestController:
    def test_throttles_under_high_latency(self):
        source = ClosedLoopSource(small_scenario(), SPEC, seed=11,
                                  chunk_size=SPEC.interval)
        source.next_chunk(None)
        source.next_chunk(feedback(160, 50, 50 * 500.0))  # 500 >> target 60
        assert source.current_intensity < SPEC.initial_intensity
        assert source.updates == 1

    def test_ramps_up_with_headroom_and_clamps(self):
        source = ClosedLoopSource(small_scenario(), SPEC, seed=11,
                                  chunk_size=SPEC.interval)
        reads, latency = 0, 0.0
        for boundary in range(1, 12):
            reads += 40
            latency += 40 * 5.0  # 5 cycles << target 60: always speed up
            if source.next_chunk(feedback(boundary * 160, reads, latency)) is None:
                break
        assert source.current_intensity == SPEC.max_intensity

    def test_holds_on_counter_reset_or_idle_interval(self):
        source = ClosedLoopSource(small_scenario(), SPEC, seed=11,
                                  chunk_size=SPEC.interval)
        source.next_chunk(None)
        source.next_chunk(feedback(160, 50, 50 * 500.0))
        throttled = source.current_intensity
        # Warmup reset: cumulative counters go backwards -> deterministic hold.
        source.next_chunk(feedback(320, 10, 100.0))
        assert source.current_intensity == throttled
        assert source.updates == 1

    def test_history_records_the_trajectory(self):
        source = ClosedLoopSource(small_scenario(), SPEC, seed=11,
                                  chunk_size=SPEC.interval)
        source.next_chunk(None)
        source.next_chunk(feedback(160, 50, 50 * 500.0))
        history = source.history
        assert history[0] == (0, SPEC.initial_intensity, None)
        position, intensity, observed = history[1]
        assert position == 160
        assert intensity == source.current_intensity
        assert observed == pytest.approx(500.0)

    def test_chunks_never_straddle_a_control_boundary(self):
        source = ClosedLoopSource(small_scenario(), SPEC, seed=11,
                                  chunk_size=999)  # deliberately unaligned
        position = 0
        while True:
            chunk = source.next_chunk(None)
            if chunk is None:
                break
            start_interval = position // SPEC.interval
            position += len(chunk)
            assert (position - 1) // SPEC.interval == start_interval


class TestDeterminismEnvelope:
    def test_rerun_is_bit_identical_with_identical_trajectory(self):
        first_source = ClosedLoopSource(small_scenario(), SPEC, seed=11,
                                        chunk_size=160)
        first = run(spec=first_source)
        second_source = ClosedLoopSource(small_scenario(), SPEC, seed=11,
                                         chunk_size=160)
        second = run(spec=second_source)
        assert result_fingerprint(first) == result_fingerprint(second)
        assert first_source.history == second_source.history
        assert first_source.updates > 0  # the controller actually acted

    def test_seed_changes_the_run(self):
        base = run()
        reseeded = run_scenario(small_scenario(), base_open(), seed=12,
                                warmup_fraction=0.25, chunk_size=160,
                                closed_loop=SPEC)
        assert result_fingerprint(base) != result_fingerprint(reseeded)

    @pytest.mark.parametrize("chunk_size", [64, 352, 4096])
    def test_chunk_size_invariance(self, chunk_size):
        assert (result_fingerprint(run(chunk_size=chunk_size))
                == result_fingerprint(run(chunk_size=160)))

    @pytest.mark.parametrize("scheduler", ["frfcfs", "bank_round_robin"])
    def test_engine_cube_is_bit_identical(self, scheduler):
        # The feedback path reads the queue depth, which round robin keeps
        # in per-core queues as well.
        cell = run(config=base_open(scheduler=scheduler))
        assert (result_fingerprint(cell)
                == PINS["dram"]["closed_loop"][scheduler])

    def test_spec_and_prebuilt_source_agree(self):
        via_spec = run(spec=SPEC)
        via_source = run(spec=ClosedLoopSource(small_scenario(), SPEC,
                                               seed=11, chunk_size=160))
        assert result_fingerprint(via_spec) == result_fingerprint(via_source)


class TestTelemetry:
    def test_full_telemetry_is_bit_identical_to_off(self):
        recorder = TelemetryRecorder("full")
        full = run(telemetry=recorder)
        off = run(telemetry="off")
        assert result_fingerprint(full) == result_fingerprint(off)
        assert len(recorder.timeline) >= 1

    def test_intensity_gauge_tracks_the_controller(self):
        recorder = TelemetryRecorder("chunks")
        source = ClosedLoopSource(small_scenario(), SPEC, seed=11,
                                  chunk_size=160)
        run(spec=source, telemetry=recorder)
        column = recorder.timeline.column("intensity")
        recorded = set(np.unique(column))
        trajectory = {intensity for _, intensity, _ in source.history}
        assert recorded <= trajectory
        assert len(recorded) > 1  # the gauge saw the controller move

    def test_open_loop_runs_record_unit_intensity(self):
        recorder = TelemetryRecorder("chunks")
        run_scenario(small_scenario(), base_open(), seed=11,
                     warmup_fraction=0.25, chunk_size=160,
                     telemetry=recorder)
        assert set(np.unique(recorder.timeline.column("intensity"))) == {1.0}


class TestSnapshots:
    def _warm_restore_fingerprint(self, tmp_path, chunk_size):
        scenario = small_scenario()
        warmup = int(scenario.total_accesses * 0.25)
        system = ServerSystem(base_open(), workload_name=scenario.name)
        source = ClosedLoopSource(scenario, SPEC, seed=11,
                                  chunk_size=chunk_size)
        snapshot, _, _ = capture_warmup(system, source, warmup)
        path = tmp_path / "warm.npz"
        save_snapshot(snapshot, path)
        restored = load_snapshot(path)
        result = run_scenario(scenario, base_open(), seed=11,
                              warmup_fraction=0.25, chunk_size=chunk_size,
                              snapshot=restored, closed_loop=SPEC)
        return result_fingerprint(result)

    def test_npz_round_trip_restores_mid_run_exactly(self, tmp_path):
        uninterrupted = result_fingerprint(run())
        assert self._warm_restore_fingerprint(tmp_path, 160) == uninterrupted

    def test_restore_works_across_chunk_sizes(self, tmp_path):
        """The controller checkpoint excludes chunk size on purpose."""
        uninterrupted = result_fingerprint(run(chunk_size=352))
        assert self._warm_restore_fingerprint(tmp_path, 352) == uninterrupted

    def test_checkpoint_guard_rejects_foreign_state(self):
        source = ClosedLoopSource(small_scenario(), SPEC, seed=11)
        state = source.checkpoint_state()
        other = ClosedLoopSource(small_scenario(), SPEC, seed=12)
        with pytest.raises(ValueError, match="different"):
            other.restore_state(state)

    def test_checkpoint_state_round_trips(self):
        source = ClosedLoopSource(small_scenario(), SPEC, seed=11,
                                  chunk_size=160)
        source.next_chunk(None)
        source.next_chunk(feedback(160, 50, 50 * 500.0))
        state = source.checkpoint_state()
        clone = ClosedLoopSource(small_scenario(), SPEC, seed=11,
                                 chunk_size=160)
        clone.restore_state(state)
        assert clone.current_intensity == source.current_intensity
        assert clone.history == source.history
        left = source.next_chunk(None)
        right = clone.next_chunk(None)
        assert left == right


class TestWarmupBoundarySplit:
    """The unified split path: boundaries landing mid-chunk change nothing."""

    @pytest.mark.parametrize("closed_loop", [None, SPEC])
    def test_mid_chunk_boundary_matches_aligned_boundary(self, closed_loop):
        # 2400 accesses, warmup 600: chunk 160 splits mid-chunk (600 % 160
        # != 0), chunk 100 puts the boundary exactly on a chunk edge.
        mid = run_scenario(small_scenario(), base_open(), seed=11,
                           warmup_fraction=0.25, chunk_size=160,
                           closed_loop=closed_loop)
        aligned = run_scenario(small_scenario(), base_open(), seed=11,
                               warmup_fraction=0.25, chunk_size=100,
                               closed_loop=closed_loop)
        assert result_fingerprint(mid) == result_fingerprint(aligned)

    @pytest.mark.parametrize("closed_loop", [None, SPEC])
    def test_telemetry_sees_the_same_split(self, closed_loop):
        off = run_scenario(small_scenario(), base_open(), seed=11,
                           warmup_fraction=0.25, chunk_size=160,
                           closed_loop=closed_loop, telemetry="off")
        recorder = TelemetryRecorder("full")
        full = run_scenario(small_scenario(), base_open(), seed=11,
                            warmup_fraction=0.25, chunk_size=160,
                            closed_loop=closed_loop, telemetry=recorder)
        assert result_fingerprint(off) == result_fingerprint(full)


class TestConfigSensitivity:
    def test_different_systems_produce_different_closed_loop_runs(self):
        base = run()
        bump = run_scenario(small_scenario(), bump_system(), seed=11,
                            warmup_fraction=0.25, chunk_size=160,
                            closed_loop=SPEC)
        assert result_fingerprint(base) != result_fingerprint(bump)
