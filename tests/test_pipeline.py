"""The pipelined run loop (``repro.sim.pipeline``).

A pipelined run forks a read-ahead of its trace source and a DRAM stage
serving the memory system, and must stay bit-identical to the in-process
loop.  Tests force engagement on short traces by lowering
``ENGAGE_ACCESSES`` and keep it off by raising it; a spy on
``start_pipeline`` records which helpers a run actually forked.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import warnings

import numpy as np
import pytest

from engine_pins import PINS
from repro.cache.agent import LLCAgent
from repro.exec.campaign import result_fingerprint
from repro.scenario import Phase, Scenario, TenantAssignment
from repro.scenario.catalog import get_scenario, scenario_names
from repro.scenario.compiler import iter_scenario_chunks
from repro.sim import pipeline
from repro.sim.config import base_open, bump_system, named_configs
from repro.sim.runner import build_trace, run_workload
from repro.sim.system import ServerSystem
from repro.telemetry import TelemetryRecorder
from repro.trace.buffer import DEFAULT_CHUNK_SIZE, TraceBuffer
from repro.workloads import WORKLOADS

CORES = 16
ACCESSES = 2_500
CHUNK = 256
#: Warmup variants, rotated across the matrix: the boundary inside a chunk,
#: on a chunk edge, and no warmup at all.
WARMUPS = (1_100, 5 * CHUNK, 0)
CONFIGS = ("base_close", "base_open", "sms", "vwq", "sms_vwq", "full_region",
           "bump", "ideal", "bump_vwq", "nextline", "stealth",
           "eager_writeback")
NEVER = 1 << 62

needs_cpus = pytest.mark.skipif(
    pipeline.helper_cpus() is None,
    reason="the pipeline needs a second CPU and a single-threaded process")


@pytest.fixture
def started(monkeypatch):
    """Every pipeline a run starts (``None`` where the CPU checks refused)."""
    log = []
    real = pipeline.start_pipeline

    def spy(*args, **kwargs):
        pipe = real(*args, **kwargs)
        log.append(pipe)
        return pipe

    monkeypatch.setattr(pipeline, "start_pipeline", spy)
    return log


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _chunks(trace: TraceBuffer, size: int = CHUNK) -> list:
    return list(trace.iter_chunks(size))


def _fingerprint(config, chunks, warmup, workload="w", **kwargs):
    system = ServerSystem(config, workload_name=workload, **kwargs)
    return result_fingerprint(system.run(chunks, warmup_accesses=warmup))


def _both(monkeypatch, run):
    """``run()`` in-process, then with the pipeline forced on at once."""
    monkeypatch.setattr(pipeline, "ENGAGE_ACCESSES", NEVER)
    in_process = run()
    monkeypatch.setattr(pipeline, "ENGAGE_ACCESSES", 1)
    return in_process, run()


def _engaged(started) -> list:
    return [pipe for pipe in started if pipe is not None]


# ---------------------------------------------------------------------- #
# Bit-identity
# ---------------------------------------------------------------------- #
MATRIX = [(workload, config) for workload in sorted(WORKLOADS)
          for config in CONFIGS]


@pytest.mark.slow
@needs_cpus
@pytest.mark.parametrize("index", range(len(MATRIX)),
                         ids=[f"{w}-{c}" for w, c in MATRIX])
def test_workload_config_matrix_matches_in_process(index, monkeypatch, started):
    workload, name = MATRIX[index]
    config = named_configs([name])[name]
    trace = build_trace(workload, ACCESSES, num_cores=CORES, seed=index)
    warmup = WARMUPS[index % len(WARMUPS)]
    in_process, pipelined = _both(monkeypatch, lambda: _fingerprint(
        config, _chunks(trace), warmup, workload))
    assert pipelined == in_process
    (pipe,) = _engaged(started)
    assert pipe.reader is not None and pipe.dram is not None


@needs_cpus
@pytest.mark.parametrize("index", range(len(scenario_names())),
                         ids=list(scenario_names()))
def test_catalog_scenarios_match_in_process(index, monkeypatch, started):
    name = scenario_names()[index]
    full = get_scenario(name)
    scenario = get_scenario(full, scale=ACCESSES / full.total_accesses)
    warmup = WARMUPS[index % len(WARMUPS)]
    in_process, pipelined = _both(monkeypatch, lambda: _fingerprint(
        bump_system(), iter_scenario_chunks(scenario, seed=5, chunk_size=CHUNK),
        warmup, name))
    assert pipelined == in_process
    assert len(_engaged(started)) == 1


@needs_cpus
def test_a_long_run_engages_without_forcing(monkeypatch, started):
    default = pipeline.ENGAGE_ACCESSES
    assert default == DEFAULT_CHUNK_SIZE

    def run():
        return result_fingerprint(run_workload(
            "web_search", bump_system(), 70_000, num_cores=CORES, seed=9))

    monkeypatch.setattr(pipeline, "ENGAGE_ACCESSES", NEVER)
    in_process = run()
    monkeypatch.setattr(pipeline, "ENGAGE_ACCESSES", default)
    assert run() == in_process
    (pipe,) = _engaged(started)
    assert pipe.names == ("read-ahead", "dram")


@needs_cpus
@pytest.mark.parametrize("granted", [True, False], ids=["granted", "refused"])
def test_pipes_ask_for_the_module_size_and_results_never_depend_on_it(
        granted, monkeypatch, started):
    asked = []
    real = pipeline.fcntl.fcntl

    def set_size(fd, command, size):
        asked.append((command, size))
        if not granted:
            raise OSError("pipe size refused")
        return real(fd, command, size)

    monkeypatch.setattr(pipeline.fcntl, "fcntl", set_size)
    trace = build_trace("web_search", ACCESSES, num_cores=CORES, seed=6)
    in_process, pipelined = _both(monkeypatch, lambda: _fingerprint(
        bump_system(), _chunks(trace), 1_100))
    assert pipelined == in_process
    assert len(_engaged(started)) == 1
    # Two pipes per helper, two helpers.
    assert asked == [(pipeline.fcntl.F_SETPIPE_SZ, pipeline.PIPE_BYTES)] * 4


# ---------------------------------------------------------------------- #
# Telemetry
# ---------------------------------------------------------------------- #
@needs_cpus
@pytest.mark.parametrize("engage", [1, 1_800])
def test_timelines_equal_in_process(engage, monkeypatch, started):
    trace = build_trace("web_search", ACCESSES, num_cores=CORES, seed=3)

    def run(threshold):
        monkeypatch.setattr(pipeline, "ENGAGE_ACCESSES", threshold)
        recorder = TelemetryRecorder("full")
        system = ServerSystem(bump_system(), telemetry=recorder)
        result = system.run(_chunks(trace), warmup_accesses=1_100)
        return result_fingerprint(result), recorder

    # Engaging before the measurement boundary (at 1) defers the counter
    # reset too; engaging after it (at 1,800) does not.
    fingerprint, in_process = run(NEVER)
    pipelined_fingerprint, pipelined = run(engage)
    assert pipelined_fingerprint == fingerprint
    assert pipelined.timeline.rows() == in_process.timeline.rows()
    assert pipelined.timeline.column("row_hits").sum() > 0
    marks = [e for e in pipelined.tracer.events
             if e.get("name") == "pipeline_start"]
    assert len(marks) == 1
    assert marks[0]["fields"]["stages"] == "read-ahead,dram"
    assert marks[0]["fields"]["accesses"] >= engage
    assert marks[0]["fields"]["cpus"]
    waits = [e for e in pipelined.tracer.events
             if e.get("name") == "pipeline_wait"]
    assert len(waits) == 1 and waits[0]["counters"]["calls"] > 0


# ---------------------------------------------------------------------- #
# Errors and teardown
# ---------------------------------------------------------------------- #
class Boom(Exception):
    pass


class Unpicklable(Exception):
    def __init__(self, code, *, detail):
        super().__init__(f"{code}: {detail}")


def _failing_chunks(trace, failure, at=3):
    for index, chunk in enumerate(trace.iter_chunks(CHUNK), start=1):
        if index == at:
            failure()
        yield chunk


def _raise_in_both(monkeypatch, make_chunks):
    outcomes = []
    for threshold in (NEVER, 1):
        monkeypatch.setattr(pipeline, "ENGAGE_ACCESSES", threshold)
        with pytest.raises(BaseException) as caught:
            ServerSystem(bump_system()).run(make_chunks(), warmup_accesses=300)
        outcomes.append(caught.value)
    return outcomes


@needs_cpus
@pytest.mark.parametrize("kind", [Boom, EOFError])
def test_source_error_keeps_its_type_and_message(kind, monkeypatch, started):
    trace = build_trace("web_search", ACCESSES, num_cores=CORES, seed=1)

    def fail():
        raise kind("source failed at chunk 3")

    in_process, pipelined = _raise_in_both(
        monkeypatch, lambda: _failing_chunks(trace, fail))
    assert type(pipelined) is type(in_process) is kind
    assert str(pipelined) == str(in_process) == "source failed at chunk 3"
    assert _engaged(started)[0].reader is not None


@needs_cpus
def test_an_error_that_does_not_pickle_carries_its_traceback(monkeypatch):
    trace = build_trace("web_search", ACCESSES, num_cores=CORES, seed=1)

    def fail():
        raise Unpicklable(7, detail="no round trip")

    monkeypatch.setattr(pipeline, "ENGAGE_ACCESSES", 1)
    with pytest.raises(RuntimeError, match="Unpicklable: 7: no round trip"):
        ServerSystem(bump_system()).run(_failing_chunks(trace, fail))


@needs_cpus
def test_bad_row_in_chunk_three_raises_the_same_value_error(monkeypatch):
    trace = build_trace("web_search", ACCESSES, num_cores=CORES, seed=2)

    def chunks():
        out = _chunks(trace)
        bad = out[2]
        core = bad.core.copy()
        core[5] = CORES + 3
        out[2] = TraceBuffer(core, bad.pc, bad.address, bad.is_store,
                             bad.instructions)
        return out

    in_process, pipelined = _raise_in_both(monkeypatch, chunks)
    assert type(pipelined) is type(in_process) is ValueError
    assert str(pipelined) == str(in_process)
    assert f"trace row {2 * CHUNK + 5}" in str(pipelined)


@needs_cpus
def test_a_killed_read_ahead_names_its_stage(monkeypatch):
    trace = build_trace("web_search", ACCESSES, num_cores=CORES, seed=2)
    caller = os.getpid()

    def die():
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(pipeline, "ENGAGE_ACCESSES", 1)
    with pytest.raises(RuntimeError, match="'read-ahead'.*signal 9"):
        ServerSystem(bump_system()).run(_failing_chunks(trace, die))


@needs_cpus
def test_a_killed_dram_stage_names_its_stage(monkeypatch):
    trace = build_trace("web_search", ACCESSES, num_cores=CORES, seed=2)
    caller = os.getpid()
    system = ServerSystem(bump_system())
    intake = system.memory.enqueue_block_batch
    calls = [0]

    def dying_intake(*args):
        calls[0] += 1
        if os.getpid() != caller and calls[0] == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return intake(*args)

    system.memory.enqueue_block_batch = dying_intake
    monkeypatch.setattr(pipeline, "ENGAGE_ACCESSES", 1)
    with pytest.raises(RuntimeError, match="'dram'.*signal 9"):
        system.run(_chunks(trace))


class _Interrupt(LLCAgent):
    """Raises ``KeyboardInterrupt`` at the ``at``-th LLC miss."""

    def __init__(self, at):
        self.misses = 0
        self.at = at

    def on_miss(self, core, pc, block, is_store):
        self.misses += 1
        if self.misses == self.at:
            raise KeyboardInterrupt


@needs_cpus
def test_keyboard_interrupt_leaves_no_helper(monkeypatch, started):
    trace = build_trace("web_search", ACCESSES, num_cores=CORES, seed=2)
    monkeypatch.setattr(pipeline, "ENGAGE_ACCESSES", 1)
    system = ServerSystem(bump_system())
    system.agents.append(_Interrupt(at=800))
    with pytest.raises(KeyboardInterrupt):
        system.run(_chunks(trace))
    assert _engaged(started)
    assert system._dram_stage is None


@needs_cpus
def test_pipelined_runs_emit_no_warning(monkeypatch, started):
    trace = build_trace("web_search", ACCESSES, num_cores=CORES, seed=6)
    monkeypatch.setattr(pipeline, "ENGAGE_ACCESSES", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ServerSystem(bump_system(), telemetry="full").run(
            _chunks(trace), warmup_accesses=1_000)
    assert _engaged(started)


# ---------------------------------------------------------------------- #
# When it does not engage
# ---------------------------------------------------------------------- #
@needs_cpus
def test_round_robin_runs_get_both_helpers(monkeypatch, started):
    """Round robin's per-core queues travel to the DRAM helper and back."""
    trace = build_trace("web_search", ACCESSES, num_cores=CORES, seed=8)
    in_process, pipelined = _both(monkeypatch, lambda: _fingerprint(
        bump_system(scheduler="bank_round_robin"), _chunks(trace), 1_100))
    assert pipelined == in_process
    (pipe,) = _engaged(started)
    assert pipe.reader is not None and pipe.dram is not None


def _run_forced(monkeypatch):
    trace = build_trace("web_search", 1_000, num_cores=CORES, seed=8)
    monkeypatch.setattr(pipeline, "ENGAGE_ACCESSES", 1)
    ServerSystem(bump_system()).run(_chunks(trace))


def test_a_second_live_thread_keeps_the_run_in_process(monkeypatch, started):
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        _run_forced(monkeypatch)
    finally:
        release.set()
        thread.join(60)
    assert not thread.is_alive()
    assert started == [None]


def test_a_one_cpu_affinity_keeps_the_run_in_process(monkeypatch, started):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    _run_forced(monkeypatch)
    assert started == [None]


def _child_engages(conn):  # pragma: no cover - runs in the child
    conn.send(pipeline.helper_cpus() is not None)
    conn.close()


def test_a_multiprocessing_child_keeps_its_runs_in_process():
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_child_engages, args=(send,))
    child.start()
    send.close()
    assert receive.poll(60)
    engages = receive.recv()
    child.join(60)
    assert not child.is_alive() and child.exitcode == 0
    assert engages is False


# ---------------------------------------------------------------------- #
# One memory-system surface
# ---------------------------------------------------------------------- #
class _DepthLog:
    """A source that records the memory system's queue depth at every pull."""

    def __init__(self, chunks, system):
        self._chunks = chunks
        self._system = system
        self.depths = []

    def next_chunk(self):
        self.depths.append(self._system.memory.pending_count())
        return next(self._chunks, None)


def _two_tenant_chunks():
    scenario = Scenario(
        name="pipeline-two-tenants", description="two tenants",
        phases=[Phase("only", 2_400, [
            TenantAssignment("web_search", (0, 1)),
            TenantAssignment("online_analytics", (2, 3), intensity=1.5),
        ])],
        num_cores=4,
        # The stream the pinned depths were recorded on.
        seed_stream="pipeline-closed-loop")
    return iter_scenario_chunks(scenario, seed=11, chunk_size=160)


@pytest.mark.parametrize("scheduler", ["frfcfs", "bank_round_robin"])
def test_every_scheduler_reports_pending_transfers_and_resets_counters(
        scheduler):
    """Queue depths equal the ones the object engine reported.

    The run is far below ``ENGAGE_ACCESSES``, so it stays in-process and
    ``system.memory`` is the live queue at every pull.
    """
    system = ServerSystem(base_open(scheduler=scheduler))
    source = _DepthLog(_two_tenant_chunks(), system)
    system.run(source, warmup_accesses=600)
    assert source.depths == PINS["dram"]["pending_depths"][scheduler]["depths"]
    assert any(source.depths)
    # begin_measurement zeroes the counters through the memory system's
    # own reset_counters.
    system = ServerSystem(bump_system(scheduler=scheduler))
    system.run(_chunks(build_trace("web_search", 800, num_cores=CORES, seed=1)))
    assert system.memory.aggregate_stats()["accesses"] > 0
    system.begin_measurement()
    assert system.memory.pending_count() == 0
    assert system.memory.aggregate_stats()["accesses"] == 0


def test_chunk_frames_decode_without_copying():
    trace = build_trace("web_search", 300, num_cores=CORES, seed=1)
    head = pipeline._CHUNK_HEAD.pack(len(trace))
    payload = bytearray(head + b"".join(
        np.ascontiguousarray(getattr(trace, name)).tobytes()
        for name in pipeline._WIRE_COLUMNS))
    chunk = pipeline._decode_chunk(payload)
    assert chunk == trace
    for name in pipeline._WIRE_COLUMNS:
        assert getattr(chunk, name).base is not None
        assert np.shares_memory(getattr(chunk, name),
                                np.frombuffer(payload, dtype=np.uint8))
