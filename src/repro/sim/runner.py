"""Convenience entry points for running experiments.

The runner hides the boilerplate every experiment shares: produce the
workload's trace, instantiate the configured system, run the trace and hand
back the :class:`SimulationResult`.  Each input kind has one entry point:

* :func:`run_workload` streams a catalog workload's generator chunks
  straight into the simulator's chunk loop, so a run holds one chunk of
  columns in memory however long the trace is;
* :func:`run_trace` runs an explicit trace -- a columnar
  :class:`repro.trace.buffer.TraceBuffer`, an iterable of buffer chunks or a
  trace source -- and is what every other entry point funnels through;
* :func:`repro.scenario.runner.run_scenario` streams a compiled scenario.

:func:`build_trace` only generates a workload's trace; nothing here memoizes
traces.  Sweeps that replay one trace through many configurations hold it
themselves (:func:`run_configs`) or go through the campaign engine, whose
content-keyed memo (:func:`repro.exec.pool.job_trace`) is the package's one
in-process trace memo.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Union

from repro.common.fingerprint import config_fingerprint
from repro.sim.config import SystemConfig
from repro.sim.results import SimulationResult
from repro.sim.snapshot import (
    SystemSnapshot,
    capture_warmup,
    load_snapshot,
    restore,
    skip_accesses,
    snapshot_fingerprint,
)
from repro.sim.system import ServerSystem
from repro.telemetry.metrics import (
    record_snapshot_capture,
    record_snapshot_restore,
)
from repro.trace.buffer import DEFAULT_CHUNK_SIZE, TraceBuffer, as_chunk_iterator
from repro.trace.source import resume_source
from repro.workloads.catalog import get_workload
from repro.workloads.generator import generate_trace_buffer, iter_trace_chunks
from repro.workloads.spec import WorkloadSpec

#: Default trace length used by the benchmark harness; large enough for the
#: 4MB LLC and the predictors to warm up and reach steady state, small enough
#: for a pure-Python simulator to run every figure in minutes.
DEFAULT_TRACE_LENGTH = 240_000
#: Fraction of the trace used only to warm caches, predictors and row buffers
#: before measurement starts (the paper uses warmed checkpoints similarly).
DEFAULT_WARMUP_FRACTION = 0.5
DEFAULT_NUM_CORES = 16
DEFAULT_SEED = 42

#: A TraceBuffer, an iterable of TraceBuffer chunks, a Scenario or a
#: TraceSource; :func:`run_trace` rejects anything else.
TraceLike = Union[TraceBuffer, Iterable]


def check_warmup_fraction(warmup_fraction: float) -> None:
    """Reject a warmup fraction outside ``[0, 1)`` with a ``ValueError``.

    A fraction of 1 or more leaves nothing to measure and a negative one
    would silently run without warmup; every run entry point and
    :class:`repro.exec.jobs.JobSpec` share this one check.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(
            f"warmup_fraction must be in [0, 1), got {warmup_fraction!r}")


def build_trace(workload: Union[str, WorkloadSpec], num_accesses: int = DEFAULT_TRACE_LENGTH,
                num_cores: int = DEFAULT_NUM_CORES, seed: int = DEFAULT_SEED) -> TraceBuffer:
    """Generate the columnar trace of a workload (a fresh buffer per call).

    Generation is deterministic in (spec content, length, cores, seed), so
    every call returns an equal trace; hold on to the buffer to replay it
    through several configurations.
    """
    spec = get_workload(workload) if isinstance(workload, str) else workload
    return generate_trace_buffer(spec, num_accesses, num_cores=num_cores, seed=seed)


def run_trace(trace: TraceLike, config: SystemConfig,
              workload_name: str = "workload",
              warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
              extra_agents: Optional[Iterable] = None,
              num_accesses: Optional[int] = None,
              telemetry=None,
              snapshot=None,
              warmup_snapshot=None,
              snapshot_key: Optional[str] = None) -> SimulationResult:
    """Run an explicit trace through one system configuration.

    ``trace`` may be a :class:`TraceBuffer`, an iterable (list, tuple or
    iterator) of ``TraceBuffer`` chunks, a
    :class:`repro.scenario.spec.Scenario` (compiled to a streaming chunk
    iterator; its ``total_accesses`` supplies the warmup boundary) or a
    :class:`repro.trace.source.TraceSource`.  Anything else raises
    ``TypeError``: before the run for a buffer list, and at the offending
    chunk for an iterator.  Materialized inputs are consumed in place --
    never copied; for pure iterators the warmup boundary needs a length, so
    pass ``num_accesses`` to stay streaming (otherwise the iterator is
    buffered once into columnar form).

    ``extra_agents`` are additional :class:`repro.cache.agent.LLCAgent`
    instances attached to the LLC for this run only -- typically passive
    observers such as :class:`repro.trace.capture.LLCTraceRecorder` or the
    region-density profiler.

    ``telemetry`` selects the observability mode (``"off"``, ``"chunks"``,
    ``"spans"``, ``"full"``, a :class:`repro.telemetry.TelemetryRecorder`
    to keep, or ``None`` to consult ``REPRO_TELEMETRY``).  Telemetry never
    changes the result -- pass a recorder instance to read the timeline and
    span events afterwards.

    ``snapshot`` replays from an explicit warm state instead of simulating
    the trace prefix: a :class:`repro.sim.snapshot.SystemSnapshot` or a path
    to a saved one.  The snapshot's ``processed`` accesses are skipped from
    ``trace`` and the remainder is measured; the result is bit-identical to
    the uninterrupted warmup run the snapshot was captured from.

    ``warmup_snapshot`` amortizes warmup through a snapshot store: pass an
    :class:`repro.exec.store.ArtifactStore` (or a directory path, or
    ``True`` for the ``REPRO_SNAPSHOT_DIR``/``REPRO_ARTIFACT_DIR`` default)
    together with ``snapshot_key`` (see
    :func:`repro.sim.snapshot.snapshot_fingerprint`; the workload-level
    entry points compute it).  A store hit restores instead of warming up; a
    miss warms up once, captures at the measurement boundary, publishes the
    snapshot and continues -- either way the result is bit-identical to a
    cold run.  Neither snapshot path may be combined with ``extra_agents``
    (attached agents are invisible to the fingerprint).

    ``warmup_fraction`` outside ``[0, 1)`` raises ``ValueError`` before
    anything runs.
    """
    check_warmup_fraction(warmup_fraction)
    if snapshot is not None and warmup_snapshot is not None:
        raise ValueError("pass either snapshot or warmup_snapshot, not both")
    if (snapshot is not None or warmup_snapshot is not None) and extra_agents:
        raise ValueError(
            "snapshots cannot be combined with extra_agents: the extra "
            "agents are not part of the snapshot fingerprint")
    if snapshot is not None:
        return _run_from_snapshot(_coerce_snapshot(snapshot), trace, config,
                                  telemetry=telemetry)
    warmup = 0
    if warmup_fraction > 0:
        total = num_accesses
        if total is None:
            total = _trace_length(trace)
        if total is None:
            # A bare iterator with no declared length: buffer it into
            # columnar chunks once so the warmup split can be computed.
            trace = TraceBuffer.concat(list(as_chunk_iterator(trace)))
            total = len(trace)
        warmup = int(total * warmup_fraction)
        # When the trace's true length is known up front, reject an
        # impossible warmup interval *before* simulating anything -- the
        # streaming loop would otherwise consume the whole stream first and
        # raise the same error at the end (which it still does for pure
        # iterators whose declared ``num_accesses`` turns out to be an
        # overestimate).
        known = _trace_length(trace)
        if known is not None and known < warmup:
            raise ValueError(
                "trace shorter than the requested warmup interval")
    if warmup_snapshot is not None and warmup:
        return _run_with_warmup_store(
            trace, config, warmup_snapshot, snapshot_key,
            workload_name=workload_name, warmup=warmup, telemetry=telemetry)
    system = ServerSystem(config, workload_name=workload_name,
                          telemetry=telemetry)
    if extra_agents is not None:
        system.agents.extend(extra_agents)
    return system.run(trace, warmup_accesses=warmup)


def _as_stream(trace: TraceLike):
    """Normalize ``trace`` for the snapshot paths (Scenario -> chunk stream).

    Mirrors :meth:`ServerSystem.run`'s scenario handling so skipping and
    tail-running see the identical chunk stream a direct run would.
    """
    # Lazy import: repro.scenario layers above repro.sim.
    from repro.scenario.compiler import iter_scenario_chunks
    from repro.scenario.spec import Scenario

    if isinstance(trace, Scenario):
        return iter_scenario_chunks(trace)
    return trace


def _coerce_snapshot(snapshot) -> SystemSnapshot:
    if isinstance(snapshot, SystemSnapshot):
        return snapshot
    return load_snapshot(snapshot)


def _run_from_snapshot(snap: SystemSnapshot, trace: TraceLike,
                       config: SystemConfig,
                       telemetry=None) -> SimulationResult:
    """Fork a system from ``snap`` and measure the remainder of ``trace``."""
    if snap.config_key != config_fingerprint(config):
        raise ValueError(
            "snapshot was captured under a different system configuration")
    system = restore(snap, telemetry=telemetry)
    record_snapshot_restore(snap.nbytes)
    stream = _as_stream(trace)
    restore_state = getattr(stream, "restore_state", None)
    if restore_state is not None:
        # A feedback-driven source replays from its checkpointed production
        # state (controller values + the unserviced warmup-split tail)
        # instead of skipping a position-deterministic prefix.
        if snap.source_state is None:
            raise ValueError(
                "snapshot carries no trace-source state: it was not captured "
                "from a feedback-driven (closed-loop) source")
        restore_state(snap.source_state)
        tail = stream
    else:
        if snap.source_state is not None:
            raise ValueError(
                "snapshot carries trace-source state: replay it with the "
                "matching closed-loop source, not an open-loop trace")
        tail = skip_accesses(stream, snap.processed)
    return system.run(tail, warmup_accesses=0)


def _resolve_snapshot_store(warmup_snapshot):
    """Turn ``warmup_snapshot`` into a store handle with snapshot accessors."""
    # Lazy imports: repro.sim must stay importable without repro.exec.
    if warmup_snapshot is True:
        from repro.exec.store import default_snapshot_store

        store = default_snapshot_store()
        if store is None:
            raise ValueError(
                "no snapshot store configured: set REPRO_SNAPSHOT_DIR or "
                "REPRO_ARTIFACT_DIR, or pass an ArtifactStore")
        return store
    if hasattr(warmup_snapshot, "get_snapshot"):
        return warmup_snapshot
    from repro.exec.store import ArtifactStore

    return ArtifactStore(warmup_snapshot)


def _run_with_warmup_store(trace: TraceLike, config: SystemConfig,
                           warmup_snapshot, snapshot_key: Optional[str],
                           workload_name: str, warmup: int,
                           telemetry) -> SimulationResult:
    """Warmup via the snapshot store: restore on hit, capture-once on miss."""
    store = _resolve_snapshot_store(warmup_snapshot)
    if snapshot_key is None:
        raise ValueError(
            "warmup_snapshot requires snapshot_key (run_workload and "
            "run_scenario compute it; see "
            "repro.sim.snapshot.snapshot_fingerprint)")
    snap = store.get_snapshot(snapshot_key)
    if snap is not None:
        if snap.processed != warmup:
            raise ValueError(
                f"snapshot under key {snapshot_key!r} was captured after "
                f"{snap.processed} accesses, not the requested {warmup}")
        return _run_from_snapshot(snap, trace, config, telemetry=telemetry)
    system = ServerSystem(config, workload_name=workload_name,
                          telemetry=telemetry)
    snap, leftover, source = capture_warmup(system, _as_stream(trace),
                                            warmup)
    store.put_snapshot(snapshot_key, snap)
    record_snapshot_capture(snap.nbytes)
    return system.run(resume_source(leftover, source), warmup_accesses=0)


def _trace_length(trace: TraceLike) -> Optional[int]:
    """Number of accesses in ``trace``, or ``None`` if it must be drained.

    A materialized list of chunks counts *accesses*, not chunks -- ``len()``
    on a ``[TraceBuffer, ...]`` would silently misplace the warmup boundary
    (and any other item is rejected with ``TypeError`` before counting).
    A scenario declares its length, so it stays streaming.
    """
    total = getattr(trace, "total_accesses", None)
    if isinstance(total, int):  # a Scenario (duck-typed to avoid the import)
        return total
    if isinstance(trace, (list, tuple)):
        return sum(len(chunk) for chunk in as_chunk_iterator(trace))
    try:
        return len(trace)
    except TypeError:
        return None


def run_workload(workload: Union[str, WorkloadSpec], config: SystemConfig,
                 num_accesses: int = DEFAULT_TRACE_LENGTH,
                 num_cores: int = DEFAULT_NUM_CORES,
                 seed: int = DEFAULT_SEED,
                 warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 telemetry=None,
                 snapshot=None,
                 warmup_snapshot=None) -> SimulationResult:
    """Run one workload through one system configuration, streaming.

    The generator's chunks feed the simulator directly: the trace is never
    materialized, so memory stays bounded by ``chunk_size`` for arbitrarily
    long traces, and results are bit-identical for any ``chunk_size`` and
    to :func:`run_trace` over :func:`build_trace`'s buffer.

    ``snapshot`` / ``warmup_snapshot`` behave as in :func:`run_trace`; the
    warmup fingerprint is computed here from the workload spec and
    geometry.  A snapshot hit skips the warmup prefix chunk by chunk
    instead of simulating it.

    ``workload`` is a catalog name or a :class:`WorkloadSpec`; a scenario
    runs through :func:`repro.scenario.runner.run_scenario` instead.
    ``num_accesses`` below 1 and ``warmup_fraction`` outside ``[0, 1)``
    raise ``ValueError``.
    """
    if not isinstance(workload, (str, WorkloadSpec)):
        raise TypeError(
            f"run_workload takes a workload name or WorkloadSpec, not "
            f"{type(workload).__name__}; run a Scenario with "
            "repro.scenario.runner.run_scenario")
    if num_accesses < 1:
        raise ValueError(f"num_accesses must be at least 1, got {num_accesses!r}")
    spec = get_workload(workload) if isinstance(workload, str) else workload
    chunks = iter_trace_chunks(spec, num_accesses, num_cores=num_cores,
                               seed=seed, chunk_size=chunk_size)
    key = None
    if warmup_snapshot is not None and warmup_fraction > 0:
        key = snapshot_fingerprint(
            spec, config, int(num_accesses * warmup_fraction),
            num_cores=num_cores, seed=seed)
    return run_trace(chunks, config, workload_name=spec.name,
                     warmup_fraction=warmup_fraction, num_accesses=num_accesses,
                     telemetry=telemetry,
                     snapshot=snapshot, warmup_snapshot=warmup_snapshot,
                     snapshot_key=key)


def run_configs(workload: Union[str, WorkloadSpec], configs: Iterable[SystemConfig],
                num_accesses: int = DEFAULT_TRACE_LENGTH,
                num_cores: int = DEFAULT_NUM_CORES,
                seed: int = DEFAULT_SEED,
                warmup_fraction: float = DEFAULT_WARMUP_FRACTION) -> Dict[str, SimulationResult]:
    """Run one workload through several configurations over the identical trace."""
    spec = get_workload(workload) if isinstance(workload, str) else workload
    trace = build_trace(spec, num_accesses, num_cores, seed)
    results: Dict[str, SimulationResult] = {}
    for config in configs:
        results[config.name] = run_trace(trace, config, workload_name=spec.name,
                                         warmup_fraction=warmup_fraction)
    return results
