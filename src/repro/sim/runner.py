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

from repro.sim.config import SystemConfig
from repro.sim.results import SimulationResult
from repro.sim.system import ServerSystem
from repro.trace.buffer import DEFAULT_CHUNK_SIZE, TraceBuffer, as_chunk_iterator
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
              telemetry=None) -> SimulationResult:
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

    ``telemetry`` selects the observability mode (``"off"``, ``"full"``, a
    :class:`repro.telemetry.TelemetryRecorder` to keep, or ``None`` to
    consult ``REPRO_TELEMETRY``).  Telemetry never
    changes the result -- pass a recorder instance to read the timeline and
    span events afterwards.

    ``warmup_fraction`` outside ``[0, 1)`` raises ``ValueError`` before
    anything runs.
    """
    check_warmup_fraction(warmup_fraction)
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
    system = ServerSystem(config, workload_name=workload_name,
                          telemetry=telemetry)
    if extra_agents is not None:
        system.agents.extend(extra_agents)
    return system.run(trace, warmup_accesses=warmup)


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
                 telemetry=None) -> SimulationResult:
    """Run one workload through one system configuration, streaming.

    The generator's chunks feed the simulator directly: the trace is never
    materialized, so memory stays bounded by ``chunk_size`` for arbitrarily
    long traces, and results are bit-identical for any ``chunk_size`` and
    to :func:`run_trace` over :func:`build_trace`'s buffer.

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
    return run_trace(chunks, config, workload_name=spec.name,
                     warmup_fraction=warmup_fraction, num_accesses=num_accesses,
                     telemetry=telemetry)


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
