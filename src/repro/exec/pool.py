"""Worker-process execution of campaign jobs.

The campaign engine groups pending jobs into *shards* -- all jobs of a shard
share one input trace -- and submits each shard to a
:class:`concurrent.futures.ProcessPoolExecutor`.  Whichever worker picks a
shard up builds (or loads) its trace exactly once, runs every configuration
of the shard over the identical access stream, and returns the pickled
:class:`SimulationResult` bundles.  The trace is additionally published to
the shared content-addressed store -- as a compact columnar ``.npy`` that
sibling workers (and future campaign invocations) map back in zero-copy --
so it is never regenerated or shipped as pickled object lists.

Everything here is deliberately a thin composition of the single-run API
(:func:`repro.sim.runner.run_trace` over :func:`generate_trace_buffer`
output): a worker executes byte-for-byte the same code path as a serial run,
which is what makes the serial/parallel parity guarantee hold.

:func:`job_trace`'s memo is the package's one in-process trace memo: the
campaign workers, the serial campaign path and the analysis layer's
single-run helper all resolve traces through it, keyed by content.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exec.jobs import JobSpec
from repro.exec.store import ArtifactStore
from repro.scenario.compiler import generate_scenario_buffer
from repro.scenario.spec import Scenario
from repro.sim.results import SimulationResult
from repro.sim.runner import run_trace
from repro.telemetry.metrics import peak_rss_bytes, snapshot_counts
from repro.trace.buffer import TRACE_FIELDS, TraceBuffer
from repro.workloads.generator import generate_trace_buffer

__all__ = [
    "TRACE_MEMO_MAX_ENTRIES",
    "clear_trace_memo",
    "counter_delta",
    "execute_job",
    "execute_job_sourced",
    "job_cost_metrics",
    "job_trace",
    "run_job_measured",
    "run_shard",
    "shard_jobs",
]

#: Bound on the per-process trace memo.  Columnar buffers are compact
#: (~29 bytes per access) but the bound must cover the six paper workloads
#: at once -- config-outer sweeps cycle through all six traces per
#: configuration, and a smaller memo would regenerate every one of them on
#: every lap.  Eight entries leave room for two sweep variants.
TRACE_MEMO_MAX_ENTRIES = 8

#: Per-worker state installed by :func:`_init_worker` (fork- and spawn-safe).
_WORKER_STORE: Optional[ArtifactStore] = None
#: Whether workers reuse warm-state snapshots from the shared store
#: (campaign ``warmup_snapshots=True``): the first worker to simulate a
#: given warmup fingerprint captures it, siblings restore instead of
#: re-simulating the warmup prefix.
_WORKER_WARMUP_SNAPSHOTS: bool = False
#: Content-keyed (:meth:`JobSpec.trace_fingerprint`) and backed by the shared
#: artifact store, so a campaign-wide trace is built once per store, then
#: mapped (not regenerated) per worker.
_TRACE_MEMO: "OrderedDict[str, TraceBuffer]" = OrderedDict()


def clear_trace_memo() -> None:
    """Drop this process's memoized traces (frees memory between campaigns)."""
    _TRACE_MEMO.clear()


def _init_worker(store_root: Optional[str],
                 max_entries: Optional[int],
                 max_bytes: Optional[int],
                 warmup_snapshots: bool = False) -> None:
    """Executor initializer: open the shared store inside the worker."""
    global _WORKER_STORE, _WORKER_WARMUP_SNAPSHOTS
    _TRACE_MEMO.clear()
    _WORKER_STORE = (
        ArtifactStore(store_root, max_entries=max_entries, max_bytes=max_bytes)
        if store_root else None
    )
    _WORKER_WARMUP_SNAPSHOTS = bool(warmup_snapshots)


def _memoize_trace(digest: str, trace: TraceBuffer) -> None:
    # Every hit hands back the same arrays, so they are made read-only: a
    # caller writing into one would corrupt every later run of the trace.
    for name in TRACE_FIELDS:
        getattr(trace, name).setflags(write=False)
    _TRACE_MEMO[digest] = trace
    _TRACE_MEMO.move_to_end(digest)
    while len(_TRACE_MEMO) > TRACE_MEMO_MAX_ENTRIES:
        _TRACE_MEMO.popitem(last=False)


def job_trace(job: JobSpec, store: Optional[ArtifactStore] = None) -> TraceBuffer:
    """Build (or fetch) the columnar input trace of ``job``.

    Resolution order: per-process memo, shared artifact store (memory-mapped
    ``.npy`` columns), fresh generation (which is then published to both).
    Generation is deterministic in (spec, length, cores, seed), so every
    source yields the identical access stream.  Memoized buffers are
    read-only: writing to a column raises instead of corrupting later hits.
    Scenario jobs compile through :mod:`repro.scenario.compiler` instead of
    the single-workload generator; everything downstream (store format,
    memoization, sharding) is identical because a compiled scenario is an
    ordinary columnar trace.
    """
    digest = job.trace_fingerprint()
    cached = _TRACE_MEMO.get(digest)
    if cached is not None:
        _TRACE_MEMO.move_to_end(digest)
        return cached
    if store is not None:
        stored = store.get_trace(digest)
        if stored is not None:
            _memoize_trace(digest, stored)
            return stored
    if isinstance(job.workload, Scenario):
        trace = generate_scenario_buffer(job.workload, seed=job.seed)
    else:
        trace = generate_trace_buffer(job.workload, job.num_accesses,
                                      num_cores=job.num_cores, seed=job.seed)
    _memoize_trace(digest, trace)
    if store is not None:
        store.put_trace(digest, trace)
    return trace


def execute_job_sourced(job: JobSpec, store: Optional[ArtifactStore] = None,
                        warmup_snapshots: bool = False
                        ) -> Tuple[SimulationResult, bool]:
    """Run one job end to end; the flag reports whether a simulation ran.

    This is *the* execution primitive: the serial path, the worker processes
    and the analysis layer's single-run helper all funnel through it.  The
    store is consulted even here (not only in the campaign's pre-check) so a
    concurrent campaign's artifacts are picked up, and such hits are reported
    as cached, not simulated.

    With ``warmup_snapshots`` (and a store), the run goes through the
    warm-state snapshot path: the warmup prefix is restored from the store
    when a sibling job already captured it, or simulated once and captured
    for the siblings.  Restored runs are bit-identical to cold ones, so the
    result artifact is the same either way; such runs still count as
    simulated (their measure phase ran).

    Closed-loop jobs have no pregeneratable trace -- the stream depends on
    simulator feedback -- so they bypass the trace store and run through
    :func:`repro.scenario.runner.run_scenario` with the job's spec; result
    caching and warm-state snapshots work unchanged (the closed-loop spec is
    part of both fingerprints).
    """
    if store is not None:
        cached = store.get_result(job.result_fingerprint())
        if cached is not None:
            return cached, False
    if job.closed_loop is not None:
        from repro.scenario.runner import run_scenario

        result = run_scenario(
            job.workload, job.config, seed=job.seed,
            warmup_fraction=job.warmup_fraction,
            closed_loop=job.closed_loop,
            warmup_snapshot=(store if warmup_snapshots and store is not None
                             and job.warmup_fraction > 0 else None))
        if store is not None:
            store.put_result(job.result_fingerprint(), result)
        return result, True
    trace = job_trace(job, store)
    if warmup_snapshots and store is not None and job.warmup_fraction > 0:
        result = run_trace(trace, job.config, workload_name=job.workload.name,
                           warmup_fraction=job.warmup_fraction,
                           warmup_snapshot=store,
                           snapshot_key=job.warmup_fingerprint())
    else:
        result = run_trace(trace, job.config, workload_name=job.workload.name,
                           warmup_fraction=job.warmup_fraction)
    if store is not None:
        store.put_result(job.result_fingerprint(), result)
    return result, True


def execute_job(job: JobSpec, store: Optional[ArtifactStore] = None) -> SimulationResult:
    """Run one job end to end (provenance-free convenience wrapper)."""
    return execute_job_sourced(job, store)[0]


def job_cost_metrics(wall_seconds: float) -> Dict[str, object]:
    """Cost provenance of one finished job in the *current* process.

    Small plain dict (pickle-cheap across the pool boundary); the campaign
    folds it into a :class:`repro.telemetry.metrics.JobMetrics` record.
    """
    return {
        "wall_seconds": wall_seconds,
        "peak_rss_bytes": peak_rss_bytes(),
        "pid": os.getpid(),
    }


def run_job_measured(job: JobSpec, store: Optional[ArtifactStore] = None,
                     warmup_snapshots: bool = False
                     ) -> Tuple[SimulationResult, bool, Dict[str, object]]:
    """:func:`execute_job_sourced` plus the job's cost in this process.

    The cost is :func:`job_cost_metrics` with two more entries: ``snapshot``,
    the warm-snapshot counters (hits, misses, captures, restores, bytes)
    this job moved, and ``store``, the artifact-store counters (hits,
    misses, puts, ...) it moved on ``store`` (empty without a store).
    Counting per job, in whichever process ran it, lets a campaign sum
    exactly its own activity whether its jobs ran here or in pool workers.
    """
    before = snapshot_counts()
    store_before = dict(store.counters) if store is not None else {}
    started = time.perf_counter()
    result, simulated = execute_job_sourced(job, store, warmup_snapshots)
    cost = job_cost_metrics(time.perf_counter() - started)
    cost["snapshot"] = {key: value - before[key]
                        for key, value in snapshot_counts().items()}
    cost["store"] = counter_delta(store, store_before)
    return result, simulated, cost


def counter_delta(store: Optional[ArtifactStore],
                  before: Dict[str, int]) -> Dict[str, int]:
    """What ``store``'s counters moved since they read ``before``."""
    if store is None:
        return {}
    return {key: value - before[key] for key, value in store.counters.items()}


def run_shard(indexed_jobs: Sequence[Tuple[int, JobSpec]]
              ) -> List[Tuple[int, SimulationResult, bool, Dict[str, object]]]:
    """Worker entry point: execute one shard of (index, job) pairs.

    All jobs of a shard share a trace fingerprint, so the trace is resolved
    once and every configuration replays the identical stream.  Each entry
    carries the worker-side cost (:func:`run_job_measured`) so the campaign
    can account wall time, memory and snapshot reuse per producing process.
    """
    return [
        (index, *run_job_measured(job, _WORKER_STORE,
                                  warmup_snapshots=_WORKER_WARMUP_SNAPSHOTS))
        for index, job in indexed_jobs
    ]


def shard_jobs(indexed_jobs: Sequence[Tuple[int, JobSpec]],
               workers: int = 1) -> List[List[Tuple[int, JobSpec]]]:
    """Group pending jobs by input trace, preserving submission order.

    One shard per distinct trace keeps trace construction to once per shard
    regardless of how many configurations sweep over it, while still letting
    the executor balance whole shards across workers.  When the grid has
    fewer distinct traces than ``workers`` -- e.g. eight configurations over
    a single workload -- the largest shards are split so no worker idles; the
    sibling shards then share the trace through the artifact store (or, at
    worst, regenerate it deterministically).
    """
    groups: "OrderedDict[str, List[Tuple[int, JobSpec]]]" = OrderedDict()
    for index, job in indexed_jobs:
        groups.setdefault(job.trace_fingerprint(), []).append((index, job))
    shards = list(groups.values())
    while len(shards) < workers:
        largest = max(shards, key=len)
        if len(largest) < 2:
            break
        half = len(largest) // 2
        shards.remove(largest)
        shards.extend([largest[:half], largest[half:]])
    return shards
