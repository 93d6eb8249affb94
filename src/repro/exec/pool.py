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

from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

from repro.exec.jobs import JobSpec
from repro.exec.store import ArtifactStore
from repro.sim.results import SimulationResult
from repro.sim.runner import run_trace
from repro.trace.buffer import TRACE_FIELDS, TraceBuffer
from repro.workloads.generator import generate_trace_buffer

__all__ = [
    "TRACE_MEMO_MAX_ENTRIES",
    "clear_trace_memo",
    "execute_job",
    "execute_job_sourced",
    "job_trace",
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
#: Content-keyed (:meth:`JobSpec.trace_fingerprint`) and backed by the shared
#: artifact store, so a campaign-wide trace is built once per store, then
#: mapped (not regenerated) per worker.
_TRACE_MEMO: "OrderedDict[str, TraceBuffer]" = OrderedDict()


def clear_trace_memo() -> None:
    """Drop this process's memoized traces (frees memory between campaigns)."""
    _TRACE_MEMO.clear()


def _init_worker(store_root: Optional[str]) -> None:
    """Executor initializer: open the shared store inside the worker."""
    global _WORKER_STORE
    _TRACE_MEMO.clear()
    _WORKER_STORE = ArtifactStore(store_root) if store_root else None


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
    A memo hit is published to a store that does not hold it yet, so a
    store-backed run after a storeless one leaves the trace for the next
    process.  Generation is deterministic in (spec, length, cores, seed), so
    every source yields the identical access stream.  Memoized buffers are
    read-only: writing to a column raises instead of corrupting later hits.
    """
    digest = job.trace_fingerprint()
    cached = _TRACE_MEMO.get(digest)
    if cached is not None:
        _TRACE_MEMO.move_to_end(digest)
        if store is not None and not store.has_trace(digest):
            store.put_trace(digest, cached)
        return cached
    if store is not None:
        stored = store.get_trace(digest)
        if stored is not None:
            _memoize_trace(digest, stored)
            return stored
    trace = generate_trace_buffer(job.workload, job.num_accesses,
                                  num_cores=job.num_cores, seed=job.seed)
    _memoize_trace(digest, trace)
    if store is not None:
        store.put_trace(digest, trace)
    return trace


def execute_job_sourced(job: JobSpec, store: Optional[ArtifactStore] = None
                        ) -> Tuple[SimulationResult, bool]:
    """Run one job end to end; the flag reports whether a simulation ran.

    This is *the* execution primitive: the serial path, the worker processes
    and the analysis layer's single-run helper all funnel through it.  The
    store is consulted even here (not only in the campaign's pre-check) so a
    concurrent campaign's artifacts are picked up, and such hits are reported
    as cached, not simulated.
    """
    if store is not None:
        cached = store.get_result(job.result_fingerprint())
        if cached is not None:
            return cached, False
    trace = job_trace(job, store)
    result = run_trace(trace, job.config, workload_name=job.workload.name,
                       warmup_fraction=job.warmup_fraction)
    if store is not None:
        store.put_result(job.result_fingerprint(), result)
    return result, True


def execute_job(job: JobSpec, store: Optional[ArtifactStore] = None) -> SimulationResult:
    """Run one job end to end (provenance-free convenience wrapper)."""
    return execute_job_sourced(job, store)[0]


def run_shard(indexed_jobs: Sequence[Tuple[int, JobSpec]]
              ) -> List[Tuple[int, SimulationResult, bool]]:
    """Worker entry point: execute one shard of (index, job) pairs.

    All jobs of a shard share a trace fingerprint, so the trace is resolved
    once and every configuration replays the identical stream.  Each entry
    carries :func:`execute_job_sourced`'s flag, so the campaign can tell
    simulated results from ones a concurrent campaign already stored.
    """
    return [(index, *execute_job_sourced(job, _WORKER_STORE))
            for index, job in indexed_jobs]


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
