"""Campaign orchestration: run a job grid serially or across worker processes.

A :class:`Campaign` takes the jobs of a :class:`repro.exec.jobs.JobGrid`,
satisfies what it can from the artifact store, shards the remainder by input
trace and fans the shards out over a ``ProcessPoolExecutor``.  Results stream
back through a :class:`repro.exec.progress.CampaignProgress` observer and are
returned as a :class:`CampaignResult` that callers index by (workload,
configuration, seed).

Two properties are load-bearing and guarded by tests:

* **Determinism/parity** -- a worker executes the identical code path as a
  serial run (:func:`repro.exec.pool.execute_job`), so for the same trace and
  seed the parallel campaign's ``SimulationResult`` is bit-identical to the
  serial one.  :func:`verify_parity` proves it on demand.
* **Resumability** -- every completed job is persisted before the campaign
  moves on, so a crashed sweep re-run against the same store only simulates
  the missing cells.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exec import pool
from repro.exec.jobs import JobSpec, fingerprint
from repro.telemetry.metrics import (
    JobMetrics,
    campaign_metrics,
    write_campaign_metrics,
)
from repro.exec.progress import (
    SOURCE_SIMULATED,
    SOURCE_STORE,
    CampaignProgress,
)
from repro.exec.store import ArtifactStore
from repro.sim.results import SimulationResult

__all__ = [
    "Campaign",
    "CampaignError",
    "CampaignResult",
    "JobOutcome",
    "ParityError",
    "result_fingerprint",
    "run_campaign",
    "run_job",
    "verify_parity",
]


class CampaignError(RuntimeError):
    """One or more campaign jobs failed."""


class ParityError(AssertionError):
    """Serial and parallel executions of the same jobs disagreed."""


def result_fingerprint(result: SimulationResult) -> str:
    """Content digest over every field of a result (used by the parity guard).

    The digest covers the full measurement bundle -- counters, DRAM/LLC/NOC
    statistics, timing, energy and density -- so two results fingerprinting
    equal are observationally identical.
    """
    return fingerprint(result)


def _job_metrics(job: JobSpec, source: str, cost: Dict[str, float]) -> JobMetrics:
    """Fold a job's identity and a :func:`pool.job_cost_metrics` dict together."""
    return JobMetrics(
        label=job.label,
        workload=job.workload.name,
        config=job.config.name,
        seed=job.seed,
        source=source,
        wall_seconds=float(cost["wall_seconds"]),
        peak_rss_bytes=int(cost["peak_rss_bytes"]),
        pid=int(cost["pid"]),
    )


@dataclass
class JobOutcome:
    """One job's result plus where it came from."""

    job: JobSpec
    result: SimulationResult
    source: str  # SOURCE_STORE or SOURCE_SIMULATED


@dataclass
class CampaignResult:
    """Everything a finished campaign produced."""

    outcomes: List[JobOutcome] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: Cost provenance per outcome, in outcome order (wall time, peak RSS,
    #: producing pid); see :mod:`repro.telemetry.metrics`.
    job_metrics: List[JobMetrics] = field(default_factory=list)
    #: The fleet-level campaign metrics document (always built).
    metrics: Dict[str, object] = field(default_factory=dict)
    #: Where the metrics document was persisted (``None`` without a store).
    metrics_path: Optional[Path] = None

    @property
    def simulated_count(self) -> int:
        """Jobs that actually ran a simulation this invocation."""
        return sum(1 for o in self.outcomes if o.source == SOURCE_SIMULATED)

    @property
    def cached_count(self) -> int:
        """Jobs satisfied from the artifact store without simulating."""
        return sum(1 for o in self.outcomes if o.source == SOURCE_STORE)

    def __len__(self) -> int:
        return len(self.outcomes)

    def results(self) -> Dict[Tuple[str, str, int], SimulationResult]:
        """Results keyed by (workload name, configuration name, seed)."""
        return {
            (o.job.workload.name, o.job.config.name, o.job.seed): o.result
            for o in self.outcomes
        }

    def get(self, workload: str, config_name: str,
            seed: Optional[int] = None) -> SimulationResult:
        """Look one result up; ``seed=None`` matches a unique-seeded cell."""
        matches = [
            o.result for o in self.outcomes
            if o.job.workload.name == workload
            and o.job.config.name == config_name
            and (seed is None or o.job.seed == seed)
        ]
        if not matches:
            raise KeyError(f"no campaign result for ({workload}, {config_name}, {seed})")
        if seed is None and len(matches) > 1:
            raise KeyError(
                f"({workload}, {config_name}) ran under several seeds; pass seed="
            )
        return matches[0]


class Campaign:
    """Orchestrates one sweep of jobs over an optional store and worker pool."""

    def __init__(self, jobs: Sequence[JobSpec],
                 store: Optional[ArtifactStore] = None,
                 workers: int = 1,
                 progress: Optional[CampaignProgress] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        self.jobs = list(jobs)
        self.store = store
        self.workers = workers
        self.progress = progress if progress is not None else CampaignProgress()

    # ------------------------------------------------------------------ #
    def run(self) -> CampaignResult:
        """Execute every job, satisfying as many as possible from the store."""
        start = time.perf_counter()
        outcomes: List[Optional[JobOutcome]] = [None] * len(self.jobs)
        metrics_rows: List[Optional[JobMetrics]] = [None] * len(self.jobs)

        store_before = dict(self.store.counters) if self.store is not None else {}
        pending: List[Tuple[int, JobSpec]] = []
        for index, job in enumerate(self.jobs):
            cached = (self.store.get_result(job.result_fingerprint())
                      if self.store is not None else None)
            if cached is not None:
                outcomes[index] = JobOutcome(job, cached, SOURCE_STORE)
                metrics_rows[index] = _job_metrics(
                    job, SOURCE_STORE, pool.job_cost_metrics(0.0))
            else:
                pending.append((index, job))

        cached_jobs = len(self.jobs) - len(pending)
        self.progress.on_start(len(self.jobs), cached_jobs, self.workers)
        completed = 0
        for outcome in outcomes:
            if outcome is not None:
                completed += 1
                self.progress.on_job_done(outcome.job, outcome.source,
                                          completed, len(self.jobs))

        # Store activity of this campaign only: its own result pre-checks
        # plus the per-job counts of whichever process ran each job.
        store_activity = pool.counter_delta(self.store, store_before)
        if pending:
            produced = (self._run_serial(pending) if self.workers == 1
                        else self._run_parallel(pending))
            for index, result, simulated, cost in produced:
                job = self.jobs[index]
                source = SOURCE_SIMULATED if simulated else SOURCE_STORE
                outcomes[index] = JobOutcome(job, result, source)
                metrics_rows[index] = _job_metrics(job, source, cost)
                for key, value in cost["store"].items():
                    store_activity[key] += value
                completed += 1
                self.progress.on_job_done(job, source, completed,
                                          len(self.jobs))

        elapsed = time.perf_counter() - start
        job_metrics = [m for m in metrics_rows if m is not None]
        document = campaign_metrics(
            job_metrics, elapsed_seconds=elapsed, workers=self.workers,
            store_stats=({**self.store.stats(), **store_activity}
                         if self.store is not None else None),
        )
        result = CampaignResult(
            outcomes=[o for o in outcomes if o is not None],
            elapsed_seconds=elapsed,
            job_metrics=job_metrics,
            metrics=document,
            metrics_path=self._persist_metrics(document),
        )
        self.progress.on_finish(result.simulated_count, result.cached_count,
                                result.elapsed_seconds)
        return result

    def _persist_metrics(self, document: Dict[str, object]) -> Optional[Path]:
        """Write the fleet metrics file next to the artifacts (store runs only).

        The filename is content-addressed over the campaign's job
        fingerprints, so re-running the same sweep overwrites its own
        metrics document instead of accumulating duplicates, while distinct
        sweeps sharing a store keep distinct files.
        """
        if self.store is None:
            return None
        digest = fingerprint([job.result_fingerprint() for job in self.jobs])[:16]
        path = self.store.root / "metrics" / f"campaign-{digest}.json"
        return write_campaign_metrics(document, path)

    # ------------------------------------------------------------------ #
    def _run_serial(self, pending: List[Tuple[int, JobSpec]]
                    ) -> Iterator[Tuple[int, SimulationResult, bool, Dict]]:
        for index, job in pending:
            yield (index, *pool.run_job_measured(job, self.store))

    def _run_parallel(self, pending: List[Tuple[int, JobSpec]]
                      ) -> Iterator[Tuple[int, SimulationResult, bool, Dict]]:
        shards = pool.shard_jobs(pending, workers=self.workers)
        store = self.store
        initargs = (
            str(store.root) if store is not None else None,
            store.max_entries if store is not None else None,
            store.max_bytes if store is not None else None,
        )
        errors: List[str] = []
        with ProcessPoolExecutor(max_workers=self.workers,
                                 initializer=pool._init_worker,
                                 initargs=initargs) as executor:
            futures = {executor.submit(pool.run_shard, shard): shard
                       for shard in shards}
            for future in as_completed(futures):
                shard = futures[future]
                try:
                    shard_results = future.result()
                except Exception as exc:  # worker died or job raised
                    labels = ", ".join(job.label for _, job in shard)
                    errors.append(f"shard [{labels}]: {exc!r}")
                    continue
                yield from shard_results
        if errors:
            raise CampaignError("campaign jobs failed:\n" + "\n".join(errors))


# --------------------------------------------------------------------- #
# Convenience entry points
# --------------------------------------------------------------------- #
def run_campaign(jobs: Sequence[JobSpec],
                 store: Optional[ArtifactStore] = None,
                 workers: int = 1,
                 progress: Optional[CampaignProgress] = None) -> CampaignResult:
    """Build and run a :class:`Campaign` in one call."""
    return Campaign(jobs, store=store, workers=workers,
                    progress=progress).run()


def run_job(job: JobSpec, store: Optional[ArtifactStore] = None) -> SimulationResult:
    """Run a single job through the engine (store-aware, in-process)."""
    return pool.execute_job(job, store)


def verify_parity(jobs: Sequence[JobSpec], workers: int = 2) -> Dict[str, str]:
    """Prove parallel execution is bit-identical to serial execution.

    Runs ``jobs`` twice from scratch -- once serially in this process, once
    across ``workers`` processes, both without a store so nothing can be
    reused -- and compares full result fingerprints.  Returns the mapping of
    job label to fingerprint on success; raises :class:`ParityError` with the
    offending jobs otherwise.
    """
    serial = Campaign(jobs, store=None, workers=1).run()
    parallel = Campaign(jobs, store=None, workers=workers).run()
    mismatches = []
    digests: Dict[str, str] = {}
    for left, right in zip(serial.outcomes, parallel.outcomes):
        left_digest = result_fingerprint(left.result)
        right_digest = result_fingerprint(right.result)
        if left_digest != right_digest:
            mismatches.append(left.job.label)
        digests[left.job.label] = left_digest
    if mismatches:
        raise ParityError(
            "serial and parallel results diverged for: " + ", ".join(mismatches)
        )
    return digests
