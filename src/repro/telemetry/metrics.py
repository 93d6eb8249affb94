"""Per-job and fleet-level campaign metrics.

The exec layer (``repro.exec.campaign``) records one :class:`JobMetrics`
per job outcome -- wall time, peak RSS of the process that produced it,
store provenance -- and folds them into a campaign metrics document with
:func:`campaign_metrics`, persisted as JSON next to the artifact store so a
``ScenarioGrid`` sweep leaves a fleet-level record behind.

This module sits *below* ``repro.exec`` in the layer order and therefore
only speaks plain data (dataclasses, dicts); it never imports the exec
layer.  Everything is stdlib-only so worker processes can report metrics
without touching NumPy.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

__all__ = [
    "CAMPAIGN_METRICS_SCHEMA_VERSION",
    "JobMetrics",
    "campaign_metrics",
    "peak_rss_bytes",
    "read_campaign_metrics",
    "record_snapshot_capture",
    "record_snapshot_hit",
    "record_snapshot_miss",
    "record_snapshot_restore",
    "reset_snapshot_counters",
    "snapshot_cache_info",
    "snapshot_counts",
    "write_campaign_metrics",
]

#: Stamped into every campaign metrics document.
CAMPAIGN_METRICS_SCHEMA_VERSION = 1


# --------------------------------------------------------------------- #
# Snapshot-cache counters (process-wide)
# --------------------------------------------------------------------- #
#: Warm-state snapshot reuse counters for this process: store lookups that
#: found a matching snapshot (``hits``) or did not (``misses``), warmups
#: captured (``captures``) and systems forked from snapshots (``restores``),
#: with the snapshot byte volume moved each way.  Purely observational --
#: recording sites never influence simulation state, so off==on bit-identity
#: holds by construction.
_SNAPSHOT_COUNTERS: Dict[str, int] = {
    "hits": 0,
    "misses": 0,
    "captures": 0,
    "restores": 0,
    "bytes_written": 0,
    "bytes_restored": 0,
}


def record_snapshot_hit() -> None:
    """Count one snapshot-store lookup that found a usable warm state."""
    _SNAPSHOT_COUNTERS["hits"] += 1


def record_snapshot_miss() -> None:
    """Count one snapshot-store lookup that found nothing."""
    _SNAPSHOT_COUNTERS["misses"] += 1


def record_snapshot_capture(nbytes: int) -> None:
    """Count one warmup capture of ``nbytes`` of snapshot state."""
    _SNAPSHOT_COUNTERS["captures"] += 1
    _SNAPSHOT_COUNTERS["bytes_written"] += int(nbytes)


def record_snapshot_restore(nbytes: int) -> None:
    """Count one system forked from a snapshot of ``nbytes``."""
    _SNAPSHOT_COUNTERS["restores"] += 1
    _SNAPSHOT_COUNTERS["bytes_restored"] += int(nbytes)


def snapshot_counts() -> Dict[str, int]:
    """A copy of this process's raw snapshot counters."""
    return dict(_SNAPSHOT_COUNTERS)


def snapshot_cache_info(counts: Optional[Dict[str, int]] = None
                        ) -> Dict[str, object]:
    """Snapshot reuse counters plus their derived hit ratio.

    ``counts`` defaults to this process's counters; a campaign passes the
    counts summed over the jobs it ran.
    """
    info: Dict[str, object] = dict(_SNAPSHOT_COUNTERS if counts is None
                                   else counts)
    lookups = info["hits"] + info["misses"]
    info["hit_ratio"] = info["hits"] / lookups if lookups else 0.0
    return info


def reset_snapshot_counters() -> None:
    """Zero the snapshot counters (test isolation helper)."""
    for key in _SNAPSHOT_COUNTERS:
        _SNAPSHOT_COUNTERS[key] = 0


def peak_rss_bytes() -> int:
    """Peak resident-set size of this process, in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalised here
    so the metrics file is platform-independent.  Returns 0 where the
    :mod:`resource` module is unavailable (non-POSIX platforms).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - exercised on macOS only
        return int(peak)
    return int(peak) * 1024


@dataclass
class JobMetrics:
    """Provenance and cost of one campaign job outcome."""

    label: str
    workload: str
    config: str
    seed: int
    #: ``"simulated"`` or ``"store"`` (the campaign progress source names).
    source: str
    #: Wall-clock seconds to produce the result (0.0 for store hits).
    wall_seconds: float
    #: Peak RSS (bytes) of the process that produced the result, at the
    #: time it finished this job.
    peak_rss_bytes: int
    #: OS pid of the producing process (distinguishes pool workers).
    pid: int

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JobMetrics":
        return cls(**{name: data[name] for name in cls.__dataclass_fields__})


def campaign_metrics(job_metrics: Iterable[JobMetrics],
                     elapsed_seconds: float,
                     workers: int,
                     store_stats: Optional[Dict[str, object]] = None,
                     snapshot_cache: Optional[Dict[str, object]] = None,
                     ) -> Dict[str, object]:
    """Fold per-job metrics into the fleet-level campaign document.

    ``worker_utilization`` is the simulated wall time divided by the wall
    capacity of the pool (``workers * elapsed``); 0.0 when every job came
    from the store (nothing simulated, no division by zero).
    """
    jobs: List[JobMetrics] = list(job_metrics)
    simulated = [job for job in jobs if job.source == "simulated"]
    simulated_wall = sum(job.wall_seconds for job in simulated)
    capacity = workers * elapsed_seconds
    utilization = simulated_wall / capacity if capacity > 0 and simulated else 0.0
    by_pid: Dict[int, float] = {}
    for job in simulated:
        by_pid[job.pid] = by_pid.get(job.pid, 0.0) + job.wall_seconds
    document: Dict[str, object] = {
        "schema": CAMPAIGN_METRICS_SCHEMA_VERSION,
        "elapsed_seconds": elapsed_seconds,
        "workers": workers,
        "jobs_total": len(jobs),
        "jobs_simulated": len(simulated),
        "jobs_from_store": len(jobs) - len(simulated),
        "simulated_wall_seconds": simulated_wall,
        "max_job_wall_seconds": max(
            (job.wall_seconds for job in simulated), default=0.0),
        "mean_job_wall_seconds": (
            simulated_wall / len(simulated) if simulated else 0.0),
        "worker_utilization": utilization,
        "peak_rss_bytes": max((job.peak_rss_bytes for job in jobs), default=0),
        "wall_seconds_by_pid": {str(pid): seconds
                                for pid, seconds in sorted(by_pid.items())},
        "jobs": [job.to_dict() for job in jobs],
    }
    if store_stats is not None:
        document["store"] = dict(store_stats)
    if snapshot_cache is not None:
        document["snapshot_cache"] = dict(snapshot_cache)
    return document


def write_campaign_metrics(document: Dict[str, object],
                           path: Union[str, Path]) -> Path:
    """Persist a campaign metrics document as pretty-printed JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    tmp.replace(path)
    return path


def read_campaign_metrics(path: Union[str, Path]) -> Dict[str, object]:
    """Load a campaign metrics document; raises ValueError on bad schema."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(document, dict) or "schema" not in document:
        raise ValueError(f"{path}: not a campaign metrics document")
    if document["schema"] != CAMPAIGN_METRICS_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported campaign metrics schema "
            f"{document['schema']!r}")
    return document
