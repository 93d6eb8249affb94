"""Campaign progress streaming.

A campaign can run for minutes to hours; callers want to see jobs complete
as they finish, not a single summary at the end.  The engine reports through
the tiny observer interface below: the silent base class for library use,
:class:`ConsoleProgress` for the CLI and the examples, and
:class:`RecordingProgress` for tests that assert on the exact event stream.
"""

from __future__ import annotations

import sys
import time
from typing import IO, List, Optional, Tuple

from repro.exec.jobs import JobSpec

__all__ = [
    "SOURCE_SIMULATED",
    "SOURCE_STORE",
    "CampaignProgress",
    "ConsoleProgress",
    "RecordingProgress",
]

#: Job-completion provenance tags reported to observers.
SOURCE_STORE = "store"
SOURCE_SIMULATED = "simulated"


class CampaignProgress:
    """Observer interface; the default implementation ignores every event."""

    def on_start(self, total_jobs: int, cached_jobs: int, workers: int) -> None:
        """Campaign admitted ``total_jobs``, of which ``cached_jobs`` hit the store."""

    def on_job_done(self, job: JobSpec, source: str,
                    completed: int, total: int) -> None:
        """One job finished (``source`` is one of the ``SOURCE_*`` tags)."""

    def on_finish(self, simulated: int, cached: int, elapsed_seconds: float) -> None:
        """Campaign completed."""


class ConsoleProgress(CampaignProgress):
    """Line-per-job progress printer for interactive use."""

    def __init__(self, stream: Optional[IO[str]] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._start = 0.0

    def _write(self, text: str) -> None:
        self.stream.write(text + "\n")
        self.stream.flush()

    def on_start(self, total_jobs: int, cached_jobs: int, workers: int) -> None:
        self._start = time.perf_counter()
        self._write(
            f"campaign: {total_jobs} jobs ({cached_jobs} already in store), "
            f"{workers} worker{'s' if workers != 1 else ''}"
        )

    def on_job_done(self, job: JobSpec, source: str,
                    completed: int, total: int) -> None:
        elapsed = time.perf_counter() - self._start
        line = f"[{completed:>4}/{total}] {job.label} ({source}, {elapsed:.1f}s)"
        # Rate and ETA need a nonzero elapsed interval: when every job was
        # satisfied from the store the whole campaign can complete in the
        # clock's same instant, and a division there would blow up.
        if elapsed > 0.0 and completed > 0:
            rate = completed / elapsed
            remaining = total - completed
            line += f" | {rate:.1f} job/s"
            if remaining:
                line += f", eta {remaining / rate:.1f}s"
        self._write(line)

    def on_finish(self, simulated: int, cached: int, elapsed_seconds: float) -> None:
        self._write(
            f"campaign done: {simulated} simulated, {cached} from store, "
            f"{elapsed_seconds:.1f}s"
        )


class RecordingProgress(CampaignProgress):
    """Captures the event stream for assertions in tests."""

    def __init__(self) -> None:
        self.started: Optional[Tuple[int, int, int]] = None
        self.events: List[Tuple[str, str]] = []
        self.finished: Optional[Tuple[int, int]] = None

    def on_start(self, total_jobs: int, cached_jobs: int, workers: int) -> None:
        self.started = (total_jobs, cached_jobs, workers)

    def on_job_done(self, job: JobSpec, source: str,
                    completed: int, total: int) -> None:
        self.events.append((job.label, source))

    def on_finish(self, simulated: int, cached: int, elapsed_seconds: float) -> None:
        self.finished = (simulated, cached)
