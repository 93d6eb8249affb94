"""Telemetry mode resolution and the per-run recorder.

An explicit argument beats the ``REPRO_TELEMETRY`` environment variable,
which beats the default (``off``).  :func:`resolve_telemetry` returns
``None`` for ``off`` -- the simulator's hot path tests ``recorder is
None`` once per chunk and otherwise runs the exact same code as before, so
the default costs nothing.

A :class:`TelemetryRecorder` is caller-owned and *never* attached to a
:class:`~repro.sim.results.SimulationResult`: result fingerprints cover
every result field, and the off/full bit-identity guarantee (tested and
gated in CI) depends on telemetry staying out of the result object.

Sampling discipline: one sample per streaming chunk boundary, never per
access.  Every sampled value is a count the system already keeps
(``ServerSystem.counters`` and the memory system's row outcomes,
:meth:`~repro.dram.flat.FlatMemorySystem.row_outcomes`) -- the recorder only
reads, subtracts the previous snapshot and appends one row.

While a pipelined run's DRAM stage holds the memory system (see
:mod:`repro.sim.pipeline`), the DRAM columns cannot be read at the boundary
without stalling the run.  The recorder then sends the stage a mark instead,
leaves the row's DRAM columns at zero, and fills them in from the stage's
marks when it hands the memory back (:meth:`TelemetryRecorder.on_dram_marks`),
so the finished timeline equals an in-process one bit for bit.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Optional, Union

from repro.telemetry.events import EVENT_SCHEMA_VERSION, write_events_jsonl
from repro.telemetry.spans import SpanTracer
from repro.telemetry.timeline import DELTA_COLUMNS, TIMELINE_COLUMNS, Timeline

__all__ = [
    "DEFAULT_MODE",
    "MODES",
    "TELEMETRY_ENV_VAR",
    "TelemetryRecorder",
    "resolve_telemetry",
]

#: Environment variable consulted when no explicit mode is given.
TELEMETRY_ENV_VAR = "REPRO_TELEMETRY"

#: Recognised telemetry modes: nothing, or the timeline plus the span log.
MODES = ("off", "full")

DEFAULT_MODE = "off"


def resolve_telemetry(
    telemetry: "Union[None, str, TelemetryRecorder]" = None,
) -> "Optional[TelemetryRecorder]":
    """Resolve a telemetry selection to a recorder (or ``None`` for off).

    Accepts ``None`` (consult ``REPRO_TELEMETRY``, default ``off``), a mode
    name from :data:`MODES`, or an existing :class:`TelemetryRecorder`
    (returned as-is, so one recorder can observe several runs).  Unknown
    mode names raise :class:`ValueError` -- a typo must not silently
    disable telemetry the caller asked for.
    """
    if isinstance(telemetry, TelemetryRecorder):
        return telemetry
    if telemetry is None:
        telemetry = os.environ.get(TELEMETRY_ENV_VAR, "").strip() or DEFAULT_MODE
    if telemetry not in MODES:
        raise ValueError(
            f"unknown telemetry mode {telemetry!r}; expected one of "
            f"{', '.join(MODES)}")
    if telemetry == "off":
        return None
    return TelemetryRecorder()


#: The delta columns the memory system's row-buffer counters feed (the
#: tail of ``DELTA_COLUMNS``; the system's own counters feed the rest).
_DRAM_COLUMNS = DELTA_COLUMNS[-4:]
_SYSTEM_TOTALS = len(DELTA_COLUMNS) - len(_DRAM_COLUMNS)
#: Row-buffer totals right after a counter reset.
_NO_DRAM = (0,) * len(_DRAM_COLUMNS)


class TelemetryRecorder:
    """Collects timeline samples and span events for one or more runs.

    A recorder always keeps both: one timeline sample per chunk and the
    span/mark event log.  The simulator calls the ``on_*`` hooks;
    everything else is for consumers.
    """

    def __init__(self) -> None:
        self.timeline = Timeline()
        self.tracer = SpanTracer()
        self.created_unix = time.time()
        #: Cumulative counter snapshot at the previous sample (or baseline).
        self._prev: Optional[tuple] = None
        #: Accesses interpreted since the recorder first saw the system --
        #: accumulated from deltas, so it stays monotone across the counter
        #: reset at ``begin_measurement`` and aligns timelines recorded at
        #: different chunk sizes.
        self._accesses_total = 0.0
        self._runs = 0
        #: Samples whose DRAM columns await the DRAM stage's marks: row
        #: indices, with ``None`` where the counters were reset.  ``None``
        #: while no DRAM stage holds the memory system.
        self._deferred: Optional[list] = None
        #: Row-buffer totals before the first deferred sample.
        self._dram_base: tuple = ()

    # ------------------------------------------------------------------ #
    # Simulator hooks
    # ------------------------------------------------------------------ #
    def _totals(self, system) -> tuple:
        """Cumulative hot-counter totals, in ``DELTA_COLUMNS`` order."""
        return self._system_totals(system) + system.memory.row_outcomes()

    @staticmethod
    def _system_totals(system) -> tuple:
        counters = system.counters
        return (
            counters["accesses"],
            system._instructions,
            counters["l1_hits"],
            counters["llc_hits"],
            counters["llc_misses"],
            counters["demand_reads"],
            counters["covered_reads"],
            counters["demand_writebacks"],
            counters["bulk_reads"],
            counters["prefetch_reads"],
            counters["bulk_writebacks"],
            counters["eager_writebacks"],
        )

    def on_run_start(self, system, workload: str = "") -> None:
        """Baseline the counter snapshot before the first chunk runs."""
        self._runs += 1
        self._prev = self._totals(system)
        self.tracer.mark("run_start", run=self._runs)

    def on_chunk(self, system) -> None:
        """Append one timeline sample at a streaming chunk boundary."""
        stage = system._dram_stage
        if stage is None:
            totals = self._totals(system)
            queue = system.memory.pending_count()
        else:
            # Zero DRAM deltas and queue for now; on_dram_marks fills them.
            stage.mark()
            self._deferred.append(len(self.timeline))
            totals = self._system_totals(system) + self._prev[_SYSTEM_TOTALS:]
            queue = 0
        prev = self._prev
        if prev is None:
            prev = (0.0,) * len(totals)
        deltas = [now - before for now, before in zip(totals, prev)]
        self._prev = totals
        self._accesses_total += deltas[0]
        self.timeline.append(
            [system._core_cycle, self._accesses_total, queue] + deltas)

    def on_measurement_start(self, system) -> None:
        """Re-baseline after ``begin_measurement`` reset the counters."""
        if system._dram_stage is None:
            self._prev = self._totals(system)
        else:
            # The reset zeroed the DRAM counters the stage holds.
            self._deferred.append(None)
            self._prev = self._system_totals(system) + _NO_DRAM
        self.tracer.mark("measurement_start",
                         accesses_total=self._accesses_total)

    def on_pipeline_start(self, accesses: int, pipeline) -> None:
        """Note that a run forked its pipeline helpers after ``accesses``."""
        self._deferred = []
        self._dram_base = self._prev[_SYSTEM_TOTALS:]
        self.tracer.mark("pipeline_start", accesses=accesses,
                         stages=",".join(pipeline.names),
                         cpus=list(pipeline.cpus))

    def on_dram_marks(self, marks) -> None:
        """Fill the DRAM columns of the samples taken while the DRAM stage ran.

        ``marks`` are the stage's ``(queue occupancy, accesses, row hits,
        row misses, row conflicts)`` records, one per deferred sample, in
        order.
        """
        deferred = self._deferred
        if deferred is None:
            return
        self._deferred = None
        base = self._dram_base
        marks = iter(marks)
        for row in deferred:
            if row is None:
                base = _NO_DRAM
                continue
            queue, *totals = next(marks)
            self.timeline.put(row, "queue_occupancy", queue)
            for name, now, before in zip(_DRAM_COLUMNS, totals, base):
                self.timeline.put(row, name, now - before)
            base = tuple(totals)
        self._prev = self._prev[:_SYSTEM_TOTALS] + base

    def on_run_end(self, system) -> None:
        """Flush aggregated stage spans and stamp the run summary mark."""
        self.tracer.flush_stages()
        self.tracer.mark(
            "run_end",
            run=self._runs,
            core_cycles=system._core_cycle,
            instructions=system._instructions,
        )

    def note_phase(self, name: str, accesses: int) -> None:
        """Record a scenario phase boundary (cumulative trace position)."""
        self.tracer.mark("phase", phase=name, accesses=accesses)

    # ------------------------------------------------------------------ #
    # Span helpers
    # ------------------------------------------------------------------ #
    def add_stage(self, name: str, seconds: float, calls: int = 1) -> None:
        """Fold hot-loop stage time into the per-stage accumulators."""
        self.tracer.add_stage(name, seconds, calls)

    def span(self, name: str, **counters: float):
        """Wrap a coarse pipeline stage (trace compile, store I/O, ...)."""
        return self.tracer.span(name, **counters)

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #
    def events(self) -> list:
        """The full event stream: one ``meta`` record, samples, spans."""
        stream = [{
            "event": "meta",
            "schema": EVENT_SCHEMA_VERSION,
            "mode": "full",
            "columns": list(TIMELINE_COLUMNS),
            "created_unix": self.created_unix,
        }]
        for index, row in enumerate(self.timeline.rows()):
            stream.append({
                "event": "sample",
                "i": index,
                "data": dict(zip(TIMELINE_COLUMNS, row)),
            })
        stream.extend(self.tracer.span_events())
        return stream

    def write_jsonl(self, path: Union[str, Path]) -> Path:
        """Serialise :meth:`events` to a JSONL file and return its path."""
        return write_events_jsonl(self.events(), path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TelemetryRecorder(samples={len(self.timeline)}, "
                f"events={len(self.tracer.events)})")
