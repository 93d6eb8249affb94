"""Observability layer: timelines and span tracing of single runs.

Everything the simulator reports today is an end-of-run scalar; this
package adds the *when* and the *where*:

* :class:`Timeline` -- per-chunk time series of the hot counters (cache hit
  rates, MPKI, DRAM row behaviour, queue occupancy) in preallocated NumPy
  columns keyed by core cycle;
* :class:`SpanTracer` -- wall-time spans around pipeline stages plus
  instantaneous marks, serialised as a structured JSONL event log.

Select a mode with ``REPRO_TELEMETRY=off|full`` or a ``telemetry=``
argument anywhere a run starts; ``full`` records both the timeline and the
span log.  The default is ``off`` and costs a single ``is None`` test per
chunk.  Telemetry is observational only -- results stay bit-identical with
it on (tested, and gated by ``benchmarks/bench_telemetry.py`` at <= 5%
overhead in full mode).
"""

from repro.telemetry.events import (
    EVENT_SCHEMA_VERSION,
    read_events_jsonl,
    timeline_from_events,
    validate_event,
    write_events_jsonl,
)
from repro.telemetry.recorder import (
    DEFAULT_MODE,
    MODES,
    TELEMETRY_ENV_VAR,
    TelemetryRecorder,
    resolve_telemetry,
)
from repro.telemetry.spans import SpanTracer
from repro.telemetry.timeline import DELTA_COLUMNS, TIMELINE_COLUMNS, Timeline

__all__ = [
    "DEFAULT_MODE",
    "DELTA_COLUMNS",
    "EVENT_SCHEMA_VERSION",
    "MODES",
    "SpanTracer",
    "TELEMETRY_ENV_VAR",
    "TIMELINE_COLUMNS",
    "TelemetryRecorder",
    "Timeline",
    "read_events_jsonl",
    "resolve_telemetry",
    "timeline_from_events",
    "validate_event",
    "write_events_jsonl",
]
