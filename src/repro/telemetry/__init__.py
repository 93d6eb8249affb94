"""Observability layer: timelines, span tracing and campaign metrics.

Everything the simulator reports today is an end-of-run scalar; this
package adds the *when* and the *where*:

* :class:`Timeline` -- per-chunk time series of the hot counters (cache hit
  rates, MPKI, DRAM row behaviour, queue occupancy) in preallocated NumPy
  columns keyed by core cycle;
* :class:`SpanTracer` -- wall-time spans around pipeline stages plus
  instantaneous marks, serialised as a structured JSONL event log;
* :mod:`repro.telemetry.metrics` -- per-job and fleet-level campaign cost
  accounting (wall time, peak RSS, store provenance, worker utilization).

Select a mode with ``REPRO_TELEMETRY=off|chunks|spans|full`` or a
``telemetry=`` argument anywhere a run starts; the default is ``off``
and costs a single ``is None`` test per chunk.  Telemetry is observational
only -- results stay bit-identical with it on (tested, and gated by
``benchmarks/bench_telemetry.py`` at <= 5% overhead in full mode).
"""

from repro.telemetry.events import (
    EVENT_SCHEMA_VERSION,
    read_events_jsonl,
    timeline_from_events,
    validate_event,
    write_events_jsonl,
)
from repro.telemetry.metrics import (
    CAMPAIGN_METRICS_SCHEMA_VERSION,
    JobMetrics,
    campaign_metrics,
    peak_rss_bytes,
    read_campaign_metrics,
    write_campaign_metrics,
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
    "CAMPAIGN_METRICS_SCHEMA_VERSION",
    "DEFAULT_MODE",
    "DELTA_COLUMNS",
    "EVENT_SCHEMA_VERSION",
    "JobMetrics",
    "MODES",
    "SpanTracer",
    "TELEMETRY_ENV_VAR",
    "TIMELINE_COLUMNS",
    "TelemetryRecorder",
    "Timeline",
    "campaign_metrics",
    "peak_rss_bytes",
    "read_campaign_metrics",
    "read_events_jsonl",
    "resolve_telemetry",
    "timeline_from_events",
    "validate_event",
    "write_campaign_metrics",
    "write_events_jsonl",
]
