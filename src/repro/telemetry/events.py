"""Structured JSONL event log: schema, writer, reader, validation.

One telemetry run serialises to one JSON-Lines file.  Every line is a JSON
object with an ``"event"`` discriminator; the schema (version
:data:`EVENT_SCHEMA_VERSION`) has four event types:

``meta``
    Exactly one, first line.  Carries ``schema`` (int), ``mode`` (recorder
    mode), ``columns`` (the timeline column order the ``sample`` events use)
    and ``created_unix`` (absolute wall-clock anchor; span/mark timestamps
    are relative seconds).

``sample``
    One per timeline row: ``i`` (sample index) and ``data`` (column name ->
    float, exactly the ``meta.columns`` set).

``span``
    One per (possibly aggregated) pipeline stage: ``name``, ``start_s``,
    ``duration_s`` and a ``counters`` mapping.

``mark``
    Instantaneous annotation: ``name``, ``t_s`` and a ``fields`` mapping
    (scenario phase boundaries, measurement start, run start).

:func:`read_events_jsonl` validates every line against this schema and
raises :class:`ValueError` on the first violation, so downstream consumers
(the ``repro report`` renderer, fleet aggregation) never parse garbage.
:func:`timeline_from_events` reconstructs a :class:`~repro.telemetry.timeline.Timeline`
bit-for-bit from the ``sample`` events (round-trip is tested).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Union

from repro.telemetry.timeline import TIMELINE_COLUMNS, Timeline

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "read_events_jsonl",
    "timeline_from_events",
    "validate_event",
    "write_events_jsonl",
]

#: Version stamped into every ``meta`` record; bump on layout changes so
#: stale logs fail validation instead of rendering nonsense.  Version 2
#: dropped the ``intensity`` sample column.
EVENT_SCHEMA_VERSION = 2

_REQUIRED_KEYS = {
    "meta": ("schema", "mode", "columns", "created_unix"),
    "sample": ("i", "data"),
    "span": ("name", "start_s", "duration_s", "counters"),
    "mark": ("name", "t_s", "fields"),
}

_NUMBER = (int, float)


def validate_event(event: dict) -> dict:
    """Check one event against the schema; returns it or raises ValueError."""
    if not isinstance(event, dict):
        raise ValueError(f"event is not an object: {event!r}")
    kind = event.get("event")
    if kind not in _REQUIRED_KEYS:
        raise ValueError(f"unknown event type {kind!r}")
    for key in _REQUIRED_KEYS[kind]:
        if key not in event:
            raise ValueError(f"{kind} event missing required key {key!r}")
    if kind == "meta":
        if event["schema"] != EVENT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported event schema {event['schema']!r} "
                f"(this reader understands {EVENT_SCHEMA_VERSION})")
        if not isinstance(event["columns"], list):
            raise ValueError("meta.columns must be a list")
    elif kind == "sample":
        data = event["data"]
        if not isinstance(data, dict):
            raise ValueError("sample.data must be an object")
        for column, value in data.items():
            if not isinstance(value, _NUMBER) or isinstance(value, bool):
                raise ValueError(
                    f"sample.data[{column!r}] is not a number: {value!r}")
    elif kind == "span":
        for key in ("start_s", "duration_s"):
            if not isinstance(event[key], _NUMBER) or isinstance(event[key], bool):
                raise ValueError(f"span.{key} is not a number: {event[key]!r}")
        if not isinstance(event["counters"], dict):
            raise ValueError("span.counters must be an object")
    else:  # mark
        if not isinstance(event["t_s"], _NUMBER) or isinstance(event["t_s"], bool):
            raise ValueError(f"mark.t_s is not a number: {event['t_s']!r}")
        if not isinstance(event["fields"], dict):
            raise ValueError("mark.fields must be an object")
    return event


def write_events_jsonl(events: Iterable[dict], path: Union[str, Path]) -> Path:
    """Serialise an event stream to one JSONL file (validated on the way out)."""
    path = Path(path)
    lines = [json.dumps(validate_event(event), sort_keys=True) for event in events]
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return path

def read_events_jsonl(path: Union[str, Path]) -> List[dict]:
    """Parse and validate a JSONL event log; raises ValueError on bad input."""
    events: List[dict] = []
    text = Path(path).read_text(encoding="utf-8")
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{number}: not valid JSON: {exc}") from None
        try:
            events.append(validate_event(event))
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: {exc}") from None
    if events and events[0]["event"] != "meta":
        raise ValueError(f"{path}: first event must be 'meta', "
                         f"got {events[0]['event']!r}")
    return events


def timeline_from_events(events: Iterable[dict]) -> Timeline:
    """Rebuild a :class:`Timeline` from the ``sample`` events of a log.

    Samples are re-ordered by their index so the reconstruction is
    insensitive to interleaving with span/mark lines; the column order is
    taken from the current schema (the ``meta.columns`` list is validated
    against it when present).
    """
    samples = []
    for event in events:
        if event.get("event") == "meta":
            recorded = tuple(event["columns"])
            if recorded != TIMELINE_COLUMNS:
                raise ValueError(
                    f"event log columns {recorded!r} do not match this "
                    f"build's timeline columns")
        elif event.get("event") == "sample":
            samples.append(event)
    samples.sort(key=lambda event: event["i"])
    timeline = Timeline(capacity=max(len(samples), 1))
    for event in samples:
        data = event["data"]
        missing = [c for c in TIMELINE_COLUMNS if c not in data]
        if missing:
            raise ValueError(f"sample {event['i']} missing columns {missing}")
        timeline.append([data[column] for column in TIMELINE_COLUMNS])
    return timeline
