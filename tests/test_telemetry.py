"""Unit tests for the telemetry package (timeline, recorder, spans, events,
report rendering) and its chunk-boundary sampling discipline."""

import numpy as np
import pytest

from repro.sim.config import bump_system
from repro.sim.runner import build_trace, run_trace
from repro.telemetry import (
    DELTA_COLUMNS,
    EVENT_SCHEMA_VERSION,
    MODES,
    TELEMETRY_ENV_VAR,
    TIMELINE_COLUMNS,
    SpanTracer,
    TelemetryRecorder,
    Timeline,
    read_events_jsonl,
    resolve_telemetry,
    timeline_from_events,
    validate_event,
    write_events_jsonl,
)
from repro.telemetry.report import (
    render_spans,
    render_timeline,
    summarize_events,
)


def _row(cycle=100.0, accesses=32.0):
    """One synthetic sample row in TIMELINE_COLUMNS order."""
    row = [0.0] * len(TIMELINE_COLUMNS)
    row[0] = cycle
    row[1] = accesses
    row[TIMELINE_COLUMNS.index("accesses")] = accesses
    row[TIMELINE_COLUMNS.index("instructions")] = 2 * accesses
    row[TIMELINE_COLUMNS.index("l1_hits")] = accesses / 2
    row[TIMELINE_COLUMNS.index("llc_hits")] = 8.0
    row[TIMELINE_COLUMNS.index("llc_misses")] = 8.0
    row[TIMELINE_COLUMNS.index("dram_accesses")] = 16.0
    row[TIMELINE_COLUMNS.index("row_hits")] = 4.0
    return row


class TestTimeline:
    def test_grows_past_initial_capacity(self):
        timeline = Timeline(capacity=2)
        for i in range(5):
            timeline.append(_row(cycle=float(i)))
        assert len(timeline) == 5
        assert timeline.column("cycle").tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_rejects_wrong_row_width_and_bad_capacity(self):
        with pytest.raises(ValueError):
            Timeline(capacity=0)
        with pytest.raises(ValueError):
            Timeline().append([1.0, 2.0])

    def test_columns_are_read_only_views(self):
        timeline = Timeline()
        timeline.append(_row())
        column = timeline.column("accesses")
        with pytest.raises(ValueError):
            column[0] = 999.0
        with pytest.raises(KeyError):
            timeline.column("no_such_column")

    def test_cumulative_sums_deltas_but_passes_absolutes_through(self):
        timeline = Timeline()
        timeline.append(_row(cycle=100.0, accesses=32.0))
        timeline.append(_row(cycle=200.0, accesses=32.0))
        assert timeline.cumulative("accesses").tolist() == [32.0, 64.0]
        assert timeline.cumulative("cycle").tolist() == [100.0, 200.0]

    def test_derived_rates_guard_zero_denominators(self):
        timeline = Timeline()
        timeline.append(_row(accesses=32.0))
        timeline.append([0.0] * len(TIMELINE_COLUMNS))  # empty interval
        derived = timeline.derived()
        assert derived["l1_hit_rate"].tolist() == [0.5, 0.0]
        assert derived["llc_hit_rate"].tolist() == [0.5, 0.0]
        assert derived["row_hit_rate"].tolist() == [0.25, 0.0]
        np.testing.assert_allclose(derived["mpki"][0], 1000.0 * 8.0 / 64.0)

    def test_totals_cover_every_delta_column(self):
        timeline = Timeline()
        timeline.append(_row(accesses=10.0))
        totals = timeline.totals()
        assert set(totals) == set(DELTA_COLUMNS)
        assert totals["accesses"] == 10.0


class TestModeResolution:
    def test_off_resolves_to_none(self, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
        assert resolve_telemetry() is None
        assert resolve_telemetry("off") is None

    def test_env_var_is_consulted_when_no_argument(self, monkeypatch):
        monkeypatch.setenv(TELEMETRY_ENV_VAR, " full ")
        recorder = resolve_telemetry()
        assert recorder is not None and recorder.mode == "full"

    def test_blank_env_means_off(self, monkeypatch):
        monkeypatch.setenv(TELEMETRY_ENV_VAR, "   ")
        assert resolve_telemetry() is None

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(TELEMETRY_ENV_VAR, "full")
        assert resolve_telemetry("off") is None

    def test_recorder_instances_pass_through(self):
        recorder = TelemetryRecorder("full")
        assert resolve_telemetry(recorder) is recorder

    def test_unknown_modes_raise(self, monkeypatch):
        # The retired ``chunks`` and ``spans`` modes are unknown too.
        for mode in ("verbose", "chunks", "spans"):
            with pytest.raises(ValueError, match="off, full"):
                resolve_telemetry(mode)
            monkeypatch.setenv(TELEMETRY_ENV_VAR, mode)
            with pytest.raises(ValueError, match="off, full"):
                resolve_telemetry()
            with pytest.raises(ValueError):
                TelemetryRecorder(mode)
        with pytest.raises(ValueError):
            TelemetryRecorder("off")

    def test_modes_gate_what_is_recorded(self):
        # off records nothing (no recorder); full keeps both streams.
        assert MODES == ("off", "full")
        assert resolve_telemetry("off") is None
        full = TelemetryRecorder("full")
        run_trace(build_trace("web_search", 2000), bump_system(),
                  telemetry=full)
        assert len(full.timeline) > 0
        assert any(e["event"] == "span" for e in full.tracer.events)


class TestSpanTracer:
    def test_span_context_manager_records_duration(self):
        tracer = SpanTracer()
        with tracer.span("compile", items=3):
            pass
        (event,) = tracer.events
        assert event["event"] == "span"
        assert event["name"] == "compile"
        assert event["duration_s"] >= 0.0
        assert event["counters"] == {"items": 3}

    def test_repeated_stages_fold_into_one_span(self):
        tracer = SpanTracer()
        for _ in range(10):
            tracer.add_stage("chunk_service", 0.25)
        tracer.flush_stages()
        (event,) = tracer.events
        assert event["name"] == "chunk_service"
        assert event["counters"] == {"calls": 10}
        np.testing.assert_allclose(event["duration_s"], 2.5)
        tracer.flush_stages()  # idempotent once drained
        assert len(tracer.events) == 1

    def test_marks_are_instantaneous(self):
        tracer = SpanTracer()
        tracer.mark("phase", phase="burst", accesses=4096)
        (event,) = tracer.events
        assert event["event"] == "mark"
        assert event["fields"] == {"phase": "burst", "accesses": 4096}


class TestEventLog:
    def _recorded(self):
        recorder = TelemetryRecorder("full")
        run_trace(build_trace("web_search", 5000), bump_system(),
                  telemetry=recorder)
        return recorder

    def test_jsonl_round_trip_rebuilds_the_timeline(self, tmp_path):
        recorder = self._recorded()
        path = recorder.write_jsonl(tmp_path / "run.jsonl")
        events = read_events_jsonl(path)
        assert events[0]["event"] == "meta"
        assert events[0]["columns"] == list(TIMELINE_COLUMNS)
        rebuilt = timeline_from_events(events)
        assert rebuilt.totals() == recorder.timeline.totals()
        assert rebuilt.column("cycle").tolist() == \
            recorder.timeline.column("cycle").tolist()

    def test_stream_contains_stage_spans_and_run_marks(self):
        events = self._recorded().events()
        names = {e.get("name") for e in events if e["event"] == "span"}
        assert {"chunk_service", "dram_drain", "result_assembly"} <= names
        marks = {e.get("name") for e in events if e["event"] == "mark"}
        assert {"run_start", "measurement_start", "run_end"} <= marks

    def test_validation_rejects_malformed_events(self):
        with pytest.raises(ValueError):
            validate_event({"event": "nope"})
        with pytest.raises(ValueError):
            validate_event({"event": "sample", "i": 0})
        with pytest.raises(ValueError):
            validate_event({"event": "sample", "i": 0, "data": {"cycle": True}})
        with pytest.raises(ValueError):
            validate_event({"event": "span", "name": "s", "start_s": "x",
                            "duration_s": 0.0, "counters": {}})
        with pytest.raises(ValueError):
            validate_event({"event": "meta", "schema": 99, "mode": "full",
                            "columns": [], "created_unix": 0.0})
        # Schema 1 logs carry the retired ``intensity`` sample column.
        with pytest.raises(ValueError, match="unsupported event schema 1"):
            validate_event({"event": "meta", "schema": 1, "mode": "full",
                            "columns": [], "created_unix": 0.0})

    def test_reader_reports_line_numbers_and_meta_first(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(f'{{"event": "meta", "schema": {EVENT_SCHEMA_VERSION}, '
                       '"mode": "full", "columns": [], "created_unix": 0.0}'
                       '\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_events_jsonl(bad)
        headless = tmp_path / "headless.jsonl"
        headless.write_text('{"event": "mark", "name": "m", "t_s": 0.0, '
                            '"fields": {}}\n')
        with pytest.raises(ValueError, match="must be 'meta'"):
            read_events_jsonl(headless)

    def test_writer_validates_on_the_way_out(self, tmp_path):
        with pytest.raises(ValueError):
            write_events_jsonl([{"event": "bogus"}], tmp_path / "x.jsonl")


class TestSamplingDiscipline:
    def test_one_sample_per_chunk_with_monotone_coordinates(self):
        trace = build_trace("web_serving", 6000)
        chunks = [trace[lo:lo + 1500] for lo in range(0, 6000, 1500)]
        recorder = TelemetryRecorder("full")
        run_trace(chunks, bump_system(), num_accesses=6000,
                  telemetry=recorder)
        timeline = recorder.timeline
        assert len(timeline) == len(chunks)
        cycles = timeline.column("cycle")
        assert (np.diff(cycles) >= 0).all()
        totals = timeline.column("accesses_total")
        assert (np.diff(totals) > 0).all()
        assert totals[-1] == 6000.0

    def test_timeline_totals_are_chunk_size_invariant(self):
        trace = build_trace("data_serving", 6000)
        totals = {}
        finals = {}
        for size in (1000, 3000):
            chunks = [trace[lo:lo + size] for lo in range(0, 6000, size)]
            recorder = TelemetryRecorder("full")
            run_trace(chunks, bump_system(), num_accesses=6000,
                      telemetry=recorder)
            totals[size] = recorder.timeline.totals()
            finals[size] = recorder.timeline.column("accesses_total")[-1]
        assert totals[1000] == totals[3000]
        assert finals[1000] == finals[3000]

    def test_one_recorder_can_observe_several_runs(self):
        recorder = TelemetryRecorder("full")
        trace = build_trace("web_search", 4000)
        run_trace(trace, bump_system(), telemetry=recorder)
        first = len(recorder.timeline)
        run_trace(trace, bump_system(), telemetry=recorder)
        assert len(recorder.timeline) == 2 * first
        runs = [e for e in recorder.events()
                if e["event"] == "mark" and e["name"] == "run_start"]
        assert [m["fields"]["run"] for m in runs] == [1, 2]


class TestReportRendering:
    def test_timeline_table_elides_long_runs(self):
        timeline = Timeline()
        for i in range(100):
            timeline.append(_row(cycle=float(i)))
        text = render_timeline(timeline, max_rows=10)
        assert "cycle" in text
        assert "90 more sample(s)" in text

    def test_span_renderer_and_event_summary(self):
        recorder = TelemetryRecorder("full")
        run_trace(build_trace("web_search", 4000), bump_system(),
                  telemetry=recorder)
        spans = render_spans(recorder.events())
        assert "chunk_service" in spans and "run_start" in spans
        summary = summarize_events(recorder.events())
        assert summary["samples"] == len(recorder.timeline)
        assert summary["mode"] == "full"
