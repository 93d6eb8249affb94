"""The ``TraceSource`` protocol layer: adapters, ingest and feedback records.

The refactor guarantee under test: every trace shape the simulator accepts
(a buffer, or a list or iterator of buffer chunks) flows through
:class:`~repro.trace.source.IteratorSource` bit-identically, any other shape
or chunk is rejected with a ``TypeError``, and an externally stored trace
file round-trips through
:class:`~repro.trace.source.IngestSource` bit-for-bit -- including the
capture -> export -> ingest path out of the LLC recorder.
"""

import pytest

from repro.sim.config import base_open
from repro.sim.runner import build_trace, run_trace
from repro.sim.system import ServerSystem
from repro.trace import (
    FeedbackSample,
    IngestSource,
    IteratorSource,
    LLCTraceRecorder,
    TraceBuffer,
    TraceSource,
    as_trace_source,
    resume_source,
    save_trace,
)
from repro.workloads.catalog import get_workload
from repro.workloads.generator import generate_trace_buffer


def small_buffer(accesses=3000, seed=7):
    return generate_trace_buffer(get_workload("web_search"), accesses,
                                 num_cores=4, seed=seed)


def drain(source):
    chunks = []
    while True:
        chunk = source.next_chunk(None)
        if chunk is None:
            return chunks
        chunks.append(chunk)


class TestIteratorSource:
    def test_buffer_is_replayed_bit_identically(self):
        buffer = small_buffer()
        source = IteratorSource(buffer, chunk_size=512)
        replayed = TraceBuffer.concat(drain(source))
        assert replayed == buffer

    def test_chunk_iterator_input_is_passed_through(self):
        buffer = small_buffer()
        chunks = [buffer[i:i + 700] for i in range(0, len(buffer), 700)]
        source = IteratorSource(iter(chunks), chunk_size=256)
        assert TraceBuffer.concat(drain(source)) == buffer

    def test_exhaustion_is_sticky_and_feedback_free(self):
        source = IteratorSource(small_buffer(200), chunk_size=128)
        assert not source.wants_feedback
        drain(source)
        assert source.next_chunk(None) is None
        assert source.next_chunk(None) is None

    def test_iter_protocol_matches_next_chunk(self):
        buffer = small_buffer(1000)
        via_iter = TraceBuffer.concat(list(IteratorSource(buffer, 300)))
        via_pull = TraceBuffer.concat(drain(IteratorSource(buffer, 300)))
        assert via_iter == via_pull == buffer


#: One ``(core, pc, address, is_store, instructions)`` row: not a chunk.
ROW = (0, 0x40, 0x1000, False, 1)
ACCEPTED = ("a TraceBuffer, an iterable of TraceBuffer chunks, a Scenario "
            "or a TraceSource")


#: Rejected trace shapes, each built fresh (iterators are single-use).
BAD_TRACES = {
    "row list": lambda: [ROW] * 4,
    "buffer list with a row": lambda: [small_buffer(200), ROW],
    "buffer list with an int": lambda: [small_buffer(200), 42],
    "buffer then row": lambda: iter([small_buffer(200), ROW]),
    "not iterable": lambda: 42,
}


class TestShapeRejection:
    @pytest.mark.parametrize("shape", list(BAD_TRACES))
    def test_run_trace_names_the_accepted_shapes(self, shape):
        with pytest.raises(TypeError, match=ACCEPTED):
            run_trace(BAD_TRACES[shape](), base_open())

    @pytest.mark.parametrize("shape", list(BAD_TRACES))
    def test_system_run_checks_every_chunk(self, shape):
        with pytest.raises(TypeError, match=ACCEPTED):
            ServerSystem(base_open()).run(BAD_TRACES[shape]())


class TestAsTraceSource:
    def test_wraps_plain_traces(self):
        source = as_trace_source(small_buffer(500), chunk_size=200)
        assert isinstance(source, IteratorSource)
        assert isinstance(source, TraceSource)

    def test_passes_existing_sources_through(self):
        source = IteratorSource(small_buffer(500))
        assert as_trace_source(source) is source


class TestIngestSource:
    @pytest.mark.parametrize("suffix,mmap", [
        (".npz", False), (".npy", False), (".npy", True), (".csv", False)])
    def test_round_trips_every_codec_bit_for_bit(self, tmp_path, suffix, mmap):
        buffer = small_buffer(1500)
        path = tmp_path / f"trace{suffix}"
        save_trace(buffer, path)
        source = IngestSource(path, chunk_size=444, mmap=mmap)
        assert source.total_accesses == len(buffer)
        assert TraceBuffer.concat(drain(source)) == buffer

    def test_recorder_export_replays_through_ingest(self, tmp_path):
        """The full capture -> codec -> replay path, end to end."""
        trace = build_trace("web_serving", 4_000, seed=5)
        recorder = LLCTraceRecorder()
        run_trace(trace, base_open(), warmup_fraction=0.0,
                  extra_agents=[recorder])
        path = recorder.export(tmp_path / "misses.npy")
        source = IngestSource(path, chunk_size=512)
        replayed = TraceBuffer.concat(drain(source))
        assert replayed == recorder.miss_trace_buffer()
        result = run_trace(IngestSource(path), base_open(),
                           warmup_fraction=0.0,
                           num_accesses=source.total_accesses)
        assert result.total_dram_accesses > 0

    def test_chunk_size_does_not_change_the_stream(self, tmp_path):
        buffer = small_buffer(2000)
        path = tmp_path / "trace.npz"
        save_trace(buffer, path)
        narrow = TraceBuffer.concat(drain(IngestSource(path, chunk_size=97)))
        wide = TraceBuffer.concat(drain(IngestSource(path, chunk_size=1900)))
        assert narrow == wide == buffer


class TestResumeSource:
    def test_leftover_is_emitted_first_then_delegates(self):
        buffer = small_buffer(900)
        leftover, rest = buffer[:123], buffer[123:]
        source = resume_source(leftover, IteratorSource(rest, chunk_size=400))
        chunks = drain(source)
        assert len(chunks[0]) == 123
        assert TraceBuffer.concat(chunks) == buffer

    def test_empty_leftover_returns_the_source_unwrapped(self):
        inner = IteratorSource(small_buffer(100))
        assert resume_source(None, inner) is inner
        assert resume_source(small_buffer(100)[:0], inner) is inner

    def test_feedback_appetite_is_preserved(self):
        class Hungry:
            wants_feedback = True

            def next_chunk(self, feedback):
                return None

        resumed = resume_source(small_buffer(10), Hungry())
        assert resumed.wants_feedback


class TestFeedbackSample:
    def test_mean_read_latency(self):
        sample = FeedbackSample(accesses=100, core_cycle=400.0,
                                demand_reads=20, read_latency_cycles=900.0,
                                queue_depth=3, llc_misses=25)
        assert sample.mean_read_latency == pytest.approx(45.0)

    def test_mean_read_latency_before_any_read_is_zero(self):
        sample = FeedbackSample(accesses=0, core_cycle=0.0, demand_reads=0,
                                read_latency_cycles=0.0, queue_depth=0,
                                llc_misses=0)
        assert sample.mean_read_latency == 0.0
