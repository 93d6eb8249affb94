"""The ``TraceSource`` protocol: pull-based trace production with feedback.

Every way the simulator can be fed -- workload generators, the scenario
compiler, stored trace files, closed-loop traffic shapers -- speaks one
protocol::

    chunk = source.next_chunk(feedback)   # TraceBuffer | None (exhausted)

``feedback`` is a :class:`FeedbackSample` assembled by the simulator at the
chunk boundary (or ``None``): cumulative service-side observations -- mean
memory latency, queue depth -- that a *closed-loop* source can feed into an
admission controller.  Open-loop sources simply ignore it, and the run loop
only assembles samples for sources that declare ``wants_feedback``, so the
feedback path costs nothing unless it is used.

The protocol is deliberately pull-based and chunk-grained: the simulator
fully services chunk *k* before requesting chunk *k+1*, so a feedback sample
observed before a pull reflects exactly the accesses produced so far --
independent of chunk size.  That is what lets closed-loop runs inherit the
engine-wide chunk-size-invariance guarantee (see
:class:`repro.scenario.closed_loop.ClosedLoopSource`).

Members:

* :class:`FeedbackSample` -- the boundary observation record.
* :class:`IteratorSource` / :func:`as_trace_source` -- adapt anything the
  chunk machinery already accepts (a :class:`~repro.trace.buffer.
  TraceBuffer`, or a list or iterator of buffers) into a source with
  bit-identical output.
* :class:`IngestSource` -- replay an externally captured trace file
  (``trace/io`` codecs, including :class:`~repro.trace.capture.
  LLCTraceRecorder` exports) through the streaming pipeline.
* :func:`resume_source` -- prepend a leftover chunk (e.g. the tail of a
  warmup-split chunk) to a source, preserving its feedback appetite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Protocol, runtime_checkable

from repro.trace.buffer import DEFAULT_CHUNK_SIZE, TraceBuffer, as_chunk_iterator

__all__ = [
    "FeedbackSample",
    "IngestSource",
    "IteratorSource",
    "TraceSource",
    "as_trace_source",
    "resume_source",
]


@dataclass(frozen=True)
class FeedbackSample:
    """Cumulative service-side observations at one chunk boundary.

    All fields are *cumulative over the run* (monotone except across the
    measurement reset at the warmup boundary, which drains and zeroes the
    memory counters).  Controllers that want per-interval behaviour keep
    their own last-boundary values and difference internally -- that is what
    makes their decisions independent of how the stream happens to be
    chunked.
    """

    #: Accesses produced by the source and fully serviced so far.
    accesses: int
    #: Core clock at the boundary (bus cycles).
    core_cycle: float
    #: Cumulative DRAM demand reads served.
    demand_reads: int
    #: Cumulative demand-read latency (bus cycles, summed per read).
    read_latency_cycles: float
    #: Requests currently queued in the memory controllers.
    queue_depth: int
    #: Cumulative LLC misses.
    llc_misses: int

    @property
    def mean_read_latency(self) -> float:
        """Run-cumulative mean demand-read latency (0.0 before any read)."""
        if self.demand_reads <= 0:
            return 0.0
        return self.read_latency_cycles / self.demand_reads


@runtime_checkable
class TraceSource(Protocol):
    """Anything that produces trace chunks on demand."""

    def next_chunk(self, feedback: Optional[FeedbackSample]) -> Optional[TraceBuffer]:
        """Produce the next chunk, or ``None`` when the stream is exhausted."""
        ...


class IteratorSource:
    """Adapter: any open-loop chunk producer as a :class:`TraceSource`.

    Accepts everything :func:`~repro.trace.buffer.as_chunk_iterator` accepts
    -- a :class:`TraceBuffer`, or a list or iterator of buffers -- and
    replays it chunk for chunk.  ``feedback`` is ignored; output is
    bit-identical to iterating the underlying stream directly.
    """

    #: Open-loop: the run loop never assembles feedback for this source.
    wants_feedback = False

    def __init__(self, trace, chunk_size: int = DEFAULT_CHUNK_SIZE):
        self._chunks = as_chunk_iterator(trace, chunk_size=chunk_size)

    def next_chunk(self, feedback: Optional[FeedbackSample] = None):
        return next(self._chunks, None)

    def __iter__(self) -> Iterator[TraceBuffer]:
        """Drain as a plain chunk iterator (legacy chunk machinery)."""
        while True:
            chunk = self.next_chunk(None)
            if chunk is None:
                return
            yield chunk


class IngestSource(IteratorSource):
    """Replay an externally captured trace file as a :class:`TraceSource`.

    Completes the capture -> codec -> replay path: a recording made by
    :class:`~repro.trace.capture.LLCTraceRecorder` (or any tool emitting the
    ``trace/io`` formats) streams back through the simulator bit-for-bit.
    ``mmap=True`` replays structured ``.npy`` files without loading them
    into memory.
    """

    def __init__(self, path, chunk_size: int = DEFAULT_CHUNK_SIZE,
                 mmap: bool = False):
        from repro.trace.io import load_trace_buffer

        self.path = path
        self._buffer = load_trace_buffer(path, mmap=mmap)
        super().__init__(self._buffer, chunk_size=chunk_size)

    @property
    def total_accesses(self) -> int:
        return len(self._buffer)


def as_trace_source(trace, chunk_size: int = DEFAULT_CHUNK_SIZE):
    """Coerce ``trace`` to a :class:`TraceSource`.

    Objects already exposing ``next_chunk`` pass through untouched; anything
    else is wrapped in an :class:`IteratorSource`.
    """
    if hasattr(trace, "next_chunk"):
        return trace
    return IteratorSource(trace, chunk_size=chunk_size)


class _ResumedSource:
    """A source with a pre-produced chunk stitched back onto its front."""

    def __init__(self, leftover: Optional[TraceBuffer], source):
        self._leftover = leftover if leftover is not None and len(leftover) else None
        self._source = source
        self.wants_feedback = bool(getattr(source, "wants_feedback", False))

    @property
    def current_intensity(self) -> float:
        return float(getattr(self._source, "current_intensity", 1.0))

    def next_chunk(self, feedback: Optional[FeedbackSample] = None):
        if self._leftover is not None:
            chunk, self._leftover = self._leftover, None
            return chunk
        return self._source.next_chunk(feedback)

    def __iter__(self) -> Iterator[TraceBuffer]:
        while True:
            chunk = self.next_chunk(None)
            if chunk is None:
                return
            yield chunk


def resume_source(leftover: Optional[TraceBuffer], source) -> TraceSource:
    """Resume ``source`` with ``leftover`` (an already-produced chunk) first.

    Used after a warmup-boundary split: the tail of the split chunk was
    produced but not yet serviced, so it must replay before the source is
    consulted again.  Feedback appetite and intensity reporting delegate to
    the wrapped source.
    """
    source = as_trace_source(source)
    if leftover is None or not len(leftover):
        return source
    return _ResumedSource(leftover, source)
