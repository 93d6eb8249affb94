"""The ``TraceSource`` protocol: pull-based trace production.

Every way the simulator can be fed -- workload generators, the scenario
compiler, stored trace files -- speaks one protocol::

    chunk = source.next_chunk()   # TraceBuffer | None (exhausted)

The protocol is pull-based and chunk-grained.  A source never reads
simulator state, so the run loop may pull it ahead of the simulation (see
:mod:`repro.sim.pipeline`).

A source may also have ``close()``.  A run that forks the read-ahead helper
calls it on the caller's copy once both helpers have forked, which frees
that copy while the helper's goes on producing.  Closing runs a generator
producer's cleanup (its ``finally`` blocks) in the caller only.  File
descriptors and memory mappings are per-process, so that is safe for them,
but a cleanup that removes something the helper still reads, such as a
file it has yet to open, would break the helper.  A run that stays
in-process never closes its source.

Members:

* :class:`IteratorSource` / :func:`as_trace_source` -- adapt anything the
  chunk machinery already accepts (a :class:`~repro.trace.buffer.
  TraceBuffer`, or a list or iterator of buffers) into a source with
  bit-identical output.
* :class:`IngestSource` -- replay an externally captured trace file
  (``trace/io`` codecs, including :class:`~repro.trace.capture.
  LLCTraceRecorder` exports) through the streaming pipeline.
"""

from __future__ import annotations

from typing import Iterator, Optional, Protocol, runtime_checkable

from repro.trace.buffer import DEFAULT_CHUNK_SIZE, TraceBuffer, as_chunk_iterator

__all__ = [
    "IngestSource",
    "IteratorSource",
    "TraceSource",
    "as_trace_source",
]


@runtime_checkable
class TraceSource(Protocol):
    """Anything that produces trace chunks on demand."""

    def next_chunk(self) -> Optional[TraceBuffer]:
        """Produce the next chunk, or ``None`` when the stream is exhausted."""
        ...


class IteratorSource:
    """Adapter: any chunk producer as a :class:`TraceSource`.

    Accepts everything :func:`~repro.trace.buffer.as_chunk_iterator` accepts
    -- a :class:`TraceBuffer`, or a list or iterator of buffers -- and
    replays it chunk for chunk; output is bit-identical to iterating the
    underlying stream directly.
    """

    def __init__(self, trace, chunk_size: int = DEFAULT_CHUNK_SIZE):
        self._chunks = as_chunk_iterator(trace, chunk_size=chunk_size)

    def next_chunk(self) -> Optional[TraceBuffer]:
        return next(self._chunks, None)

    def close(self) -> None:
        """Close and drop the chunk iterator; every later pull returns ``None``."""
        chunks, self._chunks = self._chunks, iter(())
        close = getattr(chunks, "close", None)
        if close is not None:
            close()

    def __iter__(self) -> Iterator[TraceBuffer]:
        """Drain as a plain chunk iterator (legacy chunk machinery)."""
        while True:
            chunk = self.next_chunk()
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
        buffer = load_trace_buffer(path, mmap=mmap)
        #: The file's access count (still readable after :meth:`close`,
        #: which frees the buffer).
        self.total_accesses = len(buffer)
        super().__init__(buffer, chunk_size=chunk_size)


def as_trace_source(trace, chunk_size: int = DEFAULT_CHUNK_SIZE):
    """Coerce ``trace`` to a :class:`TraceSource`.

    Objects already exposing ``next_chunk`` pass through untouched; anything
    else is wrapped in an :class:`IteratorSource`.
    """
    if hasattr(trace, "next_chunk"):
        return trace
    return IteratorSource(trace, chunk_size=chunk_size)

