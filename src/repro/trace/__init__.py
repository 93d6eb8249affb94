"""Trace tooling.

The workload generators (:mod:`repro.workloads`) produce traces as columnar
:class:`repro.trace.buffer.TraceBuffer` chunks.  This package provides the
columnar representation itself plus the tooling a trace-driven methodology
needs around those streams:

* :mod:`repro.trace.buffer` -- the structure-of-arrays trace representation
  (parallel ``core``/``pc``/``address``/``is_store``/``instructions`` NumPy
  columns) that flows from the generators through the artifact store into
  the simulator's chunk loop.
* :mod:`repro.trace.io` -- persist traces to disk (a human-readable CSV text
  format, a compact ``.npz`` binary format and a memory-mappable structured
  ``.npy`` format) and load them back, so expensive generator configurations
  can be produced once and replayed across system configurations or shared
  between machines.
* :mod:`repro.trace.stats` -- characterise a trace without simulating it:
  footprint, read/write mix, per-PC and per-region histograms, and a static
  region-density profile comparable to Figure 5.
* :mod:`repro.trace.capture` -- observe a simulation from the inside: an LLC
  agent that records the post-L1 request/eviction stream so the off-chip
  behaviour of a run can itself be saved, inspected and replayed.
* :mod:`repro.trace.source` -- the ``TraceSource`` protocol every producer
  speaks (``next_chunk()``): adapters over buffers and chunk iterators, and
  the :class:`IngestSource` replay path for captured trace files.
"""

from repro.trace.buffer import DEFAULT_CHUNK_SIZE, TraceBuffer, as_chunk_iterator
from repro.trace.capture import LLCTraceRecorder
from repro.trace.source import (
    IngestSource,
    IteratorSource,
    TraceSource,
    as_trace_source,
)
from repro.trace.io import load_trace_buffer, save_trace
from repro.trace.stats import TraceStatistics, characterize_trace

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "IngestSource",
    "IteratorSource",
    "LLCTraceRecorder",
    "TraceBuffer",
    "TraceSource",
    "TraceStatistics",
    "as_chunk_iterator",
    "as_trace_source",
    "characterize_trace",
    "load_trace_buffer",
    "save_trace",
]
