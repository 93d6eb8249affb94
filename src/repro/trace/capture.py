"""Capture the post-L1 request stream of a simulation.

:class:`LLCTraceRecorder` is a passive :class:`repro.cache.agent.LLCAgent`: it
requests no traffic, it only records what it observes.  Attached to a
:class:`repro.sim.system.ServerSystem` (through the ``extra_agents`` hook of
the runner or by appending to ``system.agents`` before the run), it produces
the LLC-level trace -- demand requests with their PCs plus the eviction
stream -- which is exactly the input BuMP's structures see in hardware.

Recordings are held **columnar**: each stream accumulates into fixed-size
NumPy blocks (a few bytes per record instead of a boxed Python object), so a
million-access recording costs tens of megabytes, not gigabytes.  The boxed
``accesses`` / ``misses`` / ``evictions`` views materialize on demand for
inspection; the bounded-memory path is the columnar one --
:meth:`LLCTraceRecorder.miss_trace_buffer` yields the miss stream as a
:class:`~repro.trace.buffer.TraceBuffer` and
:meth:`LLCTraceRecorder.export` writes it through the ``trace/io`` codec,
ready for ``repro trace ingest`` / :class:`repro.trace.source.IngestSource`.

That makes two workflows possible without re-running the front half of the
simulator:

* replaying the recorded LLC miss stream directly against a memory-system
  model when iterating on controller policies;
* feeding recorded request/eviction streams to a predictor in isolation
  (the RDTT/BHT/DRT unit tests use hand-built streams; the integration tests
  use recorded ones).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.common.stats import StatGroup
from repro.cache.agent import FLAG_DIRTY, FLAG_PREFETCHED, FLAG_USED, LLCAgent
from repro.trace.buffer import TRACE_DTYPES, TraceBuffer


@dataclass
class RecordedAccess:
    """One observed LLC demand request."""

    core: int
    pc: int
    block_address: int
    is_store: bool
    hit: bool


@dataclass
class RecordedEviction:
    """One observed LLC eviction."""

    block_address: int
    dirty: bool
    prefetched: bool
    used: bool


#: Rows per storage block.  Blocks are allocated whole, so this is also the
#: minimum footprint of a non-empty stream; 8192 rows keep the allocation
#: rate negligible while wasting at most one partial block per stream.
_BLOCK_ROWS = 8192


class _ColumnarLog:
    """Append-only columnar record log, growing in fixed-size blocks.

    The per-record cost is a handful of NumPy scalar stores -- no object
    allocation -- and reading back a column concatenates the trimmed blocks.
    """

    def __init__(self, fields: Sequence[Tuple[str, type]],
                 block_rows: int = _BLOCK_ROWS) -> None:
        self._fields = tuple(fields)
        self._block_rows = block_rows
        self._blocks: List[Dict[str, np.ndarray]] = []
        self._cursor = block_rows  # forces a block on the first append
        self._length = 0

    def __len__(self) -> int:
        return self._length

    def append(self, values: tuple) -> None:
        if self._cursor == self._block_rows:
            self._blocks.append({
                name: np.empty(self._block_rows, dtype=dtype)
                for name, dtype in self._fields
            })
            self._cursor = 0
        block = self._blocks[-1]
        cursor = self._cursor
        for (name, _), value in zip(self._fields, values):
            block[name][cursor] = value
        self._cursor = cursor + 1
        self._length += 1

    def column(self, name: str) -> np.ndarray:
        """One field over every record, oldest first (a fresh array)."""
        if not self._blocks:
            dtype = dict(self._fields)[name]
            return np.empty(0, dtype=dtype)
        parts = [block[name] for block in self._blocks[:-1]]
        parts.append(self._blocks[-1][name][:self._cursor])
        return np.concatenate(parts) if len(parts) > 1 else parts[0].copy()

    def clear(self) -> None:
        self._blocks.clear()
        self._cursor = self._block_rows
        self._length = 0


_ACCESS_FIELDS = (
    ("core", np.int32),
    ("pc", np.uint64),
    ("block_address", np.uint64),
    ("is_store", np.bool_),
    ("hit", np.bool_),
)
_EVICTION_FIELDS = (
    ("block_address", np.uint64),
    ("dirty", np.bool_),
    ("prefetched", np.bool_),
    ("used", np.bool_),
)


class LLCTraceRecorder(LLCAgent):
    """Passive agent that records the LLC access, miss and eviction streams.

    ``capacity`` bounds each stream independently; records beyond it are
    counted in ``stats["dropped_records"]`` instead of stored, so attaching a
    recorder can never make a run's memory unbounded.  The
    ``*_recorded`` counts cover stored records only.
    """

    name = "llc_recorder"

    def __init__(self, capacity: int = 1_000_000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._accesses = _ColumnarLog(_ACCESS_FIELDS)
        self._misses = _ColumnarLog(_ACCESS_FIELDS)
        self._evictions = _ColumnarLog(_EVICTION_FIELDS)
        self._access_misses = 0
        self.stats = StatGroup("llc_recorder")

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #
    def _record(self, target: _ColumnarLog, values: tuple) -> bool:
        if len(target) < self.capacity:
            target.append(values)
            return True
        self.stats.inc("dropped_records")
        return False

    def on_access(self, core: int, pc: int, block: int, is_store: bool,
                  hit: bool) -> None:
        """Record a demand access."""
        if self._record(self._accesses, (core, pc, block, is_store, hit)):
            self.stats.inc("accesses_recorded")
            if not hit:
                self._access_misses += 1

    def on_miss(self, core: int, pc: int, block: int, is_store: bool) -> None:
        """Record a demand miss."""
        if self._record(self._misses, (core, pc, block, is_store, False)):
            self.stats.inc("misses_recorded")

    def on_eviction(self, block: int, flags: int) -> None:
        """Record an eviction as ``(block, dirty, prefetched, used)``."""
        if self._record(self._evictions, (
                block, bool(flags & FLAG_DIRTY), bool(flags & FLAG_PREFETCHED),
                bool(flags & FLAG_USED))):
            self.stats.inc("evictions_recorded")

    # ------------------------------------------------------------------ #
    # Boxed views (materialized on demand; sized for inspection, not bulk)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _boxed_accesses(log: _ColumnarLog) -> List[RecordedAccess]:
        return [
            RecordedAccess(core=int(core), pc=int(pc),
                           block_address=int(address),
                           is_store=bool(store), hit=bool(hit))
            for core, pc, address, store, hit in zip(
                log.column("core"), log.column("pc"),
                log.column("block_address"), log.column("is_store"),
                log.column("hit"))
        ]

    @property
    def accesses(self) -> List[RecordedAccess]:
        """The recorded demand accesses as boxed records (a fresh list)."""
        return self._boxed_accesses(self._accesses)

    @property
    def misses(self) -> List[RecordedAccess]:
        """The recorded demand misses as boxed records (a fresh list)."""
        return self._boxed_accesses(self._misses)

    @property
    def evictions(self) -> List[RecordedEviction]:
        """The recorded evictions as boxed records (a fresh list)."""
        return [
            RecordedEviction(block_address=int(address), dirty=bool(dirty),
                             prefetched=bool(prefetched), used=bool(used))
            for address, dirty, prefetched, used in zip(
                self._evictions.column("block_address"),
                self._evictions.column("dirty"),
                self._evictions.column("prefetched"),
                self._evictions.column("used"))
        ]

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def miss_trace_buffer(self) -> TraceBuffer:
        """The recorded miss stream as a columnar :class:`TraceBuffer`.

        Core, PC and block address are preserved; the instruction count is
        set to 1 because the spacing information lives in the original
        trace, not at the LLC.  This is the bounded-memory export path: no
        boxed records are materialized.
        """
        count = len(self._misses)
        return TraceBuffer(
            core=self._misses.column("core").astype(TRACE_DTYPES["core"],
                                                    copy=False),
            pc=self._misses.column("pc").astype(TRACE_DTYPES["pc"],
                                                copy=False),
            address=self._misses.column("block_address").astype(
                TRACE_DTYPES["address"], copy=False),
            is_store=self._misses.column("is_store").astype(
                TRACE_DTYPES["is_store"], copy=False),
            instructions=np.ones(count, dtype=TRACE_DTYPES["instructions"]),
        )

    def export(self, path):
        """Write the miss stream through the trace codec; returns the path.

        The file round-trips through :func:`repro.trace.io.load_trace_buffer`
        and replays through :class:`repro.trace.source.IngestSource` (or
        ``repro trace ingest``) bit-for-bit.
        """
        from repro.trace.io import save_trace

        return save_trace(self.miss_trace_buffer(), path)

    @property
    def llc_miss_ratio(self) -> float:
        """Fraction of recorded demand accesses that missed."""
        if not len(self._accesses):
            return 0.0
        return self._access_misses / len(self._accesses)

    def clear(self) -> None:
        """Drop everything recorded so far (the capacity budget resets too)."""
        self._accesses.clear()
        self._misses.clear()
        self._evictions.clear()
        self._access_misses = 0
        self.stats.reset()
