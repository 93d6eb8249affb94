"""Columnar structure-of-arrays trace representation.

A :class:`TraceBuffer` holds one access trace as five parallel NumPy arrays
(``core``, ``pc``, ``address``, ``is_store``, ``instructions``).  It is the
only trace shape in the package, from the generators to the simulator:

* the workload generators emit traces as chunks of these arrays (batched
  ``np.random.Generator`` draws, no per-access Python objects);
* the simulator decodes each chunk's columns with ``tolist()``, so the hot
  loop sees plain Python scalars;
* :mod:`repro.trace.io` persists buffers to disk (CSV, compressed ``.npz``
  or a memory-mappable structured ``.npy``) and :mod:`repro.exec.store`
  ships them between campaign workers without pickling.

The dtypes are fixed (and shared with the on-disk formats): ``int32`` cores
and instruction counts, ``uint64`` PCs and addresses, ``bool`` store flags --
25 bytes per access.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

import numpy as np

#: Column names in canonical order (also the on-disk schema).
TRACE_FIELDS: Tuple[str, ...] = ("core", "pc", "address", "is_store", "instructions")

#: Canonical dtype of every column, keyed by field name.
TRACE_DTYPES = {
    "core": np.dtype(np.int32),
    "pc": np.dtype(np.uint64),
    "address": np.dtype(np.uint64),
    "is_store": np.dtype(np.bool_),
    "instructions": np.dtype(np.int32),
}

#: Structured record dtype used by the memory-mappable ``.npy`` layout.
TRACE_RECORD_DTYPE = np.dtype([(name, TRACE_DTYPES[name]) for name in TRACE_FIELDS])

#: Default generator/simulator chunk granularity: large enough to amortize
#: per-chunk Python overhead, small enough to keep streaming memory flat
#: (~1.9MB of columns per chunk).
DEFAULT_CHUNK_SIZE = 65_536


class TraceBuffer:
    """One access trace as five parallel column arrays."""

    __slots__ = ("core", "pc", "address", "is_store", "instructions")

    def __init__(self, core: np.ndarray, pc: np.ndarray, address: np.ndarray,
                 is_store: np.ndarray, instructions: np.ndarray) -> None:
        # asarray (not ascontiguousarray): a matching-dtype column is adopted
        # as-is, so slices stay zero-copy views and the strided columns of a
        # memory-mapped structured record file are used in place.
        self.core = np.asarray(core, dtype=TRACE_DTYPES["core"])
        self.pc = np.asarray(pc, dtype=TRACE_DTYPES["pc"])
        self.address = np.asarray(address, dtype=TRACE_DTYPES["address"])
        self.is_store = np.asarray(is_store, dtype=TRACE_DTYPES["is_store"])
        self.instructions = np.asarray(instructions, dtype=TRACE_DTYPES["instructions"])
        for name in TRACE_FIELDS:
            shape = getattr(self, name).shape
            if len(shape) != 1:
                raise ValueError(
                    f"column {name!r} has shape {shape}, expected one "
                    f"dimension")
            if shape != self.core.shape:
                raise ValueError(
                    f"column {name!r} has {shape[0]} rows, "
                    f"expected {len(self.core)}")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls) -> "TraceBuffer":
        """A zero-length buffer."""
        return cls(*(np.empty(0, dtype=TRACE_DTYPES[name]) for name in TRACE_FIELDS))

    @classmethod
    def from_structured(cls, records: np.ndarray) -> "TraceBuffer":
        """Build a buffer from a structured array with the canonical fields.

        Accepts any array (including a read-only memory map) whose dtype has
        the five trace fields; extra fields are rejected so schema drift is
        caught at load time rather than mid-simulation.
        """
        names = records.dtype.names
        if names is None or set(names) != set(TRACE_FIELDS):
            raise ValueError(
                f"structured trace records need fields {TRACE_FIELDS}, "
                f"got {names}")
        return cls(*(records[name] for name in TRACE_FIELDS))

    @classmethod
    def concat(cls, buffers: Sequence["TraceBuffer"]) -> "TraceBuffer":
        """Concatenate buffers in order (an empty input yields an empty buffer)."""
        buffers = list(buffers)
        if not buffers:
            return cls.empty()
        if len(buffers) == 1:
            return buffers[0]
        return cls(*(np.concatenate([getattr(b, name) for b in buffers])
                     for name in TRACE_FIELDS))

    # ------------------------------------------------------------------ #
    # Sequence protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.core)

    def __getitem__(self, index: slice) -> "TraceBuffer":
        """``buffer[a:b]`` is a zero-copy view; rows are never boxed."""
        if not isinstance(index, slice):
            raise TypeError(
                f"TraceBuffer rows are not addressable one at a time "
                f"(got index {index!r}): slice the buffer, index a column "
                f"array, or decode with columns_as_lists()")
        return TraceBuffer(*(getattr(self, name)[index] for name in TRACE_FIELDS))

    #: Rows are not iterable either (``None`` disables the protocol, so
    #: ``iter(buffer)`` fails at once instead of falling back to indexing).
    __iter__ = None

    def __eq__(self, other) -> bool:
        if isinstance(other, TraceBuffer):
            return all(np.array_equal(getattr(self, name), getattr(other, name))
                       for name in TRACE_FIELDS)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceBuffer({len(self)} accesses, {self.nbytes} bytes)"

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def columns_as_lists(self) -> Tuple[list, list, list, list, list]:
        """Decode every column to plain Python scalars in one pass.

        ``tolist()`` yields native ``int``/``bool`` values (no ``uint64``
        wraparound surprises); the CSV writer calls this.
        """
        return (self.core.tolist(), self.pc.tolist(), self.address.tolist(),
                self.is_store.tolist(), self.instructions.tolist())

    def to_structured(self) -> np.ndarray:
        """Pack the columns into one structured record array (for ``.npy``)."""
        records = np.empty(len(self), dtype=TRACE_RECORD_DTYPE)
        for name in TRACE_FIELDS:
            records[name] = getattr(self, name)
        return records

    def iter_chunks(self, chunk_size: int = DEFAULT_CHUNK_SIZE
                    ) -> Iterator["TraceBuffer"]:
        """Yield zero-copy windows of at most ``chunk_size`` rows."""
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        for start in range(0, len(self), chunk_size):
            yield self[start:start + chunk_size]

    # ------------------------------------------------------------------ #
    # Characterisation
    # ------------------------------------------------------------------ #
    @property
    def nbytes(self) -> int:
        """Total size of the column arrays in bytes."""
        return sum(getattr(self, name).nbytes for name in TRACE_FIELDS)

    @property
    def store_fraction(self) -> float:
        """Fraction of accesses that are stores."""
        if len(self) == 0:
            return 0.0
        return float(np.count_nonzero(self.is_store)) / len(self)

    @property
    def total_instructions(self) -> int:
        """Sum of per-access instruction counts."""
        return int(self.instructions.sum(dtype=np.int64))


#: The trace shapes the simulator accepts, for error messages.
_ACCEPTED_SHAPES = ("a TraceBuffer, an iterable of TraceBuffer chunks, "
                    "a Scenario or a TraceSource")


def _not_a_chunk(item) -> TypeError:
    return TypeError(
        f"trace chunks must be TraceBuffer instances, got "
        f"{type(item).__name__}; the simulator accepts {_ACCEPTED_SHAPES}")


def as_chunk_iterator(trace, chunk_size: int = DEFAULT_CHUNK_SIZE
                      ) -> Iterator[TraceBuffer]:
    """Normalise a trace to an iterator of :class:`TraceBuffer` chunks.

    Accepts a :class:`TraceBuffer` (windowed into ``chunk_size`` views), a
    list or tuple of buffers, or an iterator of buffers (both passed through
    chunk for chunk).  Any other item raises ``TypeError``: sequences are
    checked up front, iterators as each item is drawn.
    """
    if isinstance(trace, TraceBuffer):
        return trace.iter_chunks(chunk_size)
    if isinstance(trace, (list, tuple)):
        for item in trace:
            if not isinstance(item, TraceBuffer):
                raise _not_a_chunk(item)
        return iter(trace)
    try:
        iterator = iter(trace)
    except TypeError:
        raise TypeError(
            f"cannot read a trace from {type(trace).__name__}; the simulator "
            f"accepts {_ACCEPTED_SHAPES}") from None

    def checked() -> Iterator[TraceBuffer]:
        try:
            for chunk in iterator:
                if not isinstance(chunk, TraceBuffer):
                    raise _not_a_chunk(chunk)
                yield chunk
        finally:
            # Closing the check closes the producer it wraps.
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    return checked()
