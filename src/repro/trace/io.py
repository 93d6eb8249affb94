"""Trace persistence: the single save/load codec for every on-disk format.

Three formats are supported, selected by file extension:

* ``.csv`` / ``.txt`` -- one access per line,
  ``core,pc,address,type,instructions`` with a ``#``-prefixed header.  Easy to
  inspect, diff and generate from external tools.
* ``.npz`` -- NumPy compressed arrays (one array per
  :class:`~repro.trace.buffer.TraceBuffer` column).  Roughly an order of
  magnitude smaller and faster for multi-million-access traces.
* ``.npy`` -- one structured record array
  (:data:`repro.trace.buffer.TRACE_RECORD_DTYPE`).  Uncompressed but
  **memory-mappable**: :func:`load_trace_buffer` with ``mmap=True`` opens the
  columns zero-copy straight out of the page cache, which is how the
  campaign artifact store ships traces between worker processes.

Saving accepts either a columnar :class:`TraceBuffer` or any iterable of
boxed :class:`Access` records; loading returns a :class:`TraceBuffer` via
:func:`load_trace_buffer` (the canonical API) or a boxed list via
:func:`load_trace` (compatibility).  All formats round-trip exactly:
``load_trace_buffer(save_trace(trace, path))`` reproduces the original
field-for-field.

Binary formats are checked at load: every stored column must cast *safely*
(``np.can_cast(..., casting="safe")``) to its :data:`TRACE_DTYPES` type.
Narrower types widen exactly and load; a float ``core``, a float
``instructions`` or a signed ``address`` column is rejected with a
``ValueError`` instead of being truncated or wrapped.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, Iterable, List, Union

import numpy as np

from repro.common.request import Access, AccessType
from repro.trace.buffer import TRACE_DTYPES, TRACE_FIELDS, TraceBuffer

_CSV_HEADER = ["core", "pc", "address", "type", "instructions"]
_CSV_SUFFIXES = {".csv", ".txt"}
_NPZ_SUFFIXES = {".npz"}
_NPY_SUFFIXES = {".npy"}

TraceLike = Union[TraceBuffer, Iterable[Access]]


def _as_path(path: Union[str, Path]) -> Path:
    return path if isinstance(path, Path) else Path(path)


def save_trace(trace: TraceLike, path: Union[str, Path]) -> Path:
    """Write a trace to ``path``; the format follows the file extension.

    Returns the path written, for call chaining.  Raises ``ValueError`` for
    unsupported extensions so typos do not silently produce empty files.
    """
    path = _as_path(path)
    if path.suffix in _CSV_SUFFIXES:
        _save_csv(trace, path)
    elif path.suffix in _NPZ_SUFFIXES:
        _save_npz(TraceBuffer.coerce(trace), path)
    elif path.suffix in _NPY_SUFFIXES:
        _save_npy(TraceBuffer.coerce(trace), path)
    else:
        raise ValueError(
            f"unsupported trace format {path.suffix!r}; use .csv, .txt, .npz or .npy"
        )
    return path


def load_trace_buffer(path: Union[str, Path], mmap: bool = False) -> TraceBuffer:
    """Read a trace previously written by :func:`save_trace` as a buffer.

    ``mmap=True`` memory-maps the columns instead of reading them (only the
    ``.npy`` structured layout supports this; other formats load normally).
    """
    path = _as_path(path)
    if not path.exists():
        raise FileNotFoundError(f"trace file {path} does not exist")
    if path.suffix in _CSV_SUFFIXES:
        return TraceBuffer.from_accesses(_load_csv(path))
    if path.suffix in _NPZ_SUFFIXES:
        return _load_npz(path)
    if path.suffix in _NPY_SUFFIXES:
        return _load_npy(path, mmap=mmap)
    raise ValueError(
        f"unsupported trace format {path.suffix!r}; use .csv, .txt, .npz or .npy"
    )


def load_trace(path: Union[str, Path]) -> List[Access]:
    """Read a trace as boxed :class:`Access` records (compatibility API)."""
    path = _as_path(path)
    if not path.exists():
        raise FileNotFoundError(f"trace file {path} does not exist")
    if path.suffix in _CSV_SUFFIXES:
        return _load_csv(path)
    return load_trace_buffer(path).to_accesses()


# --------------------------------------------------------------------- #
# CSV format
# --------------------------------------------------------------------- #
def _save_csv(trace: TraceLike, path: Path) -> None:
    with path.open("w", newline="") as handle:
        handle.write("# " + ",".join(_CSV_HEADER) + "\n")
        writer = csv.writer(handle)
        for access in trace:
            writer.writerow([
                access.core,
                f"0x{access.pc:x}",
                f"0x{access.address:x}",
                "S" if access.is_store else "L",
                access.instructions,
            ])


def _load_csv(path: Path) -> List[Access]:
    trace: List[Access] = []
    with path.open(newline="") as handle:
        reader = csv.reader(line for line in handle if not line.startswith("#"))
        for row in reader:
            if not row:
                continue
            if len(row) != len(_CSV_HEADER):
                raise ValueError(f"malformed trace row in {path}: {row!r}")
            core, pc, address, kind, instructions = row
            if kind not in ("L", "S"):
                raise ValueError(f"unknown access type {kind!r} in {path}")
            trace.append(Access(
                core=int(core),
                pc=int(pc, 0),
                address=int(address, 0),
                type=AccessType.STORE if kind == "S" else AccessType.LOAD,
                instructions=int(instructions),
            ))
    return trace


# --------------------------------------------------------------------- #
# NPZ format (compressed, one array per column)
# --------------------------------------------------------------------- #
def _save_npz(buffer: TraceBuffer, path: Path) -> None:
    np.savez_compressed(
        path, **{name: getattr(buffer, name) for name in TRACE_FIELDS})


def _check_stored_dtypes(path: Path, stored: Dict[str, np.dtype]) -> None:
    """Reject stored trace columns that do not cast safely to the schema.

    :class:`TraceBuffer` converts with ``np.asarray``, which truncates
    floats (core 1.9 loads as 1) and wraps negative integers into unsigned
    columns (address -64 loads as 2**64 - 64); files must already hold the
    schema's types or ones that widen into them exactly.
    """
    for name, dtype in stored.items():
        required = TRACE_DTYPES.get(name)
        if required is not None and not np.can_cast(dtype, required,
                                                     casting="safe"):
            raise ValueError(
                f"trace file {path}: column {name!r} is stored as {dtype}, "
                f"which does not cast safely to the required {required}")


def _load_npz(path: Path) -> TraceBuffer:
    with np.load(path) as data:
        missing = set(TRACE_FIELDS) - set(data.files)
        if missing:
            raise ValueError(f"trace file {path} is missing arrays: {sorted(missing)}")
        columns = {name: data[name] for name in TRACE_FIELDS}
    _check_stored_dtypes(path, {name: column.dtype
                                for name, column in columns.items()})
    return TraceBuffer(**columns)


# --------------------------------------------------------------------- #
# NPY format (uncompressed structured records, memory-mappable)
# --------------------------------------------------------------------- #
def _save_npy(buffer: TraceBuffer, path: Path) -> None:
    np.save(path, buffer.to_structured(), allow_pickle=False)


def _load_npy(path: Path, mmap: bool = False) -> TraceBuffer:
    records = np.load(path, mmap_mode="r" if mmap else None, allow_pickle=False)
    if records.dtype.names is None:
        raise ValueError(f"trace file {path} does not hold structured records")
    _check_stored_dtypes(path, {name: records.dtype[name]
                                for name in records.dtype.names})
    return TraceBuffer.from_structured(records)
