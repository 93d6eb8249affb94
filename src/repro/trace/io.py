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

:func:`save_trace` writes a :class:`TraceBuffer` and
:func:`load_trace_buffer` reads one back.  All formats round-trip exactly:
``load_trace_buffer(save_trace(trace, path))`` reproduces the original
field-for-field.

Every format is checked at load, so a value is never truncated or wrapped
into its column:

* binary formats: every stored column must cast *safely*
  (``np.can_cast(..., casting="safe")``) to its :data:`TRACE_DTYPES` type.
  Narrower types widen exactly and load; a float ``core``, a float
  ``instructions`` or a signed ``address`` column is rejected;
* CSV: every numeric field must parse as an integer that fits its column's
  dtype.  The error names the file, the line, the column and the value.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, Iterator, TextIO, Union

import numpy as np

from repro.trace.buffer import TRACE_DTYPES, TRACE_FIELDS, TraceBuffer

_CSV_HEADER = ["core", "pc", "address", "type", "instructions"]
#: Integer base and inclusive dtype range of each numeric CSV field.
_CSV_INTEGERS = {
    name: (base, int(np.iinfo(TRACE_DTYPES[name]).min),
           int(np.iinfo(TRACE_DTYPES[name]).max))
    for name, base in (("core", 10), ("pc", 0), ("address", 0),
                       ("instructions", 10))
}
_CSV_SUFFIXES = {".csv", ".txt"}
_NPZ_SUFFIXES = {".npz"}
_NPY_SUFFIXES = {".npy"}


def _as_path(path: Union[str, Path]) -> Path:
    return path if isinstance(path, Path) else Path(path)


def save_trace(trace: TraceBuffer, path: Union[str, Path]) -> Path:
    """Write a trace to ``path``; the format follows the file extension.

    Returns the path written, for call chaining.  Raises ``TypeError`` for
    anything but a :class:`TraceBuffer` and ``ValueError`` for unsupported
    extensions, so typos do not silently produce empty files.
    """
    if not isinstance(trace, TraceBuffer):
        raise TypeError(
            f"save_trace needs a TraceBuffer, got {type(trace).__name__} "
            f"(join a chunk stream with TraceBuffer.concat)")
    path = _as_path(path)
    if path.suffix in _CSV_SUFFIXES:
        _save_csv(trace, path)
    elif path.suffix in _NPZ_SUFFIXES:
        _save_npz(trace, path)
    elif path.suffix in _NPY_SUFFIXES:
        _save_npy(trace, path)
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
        return _load_csv(path)
    if path.suffix in _NPZ_SUFFIXES:
        return _load_npz(path)
    if path.suffix in _NPY_SUFFIXES:
        return _load_npy(path, mmap=mmap)
    raise ValueError(
        f"unsupported trace format {path.suffix!r}; use .csv, .txt, .npz or .npy"
    )


# --------------------------------------------------------------------- #
# CSV format
# --------------------------------------------------------------------- #
def _save_csv(buffer: TraceBuffer, path: Path) -> None:
    core, pc, address, is_store, instructions = buffer.columns_as_lists()
    with path.open("w", newline="") as handle:
        handle.write("# " + ",".join(_CSV_HEADER) + "\n")
        csv.writer(handle).writerows(
            (c, f"0x{p:x}", f"0x{a:x}", "S" if s else "L", n)
            for c, p, a, s, n in zip(core, pc, address, is_store, instructions))


def _load_csv(path: Path) -> TraceBuffer:
    columns = {name: [] for name in TRACE_FIELDS}
    line = 0

    def data_lines(handle: TextIO) -> Iterator[str]:
        nonlocal line
        for line, text in enumerate(handle, start=1):
            if not text.startswith("#"):
                yield text

    with path.open(newline="") as handle:
        for row in csv.reader(data_lines(handle)):
            if not row:
                continue
            if len(row) != len(_CSV_HEADER):
                raise ValueError(
                    f"malformed trace row in {path}, line {line}: {row!r}")
            for name, text in zip(_CSV_HEADER, row):
                if name == "type":
                    if text not in ("L", "S"):
                        raise ValueError(f"unknown access type {text!r} in "
                                         f"{path}, line {line}")
                    columns["is_store"].append(text == "S")
                else:
                    columns[name].append(_csv_integer(path, line, name, text))
    return TraceBuffer(**columns)


def _csv_integer(path: Path, line: int, name: str, text: str) -> int:
    """Parse one numeric CSV field, rejecting values its column cannot hold."""
    base, low, high = _CSV_INTEGERS[name]
    try:
        value = int(text, base)
    except ValueError:
        raise ValueError(
            f"trace file {path}, line {line}: column {name!r} holds {text!r}, "
            f"which is not an integer") from None
    if not low <= value <= high:
        raise ValueError(
            f"trace file {path}, line {line}: column {name!r} holds {text!r}, "
            f"which does not fit the required {TRACE_DTYPES[name]}")
    return value


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
