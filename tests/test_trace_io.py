"""Tests for trace persistence (CSV, NPZ and NPY round-trips and load checks)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.buffer import TRACE_DTYPES, TRACE_RECORD_DTYPE, TraceBuffer
from repro.trace.io import load_trace_buffer, save_trace
from repro.workloads.catalog import get_workload
from repro.workloads.generator import generate_trace_buffer

CSV_HEADER = "# core,pc,address,type,instructions\n"


def make_trace(rows=None):
    """A trace from ``(core, pc, address, is_store, instructions)`` rows."""
    if rows is None:
        rows = [(0, 0x400010, 0x1234_5678, False, 3),
                (5, 0x500020, 0xdead_beef & ~0x7, True, 12),
                (15, 0x600030, 0, False, 1)]
    if not rows:
        return TraceBuffer.empty()
    return TraceBuffer(*(list(column) for column in zip(*rows)))


@pytest.mark.parametrize("suffix", [".csv", ".txt", ".npz", ".npy"])
def test_round_trip_preserves_every_field(tmp_path, suffix):
    trace = make_trace()
    path = save_trace(trace, tmp_path / f"trace{suffix}")
    assert load_trace_buffer(path) == trace


def test_csv_file_is_human_readable(tmp_path):
    path = save_trace(make_trace(), tmp_path / "trace.csv")
    assert path.read_bytes() == (
        b"# core,pc,address,type,instructions\n"
        b"0,0x400010,0x12345678,L,3\r\n"
        b"5,0x500020,0xdeadbee8,S,12\r\n"
        b"15,0x600030,0x0,L,1\r\n")


def test_unknown_extension_is_rejected(tmp_path):
    with pytest.raises(ValueError):
        save_trace(make_trace(), tmp_path / "trace.parquet")
    with pytest.raises(ValueError):
        path = tmp_path / "trace.bin"
        path.write_text("junk")
        load_trace_buffer(path)


def test_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_trace_buffer(tmp_path / "absent.csv")


def test_malformed_csv_row_is_rejected(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text(CSV_HEADER + "1,0x10,0x40,L\n")
    with pytest.raises(ValueError, match="broken.csv, line 2"):
        load_trace_buffer(path)


def test_unknown_access_type_is_rejected(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("# header\n1,0x10,0x40,X,2\n")
    with pytest.raises(ValueError, match="unknown access type 'X'"):
        load_trace_buffer(path)


@pytest.mark.parametrize("row,column,text,problem", [
    ("1,0x10,-64,L,2", "address", "-64", "does not fit the required uint64"),
    ("1,0x10,0x10000000000000000,L,2", "address", "0x10000000000000000",
     "does not fit the required uint64"),
    ("1,-1,0x40,L,2", "pc", "-1", "does not fit the required uint64"),
    ("4294967296,0x10,0x40,L,2", "core", "4294967296",
     "does not fit the required int32"),
    ("1,0x10,0x40,L,3000000000", "instructions", "3000000000",
     "does not fit the required int32"),
    ("1.5,0x10,0x40,L,2", "core", "1.5", "is not an integer"),
    ("1,0x10,0x40,L,two", "instructions", "two", "is not an integer"),
    ("1,0x10,0xg0,L,2", "address", "0xg0", "is not an integer"),
])
def test_csv_value_that_is_not_an_integer_of_its_column_is_rejected(
        tmp_path, row, column, text, problem):
    path = tmp_path / "bad.csv"
    path.write_text(CSV_HEADER + "2,0x10,0x40,S,1\n" + row + "\n")
    expected = f"bad.csv, line 3: column '{column}' holds '{text}', which {problem}"
    with pytest.raises(ValueError, match=expected):
        load_trace_buffer(path)


@pytest.mark.parametrize("suffix", [".csv", ".npz", ".npy"])
@pytest.mark.parametrize("trace", [
    [(0, 0x40, 0x1000, False, 1)],
    [make_trace()],
])
def test_save_rejects_anything_but_a_buffer(tmp_path, suffix, trace):
    path = tmp_path / f"t{suffix}"
    with pytest.raises(TypeError, match="save_trace needs a TraceBuffer, got list"):
        save_trace(trace, path)
    assert not path.exists()


def test_npz_with_missing_arrays_is_rejected(tmp_path):
    path = tmp_path / "broken.npz"
    np.savez(path, core=np.array([1]))
    with pytest.raises(ValueError):
        load_trace_buffer(path)


def _npz_columns(**overrides):
    """Two valid stored rows per column, with ``overrides`` swapped in."""
    columns = {
        "core": np.array([1, 0], dtype=np.int32),
        "pc": np.array([0x400, 0x404], dtype=np.uint64),
        "address": np.array([64, 128], dtype=np.uint64),
        "is_store": np.array([False, True]),
        "instructions": np.array([2, 3], dtype=np.int32),
    }
    columns.update(overrides)
    return columns


@pytest.mark.parametrize("column,values", [
    ("core", [1.9, 0.2]),
    ("instructions", [2.5, 1.0]),
    ("address", [-64, 128]),
])
def test_npz_column_that_does_not_cast_safely_is_rejected(tmp_path, column,
                                                          values):
    stored = np.array(values)
    path = tmp_path / "lossy.npz"
    np.savez(path, **_npz_columns(**{column: stored}))
    expected = (f"lossy.npz: column '{column}' is stored as {stored.dtype}, "
                f"which does not cast safely to the required "
                f"{TRACE_DTYPES[column]}")
    with pytest.raises(ValueError, match=expected):
        load_trace_buffer(path)


def test_structured_npy_with_float_core_is_rejected(tmp_path):
    fields = [(name, "f8" if name == "core" else TRACE_RECORD_DTYPE[name])
              for name in TRACE_RECORD_DTYPE.names]
    records = np.zeros(2, dtype=fields)
    records["core"] = [3.7, 1.0]
    path = tmp_path / "lossy.npy"
    np.save(path, records)
    with pytest.raises(ValueError, match="column 'core' is stored as float64"):
        load_trace_buffer(path)


def test_narrower_stored_columns_widen_exactly(tmp_path):
    path = tmp_path / "narrow.npz"
    np.savez(path, **_npz_columns(core=np.array([1, 0], dtype=np.uint8),
                                  address=np.array([64, 128], dtype=np.uint32),
                                  instructions=np.array([2, 3], dtype=np.int16)))
    buffer = load_trace_buffer(path)
    assert buffer.core.tolist() == [1, 0]
    assert buffer.address.tolist() == [64, 128]
    assert buffer.instructions.tolist() == [2, 3]


def test_empty_trace_round_trips(tmp_path):
    for suffix in (".csv", ".npz"):
        path = save_trace(make_trace([]), tmp_path / f"empty{suffix}")
        assert load_trace_buffer(path) == TraceBuffer.empty()


def test_generated_workload_trace_round_trips_through_npz(tmp_path):
    spec = get_workload("web_search")
    trace = generate_trace_buffer(spec, 2_000, num_cores=4, seed=11)
    loaded = load_trace_buffer(save_trace(trace, tmp_path / "ws.npz"))
    assert loaded == trace


@settings(max_examples=25, deadline=None)
@given(
    records=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**31 - 1),
            st.integers(min_value=0, max_value=2**64 - 1),
            st.integers(min_value=0, max_value=2**64 - 1),
            st.booleans(),
            st.integers(min_value=1, max_value=2**31 - 1),
        ),
        max_size=50,
    ),
    suffix=st.sampled_from([".csv", ".npz"]),
)
def test_property_round_trip_is_identity(tmp_path_factory, records, suffix):
    trace = make_trace(records)
    path = tmp_path_factory.mktemp("traces") / f"t{suffix}"
    loaded = load_trace_buffer(save_trace(trace, path))
    assert loaded == trace
    assert list(zip(*loaded.columns_as_lists())) == records
