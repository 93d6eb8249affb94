"""Round-trip equivalence of the columnar trace pipeline.

Covers :class:`TraceBuffer` columns <-> on-disk ``.npz``/``.npy``
artifacts, the chunk-size invariance of the streaming generator, the chunk
normalisation every trace input goes through, and the artifact store's
columnar trace format.
"""

import numpy as np
import pytest

from repro.exec.store import ArtifactStore
from repro.trace.buffer import (
    DEFAULT_CHUNK_SIZE,
    TRACE_DTYPES,
    TRACE_FIELDS,
    TraceBuffer,
    as_chunk_iterator,
)
from repro.trace.io import load_trace_buffer, save_trace
from repro.workloads.catalog import get_workload, workload_names
from repro.workloads.generator import generate_trace_buffer, iter_trace_chunks

SAMPLE_ROWS = [
    # core, pc, address, is_store, instructions
    (0, 0x400010, 0x1234_5678, False, 3),
    (5, 0x500020, 0xdead_bee8, True, 12),
    (15, 0x600030, 0, False, 1),
]


def _sample_buffer(rows=SAMPLE_ROWS):
    return TraceBuffer(*(list(column) for column in zip(*rows)))


# --------------------------------------------------------------------- #
# Construction, views and equality
# --------------------------------------------------------------------- #
def test_accesses_round_trip_through_buffer():
    buffer = _sample_buffer()
    assert len(buffer) == len(SAMPLE_ROWS)
    assert list(zip(*buffer.columns_as_lists())) == SAMPLE_ROWS
    assert buffer.store_fraction == pytest.approx(1 / 3)
    assert buffer.total_instructions == 16
    assert buffer != _sample_buffer(SAMPLE_ROWS[:2])


def test_buffer_indexing_and_views():
    buffer = _sample_buffer()
    view = buffer[1:]
    assert isinstance(view, TraceBuffer)
    assert view == _sample_buffer(SAMPLE_ROWS[1:])
    # Slices are zero-copy views over the same column memory.
    assert view.address.base is not None
    with pytest.raises(TypeError, match="slice the buffer"):
        buffer[1]
    with pytest.raises(TypeError):
        iter(buffer)


def test_empty_buffer_behaviour():
    empty = TraceBuffer.empty()
    assert len(empty) == 0
    assert empty.columns_as_lists() == ([], [], [], [], [])
    assert empty.store_fraction == 0.0
    assert TraceBuffer.concat([]) == empty


def test_concat_matches_list_concatenation():
    first = _sample_buffer(SAMPLE_ROWS[:1])
    rest = _sample_buffer(SAMPLE_ROWS[1:])
    assert TraceBuffer.concat([first, rest]) == _sample_buffer(
        SAMPLE_ROWS[:1] + SAMPLE_ROWS[1:])


def test_mismatched_column_lengths_rejected():
    with pytest.raises(ValueError):
        TraceBuffer(np.zeros(2, dtype=np.int32), np.zeros(3, dtype=np.uint64),
                    np.zeros(2, dtype=np.uint64), np.zeros(2, dtype=bool),
                    np.ones(2, dtype=np.int32))


@pytest.mark.parametrize("shape", [(4, 1), ()], ids=["Nx1", "0-d"])
@pytest.mark.parametrize("name", TRACE_FIELDS)
def test_column_that_is_not_one_dimensional_is_refused(name, shape):
    columns = {field: np.zeros(4, dtype=TRACE_DTYPES[field])
               for field in TRACE_FIELDS}
    columns[name] = np.zeros(shape, dtype=TRACE_DTYPES[name])
    with pytest.raises(ValueError) as err:
        TraceBuffer(**columns)
    assert str(err.value) == (f"column {name!r} has shape {shape}, "
                              "expected one dimension")


def test_from_structured_rejects_wrong_schema():
    records = np.zeros(2, dtype=[("core", np.int32), ("pc", np.uint64)])
    with pytest.raises(ValueError):
        TraceBuffer.from_structured(records)


def test_structured_round_trip():
    buffer = _sample_buffer()
    assert TraceBuffer.from_structured(buffer.to_structured()) == buffer


# --------------------------------------------------------------------- #
# Buffer <-> disk round trips
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("suffix", [".csv", ".npz", ".npy"])
def test_buffer_round_trips_through_every_format(tmp_path, suffix):
    buffer = generate_trace_buffer(get_workload("web_search"), 1500,
                                   num_cores=4, seed=11)
    path = save_trace(buffer, tmp_path / f"trace{suffix}")
    assert load_trace_buffer(path) == buffer


def test_npy_round_trip_supports_memory_mapping(tmp_path):
    buffer = _sample_buffer()
    path = save_trace(buffer, tmp_path / "trace.npy")
    mapped = load_trace_buffer(path, mmap=True)
    assert mapped == buffer
    # Memory-mapped columns are views into the file, not copies.
    assert isinstance(mapped.core.base, np.memmap) or isinstance(
        mapped.core, np.memmap)


# --------------------------------------------------------------------- #
# Generator chunk invariance
# --------------------------------------------------------------------- #
def test_chunked_generation_is_chunk_size_invariant():
    spec = get_workload("online_analytics")
    whole = generate_trace_buffer(spec, 5000, num_cores=4, seed=9)
    for chunk_size in (1, 7, 512, 5000, DEFAULT_CHUNK_SIZE):
        chunks = list(iter_trace_chunks(spec, 5000, num_cores=4, seed=9,
                                        chunk_size=chunk_size))
        assert sum(len(c) for c in chunks) == 5000
        assert TraceBuffer.concat(chunks) == whole


@pytest.mark.parametrize("workload", workload_names())
def test_every_workload_round_trips_buffer_npz(tmp_path, workload):
    """TraceBuffer <-> .npz identity for all six workloads."""
    buffer = generate_trace_buffer(get_workload(workload), 600, num_cores=4, seed=42)
    path = save_trace(buffer, tmp_path / f"{workload}.npz")
    assert load_trace_buffer(path) == buffer


# --------------------------------------------------------------------- #
# Chunk normalisation
# --------------------------------------------------------------------- #
def test_as_chunk_iterator_accepts_every_trace_shape():
    buffer = generate_trace_buffer(get_workload("web_search"), 300, num_cores=2, seed=1)
    shapes = [
        buffer,
        buffer.iter_chunks(64),
        list(buffer.iter_chunks(64)),
        tuple(buffer.iter_chunks(64)),
    ]
    for shape in shapes:
        assert TraceBuffer.concat(list(as_chunk_iterator(shape, chunk_size=50))) == buffer
    assert list(as_chunk_iterator([])) == []


# --------------------------------------------------------------------- #
# Artifact store columnar format
# --------------------------------------------------------------------- #
def test_store_trace_round_trip_is_columnar_and_mmapped(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    buffer = generate_trace_buffer(get_workload("web_serving"), 700, num_cores=4, seed=2)
    path = store.put_trace("a" * 32, buffer)
    assert path.suffix == ".npy"
    loaded = store.get_trace("a" * 32)
    assert isinstance(loaded, TraceBuffer)
    assert loaded == buffer


def test_store_rejects_torn_trace_artifact(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    buffer = _sample_buffer()
    path = store.put_trace("b" * 32, buffer)
    path.write_bytes(path.read_bytes()[:16])
    assert store.get_trace("b" * 32) is None
    assert store.counters["corrupt"] == 1
    assert not path.exists()


def test_store_rejects_foreign_schema_trace(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    path = store._path("traces", "c" * 32)
    np.save(path, np.zeros(4, dtype=[("x", np.int32)]), allow_pickle=False)
    assert store.get_trace("c" * 32) is None
    assert store.counters["corrupt"] == 1


def test_buffer_fields_constant():
    # The on-disk schema is frozen; changing it requires a store format bump.
    assert TRACE_FIELDS == ("core", "pc", "address", "is_store", "instructions")
