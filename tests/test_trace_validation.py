"""Malformed trace rows are rejected at the run loop with a clean error.

Without the check a negative core silently simulates as the core Python's
negative indexing selects, an out-of-range core dies inside the chunk loop, a
negative instruction gap runs with a negative IPC, an address at or past
``2**63`` wraps to a negative block address in the chunk decode, and a PC at
or past ``2**63`` (an x86-64 kernel-half PC) wraps in the chunk loop's
``int64`` arithmetic.
"""

import numpy as np
import pytest

from repro.sim.config import base_open
from repro.sim.system import ServerSystem
from repro.trace.buffer import TraceBuffer
from repro.trace.io import save_trace
from repro.trace.source import IngestSource

ROWS = 16
BAD_ROW = 5
MALFORMED = [("core", -1), ("core", 99), ("instructions", -5),
             ("address", 2**63), ("address", 2**64 - 64),
             ("pc", 2**63), ("pc", 2**64 - 4)]


def _trace(column, value):
    """A valid 16-core trace with ``column`` set to ``value`` in one row."""
    rows = np.arange(ROWS)
    columns = {
        "core": (rows % 16).astype(np.int32),
        "pc": np.full(ROWS, 0x400, dtype=np.uint64),
        "address": (rows * 4096).astype(np.uint64),
        "is_store": rows % 3 == 0,
        "instructions": np.ones(ROWS, dtype=np.int32),
    }
    columns[column][BAD_ROW] = value
    return TraceBuffer(**columns)


def _expected(column, value):
    return rf"trace row {BAD_ROW}: column '{column}' is {value}\b"


@pytest.mark.parametrize("column,value", MALFORMED)
def test_malformed_row_in_trace_buffer_raises(column, value):
    system = ServerSystem(base_open())
    with pytest.raises(ValueError, match=_expected(column, value)):
        system.run(_trace(column, value))


@pytest.mark.parametrize("column,value", MALFORMED)
def test_malformed_row_in_ingested_trace_raises(tmp_path, column, value):
    path = save_trace(_trace(column, value), tmp_path / "trace.npy")
    # Four-row chunks put the bad row in the second chunk: the reported row
    # is its position in the whole trace, not in the chunk.
    source = IngestSource(path, chunk_size=4)
    with pytest.raises(ValueError, match=_expected(column, value)):
        ServerSystem(base_open()).run(source)


def test_valid_trace_runs():
    result = ServerSystem(base_open()).run(_trace("core", 3))
    assert result.counters["accesses"] == ROWS


def test_highest_block_below_the_address_limit_runs():
    result = ServerSystem(base_open()).run(_trace("address", 2**63 - 64))
    assert result.counters["accesses"] == ROWS


def test_highest_pc_below_the_limit_runs():
    system = ServerSystem(base_open())
    result = system.run(_trace("pc", 2**63 - 4))
    assert result.counters["accesses"] == ROWS
