"""Edge cases of the fused chunk loop (``ServerSystem._run_chunk_flat``).

Zero-length chunks -- phase-boundary splices, empty streams -- must leave no
trace in the results, and the per-instruction-count cycle-increment memo
must stay bounded however many distinct instruction counts a trace carries.
"""

import numpy as np

from repro.common.addressing import BLOCK_BITS
from repro.exec.campaign import result_fingerprint
from repro.sim.config import base_open
from repro.sim.runner import run_trace
from repro.sim.system import _CYCLE_CACHE_LIMIT, ServerSystem
from repro.trace.buffer import TraceBuffer

CORES = 8


def _random_trace(accesses: int, blocks_per_core: int,
                  store_fraction: float = 0.3, seed: int = 11,
                  cores: int = CORES) -> TraceBuffer:
    """Per-core-disjoint random trace with a controlled footprint."""
    rng = np.random.default_rng(seed)
    core = rng.integers(0, cores, accesses).astype(np.int32)
    offsets = rng.integers(0, blocks_per_core, accesses).astype(np.uint64)
    address = (core.astype(np.uint64) << np.uint64(32)) | \
        (offsets << np.uint64(BLOCK_BITS))
    pc = (rng.integers(0, 64, accesses).astype(np.uint64) << np.uint64(2)) \
        + np.uint64(0x400000)
    is_store = rng.random(accesses) < store_fraction
    instructions = rng.integers(1, 4, accesses).astype(np.int32)
    return TraceBuffer(core, pc, address, is_store, instructions)


class TestChunkEdgeCases:
    def test_zero_length_chunk_is_a_no_op(self):
        system = ServerSystem(base_open())
        before = result_fingerprint(system._collect_results())
        system._run_chunk(TraceBuffer.empty())
        assert result_fingerprint(system._collect_results()) == before

    def test_empty_chunks_in_a_stream_are_invisible(self):
        trace = _random_trace(2_000, blocks_per_core=64)
        config = base_open()
        whole = run_trace(trace, config)
        chunks = []
        for chunk in trace.iter_chunks(500):
            chunks.extend([TraceBuffer.empty(), chunk, TraceBuffer.empty()])
        padded = run_trace(chunks, config)
        assert result_fingerprint(padded) == result_fingerprint(whole)

    def test_cycle_increment_cache_is_bounded(self):
        accesses = 3 * _CYCLE_CACHE_LIMIT
        rng = np.random.default_rng(5)
        core = np.zeros(accesses, dtype=np.int32)
        address = (rng.integers(0, 64, accesses).astype(np.uint64)
                   << np.uint64(BLOCK_BITS))
        pc = np.full(accesses, 0x400000, dtype=np.uint64)
        is_store = np.zeros(accesses, dtype=bool)
        # Every row carries a distinct instruction count, so an unbounded
        # memo would grow to ``accesses`` entries.
        instructions = np.arange(1, accesses + 1, dtype=np.int32)
        trace = TraceBuffer(core, pc, address, is_store, instructions)
        system = ServerSystem(base_open())
        system.run(trace)
        assert len(system._cycle_increment_cache) <= _CYCLE_CACHE_LIMIT
