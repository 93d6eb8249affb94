"""The staged chunk loop (``ServerSystem._run_chunk``).

Zero-length chunks -- phase-boundary splices, empty streams -- must leave no
trace in the results, and the L1 stage must agree with two specifications of
LRU that share no code with it: Mattson's stack property for hits and a
reference LRU of one ordered dict per (core, set) lane
(:class:`repro.fuzz.reference_lru.ReferenceL1`) for dirty victims.
"""

import numpy as np
import pytest

from repro.cache.l1 import StackedL1
from repro.common.addressing import BLOCK_BITS
from repro.common.params import SystemParams
from repro.exec.campaign import result_fingerprint
from repro.fuzz.reference_lru import ReferenceL1
from repro.sim.config import base_open
from repro.sim.runner import run_trace
from repro.sim.system import ServerSystem
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


def _lanes(trace: TraceBuffer, num_sets: int):
    """Per-row (lane, block address) lists; lane = core * num_sets + set."""
    shifted = (trace.address >> np.uint64(BLOCK_BITS)).astype(np.int64)
    lanes = trace.core.astype(np.int64) * num_sets + (shifted & (num_sets - 1))
    return lanes.tolist(), (shifted << BLOCK_BITS).tolist()


def _mattson_hits(trace: TraceBuffer, num_sets: int, ways: int) -> np.ndarray:
    """Per-row hit mask from Mattson's LRU stack property.

    Under LRU a reference hits if and only if fewer than ``ways`` distinct
    blocks of its lane were referenced since its previous reference.
    """
    history = {}     # lane -> blocks referenced so far, in order
    last = {}        # (lane, block) -> index of its latest reference
    hits = np.zeros(len(trace), dtype=bool)
    for row, (lane, block) in enumerate(zip(*_lanes(trace, num_sets))):
        seen = history.setdefault(lane, [])
        previous = last.get((lane, block))
        if previous is not None:
            hits[row] = len(set(seen[previous + 1:])) < ways
        last[(lane, block)] = len(seen)
        seen.append(block)
    return hits


class TestL1StageOracle:
    CASES = [  # (seed, blocks per core, chunk size; None = one chunk)
        (1, 1_024, None),
        (2, 2_048, 3_000),
        (3, 700, 997),
    ]

    @pytest.mark.parametrize("seed,blocks_per_core,chunk_size", CASES)
    def test_l1_stage_matches_lru_specifications(self, seed, blocks_per_core,
                                                 chunk_size):
        params = SystemParams()
        cores = params.num_cores
        num_sets, ways = params.l1d.num_sets, params.l1d.associativity
        trace = _random_trace(12_000, blocks_per_core, seed=seed, cores=cores)
        chunks = list(trace.iter_chunks(chunk_size or len(trace)))

        l1 = StackedL1(params.l1d, cores)
        stage = [l1.access_chunk(
                     chunk.core,
                     ((chunk.address >> np.uint64(BLOCK_BITS))
                      << np.uint64(BLOCK_BITS)).astype(np.int64),
                     chunk.is_store, chunk.pc.astype(np.int64))
                 for chunk in chunks]
        hits, victims, victim_pcs = (np.concatenate(parts)
                                     for parts in zip(*stage))

        expected_hits = _mattson_hits(trace, num_sets, ways)
        assert 0 < expected_hits.sum() < len(trace)
        assert (hits == expected_hits).all()
        reference = ReferenceL1(cores, num_sets, ways)
        _hits, expected, expected_pcs = reference.access_chunk(
            trace.core, ((trace.address >> np.uint64(BLOCK_BITS))
                         << np.uint64(BLOCK_BITS)).astype(np.int64),
            trace.is_store, trace.pc.astype(np.int64))
        assert (expected >= 0).any()
        assert (victims == expected).all()
        assert (np.where(victims >= 0, victim_pcs, 0) == expected_pcs).all()

        result = ServerSystem(base_open()).run(chunks)
        assert result.counters["l1_hits"] == expected_hits.sum()
        assert result.counters["l1_writebacks"] == (expected >= 0).sum()
