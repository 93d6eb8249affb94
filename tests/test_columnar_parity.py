"""Parity guards for the columnar trace pipeline.

Chunk-size invariance: for every named paper configuration and every
workload at the default seed, simulating the trace in small chunks
(misaligned with the warmup boundary) produces a :class:`SimulationResult`
*identical* -- full content fingerprint, every counter -- to simulating the
whole buffer as one chunk.  The whole-buffer results are the registry's
``columnar`` cells (``test_golden_pins``), so each chunked run is held to
its pin.
"""

import pytest

from test_golden_pins import (
    COLUMNAR_ACCESSES,
    SMALL_LLC,
    columnar_cell,
    pinned,
)

from repro.exec.campaign import result_fingerprint
from repro.sim.config import named_configs
from repro.sim.runner import (
    DEFAULT_SEED,
    build_trace,
    run_trace,
    run_workload,
)
from repro.trace.buffer import DEFAULT_CHUNK_SIZE
from repro.workloads.catalog import workload_names

ACCESSES = 3_000
CORES = 8
WARMUP = 0.4
CHUNK = 256  # deliberately misaligned with the warmup boundary


def _small(config):
    return config.with_overrides(system=SMALL_LLC)


@pytest.mark.parametrize("workload", workload_names())
def test_chunked_path_matches_whole_buffer(workload):
    """Six workloads x all named paper configs: bit-identical results."""
    assert COLUMNAR_ACCESSES <= DEFAULT_CHUNK_SIZE  # the pinned run is one chunk
    for name in named_configs():
        chunked = columnar_cell(workload, name, chunk_size=CHUNK)
        assert chunked == pinned(f"columnar/{workload}/{name}"), (
            f"chunked run diverged from the whole buffer for {workload}/{name}")


def test_streaming_generation_matches_materialized_path():
    """Generator-chunk streaming equals the materialized-buffer simulation."""
    config = _small(named_configs(["bump"])["bump"])
    trace = build_trace("web_search", ACCESSES, num_cores=CORES, seed=DEFAULT_SEED)
    materialized = run_trace(trace, config, workload_name="web_search",
                             warmup_fraction=WARMUP)
    streamed = run_workload("web_search", config, num_accesses=ACCESSES,
                            num_cores=CORES, seed=DEFAULT_SEED,
                            warmup_fraction=WARMUP, chunk_size=CHUNK)
    assert result_fingerprint(streamed) == result_fingerprint(materialized)


def test_materialized_chunk_list_counts_accesses_not_chunks():
    """run_trace on a [TraceBuffer, ...] places the warmup boundary by access count."""
    config = _small(named_configs(["base_open"])["base_open"])
    trace = build_trace("web_search", 2_000, num_cores=4, seed=DEFAULT_SEED)
    reference = run_trace(trace, config, warmup_fraction=0.5)
    chunk_list = list(trace.iter_chunks(400))
    from_list = run_trace(chunk_list, config, warmup_fraction=0.5)
    assert from_list.counters["accesses"] == reference.counters["accesses"] == 1_000
    assert result_fingerprint(from_list) == result_fingerprint(reference)


def test_warmup_boundary_alignment_does_not_matter():
    """The measurement split lands mid-chunk, at a chunk edge, everywhere."""
    config = _small(named_configs(["base_open"])["base_open"])
    trace = build_trace("data_serving", 2_000, num_cores=4, seed=DEFAULT_SEED)
    reference = run_trace(trace, config, warmup_fraction=0.5)  # one chunk
    for chunk_size in (1, 100, 999, 1000, 1001, 2_000):
        chunked = run_trace(trace.iter_chunks(chunk_size), config,
                            warmup_fraction=0.5, num_accesses=2_000)
        assert result_fingerprint(chunked) == result_fingerprint(reference), (
            f"divergence at chunk_size={chunk_size}")


def test_streaming_chunk_size_does_not_reach_the_result():
    """Batched DRAM intake must not leak chunk boundaries into results."""
    config = named_configs(["base_open"])["base_open"]
    results = [
        result_fingerprint(run_workload(
            "web_serving", config, num_accesses=4_000, chunk_size=chunk))
        for chunk in (256, 1000, 4_000)
    ]
    assert len(set(results)) == 1
