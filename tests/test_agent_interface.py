"""Unit tests for the LLC-agent interface shared by all mechanisms: scalar
hooks appending to one system-owned action sink."""

import numpy as np

from agent_harness import AgentHarness
from repro.cache.agent import FLAG_DIRTY, LLCAgent
from repro.common.params import CacheParams, SystemParams
from repro.common.request import DRAMRequestKind
from repro.sim.config import base_open, bump_vwq_system
from repro.sim.system import ServerSystem
from repro.trace.buffer import TraceBuffer
from repro.workloads.catalog import get_workload
from repro.workloads.generator import iter_trace_chunks


def test_default_agent_is_inert():
    agent = AgentHarness(LLCAgent())
    assert agent.access(0, 0, hit=True).empty
    assert agent.miss(0, 0).empty
    assert agent.evict(0, dirty=True).empty
    assert agent.agent.storage_bits() == 0


def test_bind_sink_directs_requests_into_the_given_lists():
    class Echo(LLCAgent):
        def on_miss(self, core, pc, block, is_store):
            self.fetches.append(block)
            self.writebacks.append(block + 64)

    fetches, writebacks = [], []
    agent = Echo()
    agent.bind_sink(fetches, writebacks)
    agent.on_miss(0, 0, 128, False)
    assert (fetches, writebacks) == ([128], [192])


# --------------------------------------------------------------------- #
# The system-owned sink
# --------------------------------------------------------------------- #
TRIGGER_PC = 0x99
D1, D2, D3, D4, M, A1, A2 = (index * 4096 for index in range(1, 8))
#: Dirty victim -> the dirty block its eviction asks to write back.
PARTNER = {D1: D3, D2: D4}


class BulkReader(LLCAgent):
    """Bulk-reads A1, A2 on a miss from the trigger PC."""

    def on_miss(self, core, pc, block, is_store):
        if pc == TRIGGER_PC:
            self.fetches.extend([A1, A2])


class DirtyNeighbour(LLCAgent):
    """Eagerly writes back a dirty victim's partner block."""

    def on_eviction(self, block, flags):
        if flags & FLAG_DIRTY and block in PARTNER:
            self.writebacks.append(PARTNER[block])


def _record_transfers(system) -> list:
    """Collect (block, kind, core) of every transfer the memory system receives."""
    staged = []
    memory = system.memory
    intake = memory.enqueue_block_batch

    def batch(blocks, kinds, arrivals, cores):
        staged.extend(zip(blocks, kinds, cores))
        return intake(blocks, kinds, arrivals, cores)

    memory.enqueue_block_batch = batch
    return staged


def test_eviction_writebacks_nest_inside_a_bulk_read():
    # A one-set, four-way LLC holds dirty D1..D4 (oldest first, stored by
    # core 0) when core 1 misses on M from the trigger PC and asks for a
    # bulk read of A1, A2.  M's own fill evicts D1, whose hook asks for D3's
    # writeback: it is staged inside that eviction, before the pending bulk
    # read starts.  A1's fill then evicts D2, whose D4 writeback is staged
    # before the bulk read resumes with A2.  Every transfer carries the core
    # of the event that issued it: the bulk read core 1's, the writebacks
    # the victims' core 0.
    params = SystemParams(llc=CacheParams(size_bytes=4 * 64, associativity=4,
                                          hit_latency_cycles=8, banks=1))
    system = ServerSystem(base_open(use_stride=False, system=params))
    system.agents.extend([BulkReader(), DirtyNeighbour()])
    staged = _record_transfers(system)
    rows = [(D1, 0x10, True, 0), (D2, 0x10, True, 0), (D3, 0x10, True, 0),
            (D4, 0x10, True, 0), (M, TRIGGER_PC, False, 1)]
    system.run(TraceBuffer(
        core=np.array([core for *_, core in rows], dtype=np.int32),
        pc=np.array([pc for _, pc, _, _ in rows], dtype=np.uint64),
        address=np.array([block for block, *_ in rows], dtype=np.uint64),
        is_store=np.array([store for _, _, store, _ in rows]),
        instructions=np.ones(len(rows), dtype=np.int32)))
    read = DRAMRequestKind.DEMAND_READ.code
    demand_writeback = DRAMRequestKind.DEMAND_WRITEBACK.code
    eager_writeback = DRAMRequestKind.EAGER_WRITEBACK.code
    prefetch = DRAMRequestKind.PREFETCH_READ.code
    assert staged == [
        (D1, read, 0), (D2, read, 0), (D3, read, 0), (D4, read, 0),
        (M, read, 1),
        (D1, demand_writeback, 0), (D3, eager_writeback, 0),
        (A1, prefetch, 1),
        (D2, demand_writeback, 0), (D4, eager_writeback, 0),
        (A2, prefetch, 1),
    ]


class _SinkCheckingSource:
    """Serves chunks and records whether the sink was empty at each pull."""

    def __init__(self, system, chunks):
        self._system = system
        self._chunks = iter(chunks)
        self.sink_empty = []

    def next_chunk(self):
        system = self._system
        self.sink_empty.append(not system._fetches and not system._writebacks)
        return next(self._chunks, None)


def _web_search_chunks(accesses, chunk_size=2048):
    return iter_trace_chunks(get_workload("web_search"), accesses, num_cores=4,
                             seed=3, chunk_size=chunk_size)


def test_sink_is_empty_at_every_chunk_boundary_and_after_run():
    system = ServerSystem(bump_vwq_system())
    source = _SinkCheckingSource(system, _web_search_chunks(12_000))
    result = system.run(source, warmup_accesses=4000)
    assert result.counters["bulk_reads"] > 0
    assert len(source.sink_empty) > 4
    assert all(source.sink_empty)
    assert system._fetches == [] and system._writebacks == []


def test_hooks_are_bound_from_the_instance_at_run_start():
    # Wrappers installed on an agent instance after construction (as a
    # profiler does) are the callables the run invokes.
    system = ServerSystem(bump_vwq_system())
    calls = {"on_access": 0, "on_miss": 0, "on_eviction": 0}
    for name in calls:
        hook = getattr(system.bump, name)

        def counted(*args, _hook=hook, _name=name):
            calls[_name] += 1
            return _hook(*args)

        setattr(system.bump, name, counted)
    result = system.run(_web_search_chunks(6000))
    counters = result.counters
    assert calls["on_access"] == counters["llc_hits"] + counters["llc_misses"]
    assert calls["on_miss"] == counters["llc_misses"]
    assert calls["on_eviction"] == counters["llc_evictions"]
