"""Unit tests for the L1 filter and the shared LLC, and the system's counts."""

import numpy as np

from cache_planes import line_flags
from repro.cache.agent import FLAG_DIRTY, FLAG_PREFETCHED, FLAG_USED, LLCAgent
from repro.cache.flat import CacheArray
from repro.cache.l1 import StackedL1
from repro.common.params import CacheParams, SystemParams
from repro.sim.config import base_open
from repro.sim.system import ServerSystem
from repro.trace.buffer import TraceBuffer

L1_PARAMS = CacheParams(size_bytes=4 * 1024, associativity=2)


def make_l1():
    return StackedL1(L1_PARAMS, num_cores=1)


def l1_access(l1, address, is_store):
    """Present one access to core 0's L1: ``(hit, dirty victim or -1)``."""
    hits, victims, _pcs = l1.access_chunk(
        np.zeros(1, dtype=np.int32), np.array([address & ~63], dtype=np.int64),
        np.array([is_store]), np.zeros(1, dtype=np.int64))
    return bool(hits[0]), int(victims[0])


def make_llc(size=64 * 1024, assoc=4):
    return CacheArray(CacheParams(size_bytes=size, associativity=assoc))


#: A one-set, four-way LLC behind one-set, two-way L1s: every block of a
#: trace conflicts with every other in both levels, so short hand-written
#: traces reach every LLC event.
TINY = SystemParams(l1d=CacheParams(size_bytes=2 * 64, associativity=2),
                    llc=CacheParams(size_bytes=4 * 64, associativity=4,
                                    hit_latency_cycles=8, banks=1))
A, B, C, D, E, F, H, P, Q, W, X, Y, Z = (index * 4096 for index in range(1, 14))
FETCH_PC, CLEAN_PC, PC = 0xF0, 0xC0, 0x10


class Scripted(LLCAgent):
    """Prefetches P, then Q, on misses from FETCH_PC; on an access from
    CLEAN_PC, asks for writebacks of B and C."""

    def __init__(self):
        self.prefetches = [P, Q]

    def on_access(self, core, pc, block, is_store, hit):
        if pc == CLEAN_PC:
            self.writebacks.extend([B, C])

    def on_miss(self, core, pc, block, is_store):
        if pc == FETCH_PC:
            self.fetches.append(self.prefetches.pop(0))


def run_tiny(rows, agents=(), **overrides):
    """Run ``(core, pc, block, is_store)`` rows on the tiny system."""
    system = ServerSystem(base_open(use_stride=False, system=TINY,
                                    **overrides))
    system.agents.extend(agents)
    result = system.run(TraceBuffer(
        core=np.array([row[0] for row in rows], dtype=np.int32),
        pc=np.array([row[1] for row in rows], dtype=np.uint64),
        address=np.array([row[2] for row in rows], dtype=np.uint64),
        is_store=np.array([row[3] for row in rows]),
        instructions=np.ones(len(rows), dtype=np.int32)))
    return system, result


# --------------------------------------------------------------------- #
# L1
# --------------------------------------------------------------------- #
def test_l1_miss_then_hit_same_block():
    l1 = make_l1()
    assert l1_access(l1, 0x1234, is_store=False) == (False, -1)
    hit, _victim = l1_access(l1, 0x1238, is_store=False)  # same 64B block
    assert hit


def test_l1_store_marks_block_dirty():
    l1 = make_l1()
    l1_access(l1, 0x40, is_store=True)
    assert line_flags(l1, 0x40) & FLAG_DIRTY
    assert line_flags(l1, 0x80) is None


def test_l1_dirty_eviction_produces_writeback():
    l1 = make_l1()
    stride = L1_PARAMS.num_sets * 64
    l1_access(l1, 0, is_store=True)
    l1_access(l1, stride, is_store=False)
    assert l1_access(l1, 2 * stride, is_store=False) == (False, 0)


def test_l1_clean_eviction_produces_no_writeback():
    l1 = make_l1()
    stride = L1_PARAMS.num_sets * 64
    for i in range(3):
        assert l1_access(l1, i * stride, is_store=False) == (False, -1)


# --------------------------------------------------------------------- #
# LLC: the array's calls, then the system's LLC paths and counts
# --------------------------------------------------------------------- #
def test_llc_demand_miss_hit_cycle():
    llc = make_llc()
    assert llc.demand_access(0x1000, False) == -1
    assert llc.fill(0x1000) == -1
    assert llc.demand_access(0x1000, False) == FLAG_USED


def test_llc_write_hit_dirties_block():
    llc = make_llc()
    llc.fill(0x40)
    llc.demand_access(0x40, True)
    assert line_flags(llc, 0x40) & FLAG_DIRTY


def test_llc_l1_writeback_allocates_dirty_when_absent():
    # Core 0 dirties A in its L1 only; core 1's four misses push A out of
    # the LLC; core 0's next two misses evict A from its L1, and the
    # writeback allocates A dirty.
    system, result = run_tiny([(0, PC, A, False), (0, PC, A, True)]
                              + [(1, PC, block, False) for block in (W, X, Y, Z)]
                              + [(0, PC, B, False), (0, PC, C, False)])
    assert line_flags(system.llc, A) == FLAG_DIRTY | FLAG_USED
    assert result.counters["l1_writebacks"] == 1
    assert result.llc["demand_fills"] == result.counters["llc_misses"] + 1


def test_llc_l1_writeback_marks_resident_block_dirty():
    system, result = run_tiny([(0, PC, A, False), (0, PC, A, True),
                               (0, PC, B, False), (0, PC, C, False)])
    assert line_flags(system.llc, A) == FLAG_DIRTY | FLAG_USED
    assert result.counters["l1_writebacks"] == 1
    assert result.llc["demand_fills"] == result.counters["llc_misses"] == 3


def test_llc_overfetch_accounting():
    llc = make_llc(size=1024, assoc=2)
    stride = llc.params.num_sets * 64
    llc.fill(0, prefetched=True)
    llc.fill(stride)
    assert llc.fill(2 * stride) == 0
    assert llc.victim_flags & (FLAG_PREFETCHED | FLAG_USED) == FLAG_PREFETCHED


def test_llc_clean_counts_only_dirty_blocks():
    llc = make_llc()
    llc.fill(0x100, dirty=True)
    llc.fill(0x140, dirty=False)
    assert llc.clean(0x100) is True
    assert llc.clean(0x140) is False
    assert llc.clean(0x999999) is False


def test_llc_traffic_ops_counts_probes_and_fills():
    # A, B and C each take a lookup and a fill; C's miss first writes the
    # dirty A back from core 0's L1, a probe that hits.
    _system, result = run_tiny([(0, PC, A, True), (0, PC, B, False),
                                (0, PC, C, False)])
    assert result.llc["traffic_ops"] == 3 * 2 + 1


def test_llc_dirty_eviction_statistics():
    llc = make_llc(size=1024, assoc=2)
    stride = llc.params.num_sets * 64
    llc.fill(0, dirty=True, pc=0x77, core=3)
    llc.fill(stride)
    assert llc.fill(2 * stride) == 0
    assert (llc.victim_flags, llc.victim_pc, llc.victim_core) == (
        FLAG_DIRTY | FLAG_USED, 0x77, 3)


#: Nine accesses that reach every LLC event: LLC contents are listed least
#: recently used first; ``*`` marks a dirty line, ``~`` a prefetched line
#: not yet used.
NINE = [
        (0, PC, A, True),         # miss; LLC [A*]
        (0, PC, B, True),         # miss; LLC [A* B*]
        (0, FETCH_PC, C, False),  # L1 writes A back: a hit, A promoted;
                                  # miss, prefetch P; LLC [B* A* C P~]
        (1, PC, D, False),        # miss; evicts B*; LLC [A* C P~ D]
        (0, PC, E, False),        # L1 writes B back: absent, allocated,
                                  # evicts A*; miss, evicts C;
                                  # LLC [P~ D B* E]
        (1, PC, F, False),        # miss; evicts P~ unused; LLC [D B* E F]
        (0, CLEAN_PC, D, False),  # hit; probes B (cleaned) and C (absent)
        (1, FETCH_PC, H, False),  # miss, evicts B; prefetch Q evicts E;
                                  # LLC [F D H Q~]
        (0, PC, Q, False),        # hit on the unused prefetch Q
]


def test_result_llc_counts_every_llc_event_once():
    """Every ``result.llc`` key against a hand count of :data:`NINE`."""
    _system, result = run_tiny(NINE, [Scripted()])
    hits, misses = 2, 7
    demand_fills = misses + 1     # E's L1 writeback of B allocated
    prefetch_fills = 2            # P, Q
    fills = demand_fills + prefetch_fills
    l1_writebacks, probes = 2, 2
    evictions = 6                 # B*, A*, C, P~, B, E
    dirty_evictions = 2           # B*, A*
    # ``evictions`` and ``dirty_evictions`` read twice the true counts until
    # the ROADMAP item "Correct what the model is known to get wrong"
    # regenerates the pinned results without the doubling.
    assert result.llc.snapshot() == {
        "hits": hits,
        "demand_hits": hits,
        "misses": misses,
        "demand_misses": misses,
        "demand_fills": demand_fills,
        "prefetch_fills": prefetch_fills,
        "fills": fills,
        "traffic_ops": hits + misses + fills + l1_writebacks + probes,
        "overfetched_blocks": 1,  # P
        "unused_prefetch_evictions": 1,
        "prefetch_hits": 1,       # Q
        "eager_cleaned_blocks": 1,  # B
        "evictions": 2 * evictions,
        "dirty_evictions": 2 * dirty_evictions,
    }
    assert all(type(value) is float for value in result.llc.snapshot().values())
    counters = result.counters
    assert (counters["llc_evictions"], counters["demand_writebacks"],
            counters["eager_writebacks"]) == (evictions, dirty_evictions, 1)


def test_result_noc_and_the_derived_counters_follow_the_hand_count():
    """``result.noc`` and the three derived ``counters`` keys on :data:`NINE`.

    Each of the nine L1 misses sends a request and, with an agent attached,
    a notification; P and Q (fetched) and B and C (probed) are generated
    requests; every block moved is a data message.
    """
    _system, result = run_tiny(NINE, [Scripted()])
    demand = 9                     # 2 LLC hits + 7 LLC misses
    generated = 2 + 2              # fetched P, Q; probed B, C
    data = (2                      # L1 writebacks of A and B
            + demand               # a hit's or a fill's block to the core
            + 2                    # dirty victims B*, A* to DRAM
            + 2                    # P, Q from DRAM
            + 1)                   # B cleaned to DRAM
    assert result.noc.snapshot() == {
        "msgs_request": demand,
        "msgs_request_with_pc": 0,
        "msgs_data": data,
        "msgs_predictor_notify": demand,
        "msgs_generated_request": generated,
        "messages": float(demand + data + demand + generated),
        "bytes": float(8 * demand + 72 * data + 8 * demand + 8 * generated),
    }
    noc = result.noc.snapshot()
    assert [type(value) for value in noc.values()] == [int] * 5 + [float] * 2
    counters = result.counters
    # A and B miss on stores; C, D, E, F and H on loads.
    assert (counters["demand_reads"], counters["load_demand_misses"],
            counters["load_triggered_reads"],
            counters["store_triggered_reads"]) == (7, 5, 5, 2)

    # A PC-carrying system without agents: the requests carry the PC and
    # nothing notifies an agent, generates a request or moves its blocks.
    _system, result = run_tiny(NINE, carries_pc=True)
    noc = result.noc
    assert (noc["msgs_request"], noc["msgs_request_with_pc"],
            noc["msgs_predictor_notify"], noc["msgs_generated_request"]) == (
                0, demand, 0, 0)
    counters = result.counters
    assert noc["msgs_data"] == (
        counters["l1_writebacks"] + demand + counters["demand_writebacks"])
    assert noc["bytes"] == 16 * demand + 72 * noc["msgs_data"]
