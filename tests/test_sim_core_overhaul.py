"""Guards for the simulation-core overhaul.

* The FR-FCFS queue's incremental ready-tracking fast path must make exactly
  the same scheduling decisions as the reference window scan (property test
  at the queue level, then end-to-end at the controller level).
* ``ServerSystem.run`` must begin measurement when the trace length equals
  the warmup interval and raise only when the trace is strictly shorter.
"""

import random

import numpy as np
import pytest

from engine_pins import PINS
from repro.common.addressing import BLOCK_BITS
from repro.common.params import DDR3Timing, DRAMOrganization
from repro.common.request import DRAMRequest, DRAMRequestKind
from repro.dram.address_mapping import DRAMCoordinates, make_region_interleaving
from repro.dram.controller import MemoryController, PagePolicy
from repro.dram.scheduler import FRFCFSQueue, row_state_key
from repro.sim.config import base_open
from repro.sim.runner import build_trace
from repro.sim.system import ServerSystem
from repro.trace.buffer import TraceBuffer

KINDS = list(DRAMRequestKind)


def _random_request(rng, index):
    return DRAMRequest(block_address=index * 64, kind=rng.choice(KINDS),
                       core=rng.randrange(4), arrival_cycle=float(index))


def _random_coords(rng):
    return DRAMCoordinates(channel=0, rank=rng.randrange(2),
                           bank=rng.randrange(4), row=rng.randrange(8),
                           column=0)


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_fast_queue_matches_reference_scan(seed):
    """Tracked ready-state pops == window-scan pops for random streams."""
    rng = random.Random(seed)
    window = 8
    fast = FRFCFSQueue(window=window)
    reference = FRFCFSQueue(window=window)
    open_keys = set()
    open_rows = {}          # (rank, bank) -> row, for the reference scan
    key_of_bank = {}
    fast.track_open_rows(open_keys)

    for step in range(3_000):
        if rng.random() < 0.6 or len(fast) == 0:
            request = _random_request(rng, step)
            coords = _random_coords(rng)
            fast.push(request, coords)
            reference.push(request, coords)
        else:
            popped_fast = fast.pop_next(open_keys)
            popped_reference = reference.pop_next(open_rows)
            assert popped_fast[0] is popped_reference[0], (
                f"scheduling diverged at step {step}")
            # Mimic the controller: the served bank now holds the served row
            # (open-row policy), occasionally a random bank precharges.
            coords = popped_fast[1]
            bank = (coords.rank, coords.bank)
            old_key = key_of_bank.get(bank)
            new_key = row_state_key(coords.rank, coords.bank, coords.row)
            if new_key != old_key:
                if old_key is not None:
                    open_keys.discard(old_key)
                    fast.note_row_closed(old_key)
                open_keys.add(new_key)
                fast.note_row_opened(new_key)
                key_of_bank[bank] = new_key
            open_rows[bank] = coords.row
            if rng.random() < 0.2 and key_of_bank:
                victim_bank = rng.choice(list(key_of_bank))
                victim_key = key_of_bank.pop(victim_bank)
                if victim_key is not None:
                    open_keys.discard(victim_key)
                    fast.note_row_closed(victim_key)
                open_rows.pop(victim_bank, None)

    # Drain both completely; order must stay identical.
    while len(fast):
        assert fast.pop_next(open_keys)[0] is reference.pop_next(open_rows)[0]


@pytest.mark.parametrize("page_policy", [PagePolicy.OPEN, PagePolicy.CLOSE])
def test_controller_fast_scheduler_is_result_identical(page_policy):
    """End-to-end: fast and scan controllers serve identical schedules."""
    timing = DDR3Timing()
    org = DRAMOrganization()
    mapping = make_region_interleaving(org, org.row_buffer_bytes)
    fast = MemoryController(0, timing, org, mapping, page_policy, window=16,
                            fast_scheduler=True)
    scan = MemoryController(0, timing, org, mapping, page_policy, window=16,
                            fast_scheduler=False)
    rng = random.Random(13)
    kinds = list(DRAMRequestKind)
    for i in range(4_000):
        block = (rng.randrange(1 << 18)) * 64
        kind = rng.choice(kinds)
        arrival = float(i)
        fast.enqueue(DRAMRequest(block_address=block, kind=kind,
                                 arrival_cycle=arrival))
        scan.enqueue(DRAMRequest(block_address=block, kind=kind,
                                 arrival_cycle=arrival))
    completed_fast = fast.drain()
    completed_scan = scan.drain()
    assert [r.block_address for r in completed_fast] == \
        [r.block_address for r in completed_scan]
    assert [r.latency_cycles for r in completed_fast] == \
        [r.latency_cycles for r in completed_scan]
    assert fast.stats.snapshot() == scan.stats.snapshot()


def _distinct_gap_trace(cores: int, accesses: int = 4_000) -> TraceBuffer:
    """A random trace in which every row carries its own instruction gap."""
    rng = np.random.default_rng(9)
    core = rng.integers(0, cores, accesses).astype(np.int32)
    offsets = rng.integers(0, 2_048, accesses).astype(np.uint64)
    address = (core.astype(np.uint64) << np.uint64(32)) | \
        (offsets << np.uint64(BLOCK_BITS))
    pc = np.full(accesses, 0x400000, dtype=np.uint64)
    is_store = rng.random(accesses) < 0.3
    instructions = rng.permutation(np.arange(1, accesses + 1, dtype=np.int32))
    return TraceBuffer(core, pc, address, is_store, instructions)


def test_engines_bit_identical_with_non_power_of_two_cores():
    """Cycle accumulation must round identically for any core count.

    Regression: folding ``instructions * cpi / cores`` into one precomputed
    factor rounds differently when ``cores`` is not a power of two, which
    shifted DRAM arrival cycles and broke parity with the per-access dict
    engine.  The runs are held to the cycle count and result both cache
    engines agreed on (``engine_pins``).  The second trace gives every row a
    distinct instruction gap, so each row's cycle increment is computed
    afresh.
    """
    from repro.common.params import SystemParams
    from repro.exec.campaign import result_fingerprint

    config = base_open(system=SystemParams().scaled(num_cores=12))
    traces = {"web_search": build_trace("web_search", 3_000, num_cores=12,
                                        seed=5),
              "distinct_gaps": _distinct_gap_trace(12)}
    assert len(np.unique(traces["distinct_gaps"].instructions)) >= 3_000
    for label, trace in traces.items():
        pin = PINS["non_power_of_two_cores"][label]
        system = ServerSystem(config)
        result = system.run(trace, warmup_accesses=len(trace) * 2 // 5)
        assert system._core_cycle == pin["core_cycle"]
        assert result_fingerprint(result) == pin["fingerprint"]


# --------------------------------------------------------------------- #
# Warmup boundary
# --------------------------------------------------------------------- #
def _trace(n):
    return build_trace("web_search", n, num_cores=4, seed=3)


def test_warmup_equal_to_trace_length_begins_measurement():
    """A trace exactly as long as the warmup measures zero accesses, no error."""
    system = ServerSystem(base_open())
    result = system.run(_trace(1_000), warmup_accesses=1_000)
    assert result.counters["accesses"] == 0


def test_warmup_longer_than_trace_raises():
    system = ServerSystem(base_open())
    with pytest.raises(ValueError, match="shorter than the requested warmup"):
        system.run(_trace(999), warmup_accesses=1_000)


def test_warmup_shorter_than_trace_measures_the_tail():
    system = ServerSystem(base_open())
    result = system.run(_trace(1_000), warmup_accesses=600)
    assert result.counters["accesses"] == 400
