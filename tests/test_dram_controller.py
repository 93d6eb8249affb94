"""FR-FCFS scheduling, the per-channel controller and the memory system.

The scheduling tests place transfers on chosen rows of one bank and read
the serve order off the row-buffer outcomes: a transfer served while its
row is open is a hit, one served after another row opened is a conflict.
"""

import pytest

from dram_harness import (
    PREFETCH,
    TIMING,
    WRITEBACK,
    bank_state,
    block,
    demand_read_latency,
    enqueue,
    memory,
    row_hit_ratio,
    serve,
    stat,
)
from repro.common.addressing import BLOCK_SIZE, REGION_SIZE
from repro.common.request import DRAMRequestKind
from repro.dram.address_mapping import make_block_interleaving
from repro.dram.flat import PagePolicy


# --------------------------------------------------------------------- #
# FR-FCFS choice
# --------------------------------------------------------------------- #
def test_frfcfs_prefers_row_hit_within_window():
    system = memory()
    first, other, co_row = (block(system, row=0), block(system, row=7),
                            block(system, row=0, column=1))
    serve(system, first, other, co_row)
    # first opens row 0, the younger co_row request hits it ahead of the
    # older request to row 7, which then conflicts: one hit, one conflict
    # (arrival order would give two conflicts).
    assert stat(system, "row_hits") == 1
    assert stat(system, "row_conflicts") == 1


def test_frfcfs_falls_back_to_oldest():
    system = memory()
    # No open row and no demand request: the oldest goes first, so the
    # younger request's row is the one left open.
    serve(system, (block(system, row=3), PREFETCH),
          (block(system, row=5), PREFETCH))
    assert bank_state(system)[0] == 5


def test_frfcfs_window_bounds_reordering():
    hits = []
    for window in (2, 3):
        system = memory(window=window)
        serve(system, block(system, row=0))
        serve(system, block(system, row=2), block(system, row=4),
              block(system, row=0, column=1))
        hits.append(stat(system, "row_hits"))
    # The row-hit request sits third: outside a 2-entry window the oldest
    # wins and row 0 is closed before it is served; a 3-entry window sees it.
    assert hits == [0, 1]


def test_frfcfs_rejects_empty_window():
    with pytest.raises(ValueError):
        memory(window=0)
    system = memory(window=4)
    system.drain()
    assert stat(system, "accesses") == 0


# --------------------------------------------------------------------- #
# Memory controller
# --------------------------------------------------------------------- #
def test_bulk_region_transfer_amortises_one_activation():
    system = memory()
    base = 5 * REGION_SIZE * 2
    serve(system, *(base + i * BLOCK_SIZE for i in range(16)))
    assert stat(system, "accesses") == 16
    assert stat(system, "activations") == 1
    assert row_hit_ratio(system) == pytest.approx(15.0 / 16.0)


def test_scattered_accesses_activate_repeatedly():
    system = memory()
    serve(system, *(block(system, row=row) for row in range(8)))
    assert stat(system, "activations") == 8
    assert row_hit_ratio(system) == 0.0


def test_close_row_policy_precharges_between_isolated_accesses():
    ratios = []
    for policy in (PagePolicy.OPEN, PagePolicy.CLOSE):
        system = memory(policy)
        base = 4 * REGION_SIZE
        serve(system, base)
        serve(system, (base + BLOCK_SIZE, DRAMRequestKind.DEMAND_READ, 10_000.0))
        ratios.append(row_hit_ratio(system))
    assert ratios == [0.5, 0.0]


def test_demand_read_latency_recorded():
    system = memory()
    serve(system, 0)
    # An idle bank: activate, tRCD, tCAS, one burst.
    assert demand_read_latency(system) == TIMING.row_miss_latency


def test_writes_counted_separately():
    system = memory()
    serve(system, 0, (BLOCK_SIZE, WRITEBACK))
    stats = system.channel_stats(0)
    assert stats["reads"] == 1
    assert stats["writes"] == 1
    assert stats["kind_demand_writeback"] == 1


def test_enqueue_drains_when_queue_saturates():
    system = memory(window=4)
    enqueue(system, *(i * BLOCK_SIZE for i in range(20)))
    # Eager draining keeps the pending queue below twice the window.
    assert system.pending_count(0) < 2 * system.window
    system.drain()
    assert stat(system, "accesses") == 20


def test_reset_counters_preserves_bank_state():
    system = memory()
    serve(system, 0)
    system.reset_counters()
    assert stat(system, "accesses") == 0
    # The row opened before the reset is still open: the next access hits.
    serve(system, BLOCK_SIZE)
    assert row_hit_ratio(system) == 1.0


# --------------------------------------------------------------------- #
# Memory system
# --------------------------------------------------------------------- #
def test_memory_system_routes_to_both_channels():
    system = memory(channels=2)
    serve(system, *(region * REGION_SIZE for region in range(8)))
    per_channel = [system.channel_stats(channel)["accesses"]
                   for channel in range(2)]
    assert per_channel == [4, 4]


def test_memory_system_aggregates_stats():
    system = memory(channels=2)
    base = 3 * REGION_SIZE
    serve(system, *(base + i * BLOCK_SIZE for i in range(16)))
    assert stat(system, "accesses") == 16
    assert stat(system, "activations") == 1
    assert row_hit_ratio(system) == pytest.approx(15.0 / 16.0)
    # One miss, then fifteen hits streaming back to back on the bus.
    assert system.elapsed_cycles == TIMING.row_miss_latency + 15 * TIMING.burst_cycles
    assert stat(system, "bus_busy_cycles") == 16 * TIMING.burst_cycles
    assert stat(system, "kind_demand_read") == 16


def test_block_interleaving_distributes_a_region_across_banks():
    system = memory(channels=2, interleave=make_block_interleaving)
    serve(system, *(i * BLOCK_SIZE for i in range(16)))
    # Every block of the region activates its own bank: no row hits at all.
    assert row_hit_ratio(system) == 0.0
    assert stat(system, "activations") == 16
