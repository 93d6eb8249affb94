"""The ablation schedulers: FCFS and bank round robin.

As in ``test_dram_controller.py``, transfers are placed on chosen rows of a
one-channel memory system and the serve order is read off the row-buffer
outcomes and off the demand-read latency of one marked transfer.
"""

import pytest

from dram_harness import (
    PREFETCH,
    READ,
    TIMING,
    block,
    demand_read_latency,
    enqueue,
    memory,
    row_hit_ratio,
    serve,
    stat,
)
from repro.common.addressing import REGION_SIZE
from repro.dram.flat import SCHEDULERS, PagePolicy

BURST = TIMING.burst_cycles


class TestFCFS:
    def test_serves_in_strict_arrival_order(self):
        system = memory(scheduler="fcfs")
        serve(system, block(system, row=1))
        system.reset_counters()
        serve(system, block(system, row=1, column=1), block(system, row=2),
              block(system, row=1, column=2))
        # Rows 1, 2, 1 in arrival order: a hit, then two conflicts (FR-FCFS
        # would serve both row-1 requests first).
        assert stat(system, "row_hits") == 1
        assert stat(system, "row_conflicts") == 2

    def test_empty_queue_returns_none(self):
        system = memory(scheduler="fcfs")
        assert system.drain() is None
        assert system.pending_count() == 0
        assert stat(system, "accesses") == 0

    def test_rejects_degenerate_window(self):
        with pytest.raises(ValueError):
            memory(scheduler="fcfs", window=0)

    def test_any_pending_for_row_respects_window(self):
        hits = []
        for window in (1, 2):
            system = memory(PagePolicy.CLOSE, scheduler="fcfs", window=window)
            serve(system, block(system, row=5), block(system, row=9, bank=1),
                  block(system, row=5, column=1))
            hits.append(stat(system, "row_hits"))
        # The second row-5 request keeps the row open only when the window
        # reaches past the request to bank 1.
        assert hits == [0, 1]


class TestBankRoundRobin:
    def test_rotates_service_across_cores(self):
        system = memory(scheduler="bank_round_robin")
        # Core 0's backlog on banks 0-2, one demand read from core 1 on bank
        # 3; every transfer is a miss on an idle bank, so the data bus serves
        # them one burst apart in the order they are chosen.
        serve(system, *((block(system, row=10, bank=bank), PREFETCH, 0.0, 0)
                        for bank in range(3)),
              (block(system, row=50, bank=3), READ, 0.0, 1))
        # Core 1 goes second: its data leaves in the second burst slot.
        assert demand_read_latency(system) == (
            TIMING.row_miss_latency + BURST)

    def test_prefers_row_hits_within_the_chosen_core(self):
        system = memory(scheduler="bank_round_robin")
        serve(system, block(system, row=7))
        system.reset_counters()
        serve(system, block(system, row=1), block(system, row=7, column=1))
        # Core 0's younger row-7 request hits first; row 1 then conflicts.
        assert stat(system, "row_hits") == 1
        assert stat(system, "row_conflicts") == 1

    def test_length_tracks_pushes_and_pops(self):
        system = memory(scheduler="bank_round_robin")
        enqueue(system, (block(system, row=1), READ, 0.0, 0))
        assert system.pending_count() == 1
        enqueue(system, (block(system, row=2, bank=1), READ, 0.0, 1))
        assert system.pending_count() == 2
        system.drain()
        assert system.pending_count() == 0
        system.drain()
        assert stat(system, "accesses") == 2

    def test_any_pending_for_row_scans_all_cores(self):
        hits = []
        for row in (9, 3):
            system = memory(PagePolicy.CLOSE, scheduler="bank_round_robin")
            serve(system, (block(system, row=row), READ, 0.0, 0),
                  (block(system, row=9, column=1), READ, 0.0, 5))
            hits.append(stat(system, "row_hits"))
        # Core 5's row-9 request keeps core 0's row 9 open; a row-3 access
        # finds no taker on any core and closes its row.
        assert hits == [1, 0]

    def test_no_core_starves(self):
        system = memory(scheduler="bank_round_robin")
        # Fifty row hits queued by core 0, then one demand read by core 1.
        serve(system, *((block(system, row=0, column=column % 128), PREFETCH,
                         0.0, 0) for column in range(50)),
              (block(system, row=0, bank=1), READ, 0.0, 1))
        # With two cores the core-1 request is served second, not behind
        # core 0's stream of hits.
        assert demand_read_latency(system) == (
            TIMING.row_miss_latency + BURST)


class TestSchedulerRegistry:
    def test_all_registered_names_instantiate(self):
        for name in SCHEDULERS:
            system = memory(scheduler=name, window=16)
            assert system.scheduler == name
            assert system.window == 16
            assert system.pending_count() == 0

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(ValueError) as err:
            memory(scheduler="fr_fcfs")
        assert "frfcfs" in str(err.value)


class TestControllerWithAlternativeSchedulers:
    def run_stream(self, scheduler, blocks):
        system = memory(scheduler=scheduler, window=16)
        serve(system, *((address, READ, float(index), index % 4)
                        for index, address in enumerate(blocks)))
        return system

    def test_every_scheduler_serves_all_requests(self):
        blocks = [i * 64 for i in range(64)]
        for name in SCHEDULERS:
            system = self.run_stream(name, blocks)
            assert stat(system, "accesses") == len(blocks), name

    def test_frfcfs_beats_fcfs_on_interleaved_regions(self):
        """Interleaving two regions of one bank defeats FCFS but FR-FCFS
        reorders within its window and recovers row hits."""
        region_a = [i * 64 for i in range(16)]
        region_b = [1024 * REGION_SIZE + i * 64 for i in range(16)]
        blocks = [block for pair in zip(region_a, region_b) for block in pair]

        fcfs = self.run_stream("fcfs", blocks)
        frfcfs = self.run_stream("frfcfs", blocks)
        assert row_hit_ratio(fcfs) == 0.0
        assert row_hit_ratio(frfcfs) > row_hit_ratio(fcfs)
