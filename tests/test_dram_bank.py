"""DRAM bank timing, on the memory system.

Each test places transfers on one bank of a one-channel memory system and
checks the bank's row, ready cycle and last activation, and the channel's
counters, against values worked out by hand from the DDR3-1600 timing
(tCAS = tRCD = tRP = 11, tRAS = 28, tRC = 39, tRRD = 5, burst = 4 bus
cycles).
"""

import pytest

from dram_harness import READ, TIMING, bank_state, block, memory, serve, stat
from repro.common.params import DDR3Timing
from repro.dram.flat import PagePolicy

BURST = TIMING.burst_cycles


def test_first_access_is_a_row_miss_and_activates():
    system = memory()
    serve(system, block(system, row=5))
    assert stat(system, "row_misses") == 1
    assert stat(system, "activations") == 1
    # Activated at cycle 0; the column command issues tRCD later and the
    # bank takes the next one a burst after that.
    assert bank_state(system) == (5, TIMING.tRCD + BURST, 0.0)
    # Data is ready tRCD + tCAS after arrival and leaves one burst later.
    assert system.elapsed_cycles == TIMING.tRCD + TIMING.tCAS + BURST


def test_second_access_to_same_row_hits():
    system = memory()
    serve(system, block(system, row=5), block(system, row=5, column=1))
    assert stat(system, "row_hits") == 1
    assert stat(system, "activations") == 1


def test_row_hits_stream_at_burst_cadence():
    """Back-to-back hits to the open row issue one burst apart.

    This is the property bulk streaming relies on to amortise an activation
    over sixteen transfers.
    """
    system = memory()
    serve(system, *(block(system, row=1, column=column) for column in range(3)))
    # Column commands at tRCD, tRCD + 4 and tRCD + 8; the bank takes the
    # next one a burst after the last, and the data bus streams the three
    # bursts back to back.
    assert bank_state(system)[1] == TIMING.tRCD + 3 * BURST
    assert system.elapsed_cycles == TIMING.tRCD + TIMING.tCAS + 3 * BURST
    assert stat(system, "row_hits") == 2


def test_conflict_pays_precharge_and_activate():
    system = memory()
    serve(system, block(system, row=1), block(system, row=2))
    assert stat(system, "row_conflicts") == 1
    assert stat(system, "activations") == 2
    # The precharge waits for tRAS after the first activation, the second
    # activation tRP after that; its column command issues tRCD later.
    activate = TIMING.tRAS + TIMING.tRP
    assert bank_state(system) == (2, activate + TIMING.tRCD + BURST, activate)


def test_close_after_leaves_bank_precharged():
    system = memory(PagePolicy.CLOSE)
    serve(system, block(system, row=3))
    # Precharged right after the burst: data ready at tRCD + tCAS, then the
    # burst, the read-to-precharge delay and tRP.
    ready = TIMING.tRCD + TIMING.tCAS + BURST + TIMING.tRTP + TIMING.tRP
    assert bank_state(system) == (-1, ready, 0.0)
    serve(system, block(system, row=3, column=1))
    # After a close-row access the next access is a miss, not a hit.
    assert stat(system, "row_misses") == 2
    assert stat(system, "row_hits") == 0


def test_access_respects_start_cycle():
    system = memory()
    serve(system, (block(system, row=1), READ, 1000.0))
    assert bank_state(system) == (1, 1000.0 + TIMING.tRCD + BURST, 1000.0)


def test_row_hit_ratio_property():
    system = memory()
    assert system.row_hit_ratio == 0.0
    serve(system, block(system, row=1), block(system, row=1, column=1),
          block(system, row=2))
    assert system.row_hit_ratio == pytest.approx(1.0 / 3.0)


def test_activation_spacing_respects_trc():
    # At DDR3-1600, tRC = tRAS + tRP, so both rules place the second
    # activation at cycle 39; a longer tRC binds on its own.
    for timing in (TIMING, DDR3Timing(tRC=50)):
        system = memory(timing=timing)
        serve(system, block(system, row=1), block(system, row=2))
        assert bank_state(system)[2] == timing.tRC


def test_hit_latency_smaller_than_miss_latency():
    """Measured from an idle bank, hit < miss < conflict service latency."""
    start = 1000.0
    latencies = []
    for opener, row in ((1, 1), (None, 1), (1, 2)):
        system = memory()
        if opener is not None:
            serve(system, block(system, row=opener, column=1))
        system.reset_counters()
        serve(system, (block(system, row=row), READ, start))
        latencies.append(system.average_demand_read_latency)
    assert latencies == [TIMING.row_hit_latency, TIMING.row_miss_latency,
                         TIMING.row_conflict_latency]
    assert latencies == sorted(latencies)


def test_precharge_waits_for_tras():
    # A longer tRAS holds the first row open past the default's cycle 28:
    # the precharge starts at tRAS and the activation follows tRP later,
    # beyond the tRC floor of 39.
    timing = DDR3Timing(tRAS=35)
    system = memory(timing=timing)
    serve(system, block(system, row=1), block(system, row=2))
    assert bank_state(system)[2] == timing.tRAS + timing.tRP


def test_activation_spacing_respects_trrd():
    # tRRD spaces one bank's own activations.  A close-row bank is ready
    # again 43 cycles after its activation, so only a tRRD beyond that binds.
    timing = DDR3Timing(tRRD=60)
    system = memory(PagePolicy.CLOSE, timing=timing)
    serve(system, block(system, row=1))
    serve(system, block(system, row=2))
    assert bank_state(system)[2] == timing.tRRD
