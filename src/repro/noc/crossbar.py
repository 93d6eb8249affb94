"""Crossbar NOC traffic accounting.

The model is deliberately coarse: every message kind has a fixed size in
bytes (a control flit for requests, a cache block plus header for data), the
crossbar's traffic is the bytes its messages move, and utilisation is bytes
moved divided by the aggregate link capacity over the simulated interval.
Server workloads leave the NOC lightly loaded (Section V.F cites low
utilisation), so the extra traffic BuMP injects changes energy but not
performance -- exactly the behaviour this accounting reproduces.

Nothing here counts.  Every message is an LLC or DRAM event the simulated
system already counts once, so :func:`repro.sim.system.noc_stats` derives
the message counts from those counts and hands them to
:func:`traffic_stats`.
"""

from __future__ import annotations

from typing import Mapping

from repro.common.stats import StatGroup

#: Bytes per message kind (header + payload), in ``result.noc`` key order.
MESSAGE_BYTES = {
    "request": 8,             # an L1 miss request to the LLC
    "request_with_pc": 16,    # the same, with the triggering PC (BuMP, SMS)
    "data": 72,               # a 64-byte block: a fill or a writeback
    "predictor_notify": 8,    # an LLC access forwarded to the agents
    "generated_request": 8,   # an agent's prefetch, bulk or writeback request
}

#: Bytes each core's injection port moves per core cycle.
LINK_BYTES_PER_CYCLE = 16.0


def traffic_stats(messages: Mapping[str, int]) -> StatGroup:
    """``result.noc`` from the message count of every kind in :data:`MESSAGE_BYTES`.

    ``msgs_<kind>`` keeps each count as given; ``messages`` (their total)
    and ``bytes`` (the bytes they move) are floats.  Every key is set.
    """
    group = StatGroup("noc")
    for kind in MESSAGE_BYTES:
        group.set(f"msgs_{kind}", messages[kind])
    group.set("messages", float(sum(messages[kind] for kind in MESSAGE_BYTES)))
    group.set("bytes", float(sum(size * messages[kind]
                                 for kind, size in MESSAGE_BYTES.items())))
    return group


def utilization(total_bytes: float, elapsed_cycles: float,
                num_cores: int) -> float:
    """Average crossbar utilisation over ``elapsed_cycles`` core cycles.

    Capacity is one injection port per core, each moving
    :data:`LINK_BYTES_PER_CYCLE` bytes per cycle; the result is capped at 1.
    """
    if elapsed_cycles <= 0:
        return 0.0
    capacity = elapsed_cycles * num_cores * LINK_BYTES_PER_CYCLE
    return min(total_bytes / capacity, 1.0)
