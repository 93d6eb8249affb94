"""Unit tests for the crossbar NOC accounting."""

from repro.noc.crossbar import MESSAGE_BYTES, traffic_stats, utilization

#: No message of any kind.
NONE = dict.fromkeys(MESSAGE_BYTES, 0)


def test_traffic_stats_charge_each_message_kind_its_bytes():
    for kind, size in MESSAGE_BYTES.items():
        stats = traffic_stats(dict(NONE, **{kind: 3}))
        assert stats[f"msgs_{kind}"] == 3
        assert stats["messages"] == 3
        assert stats["bytes"] == 3 * size
    stats = traffic_stats(dict(NONE, request=1, data=2))
    assert stats["messages"] == 3
    assert stats["bytes"] == MESSAGE_BYTES["request"] + 2 * MESSAGE_BYTES["data"]


def test_traffic_stats_set_every_key_with_its_type():
    """Every key is set, even at zero: counts stay ints, totals are floats."""
    stats = traffic_stats(NONE).snapshot()
    assert stats == {**{f"msgs_{kind}": 0 for kind in MESSAGE_BYTES},
                     "messages": 0.0, "bytes": 0.0}
    assert [type(value) for value in stats.values()] == (
        [int] * len(MESSAGE_BYTES) + [float, float])


def test_pc_extended_requests_cost_more_bytes():
    assert MESSAGE_BYTES["request_with_pc"] > MESSAGE_BYTES["request"]


def test_utilization_bounded_and_monotonic():
    moved = traffic_stats(dict(NONE, data=1000))["bytes"]
    low = utilization(moved, elapsed_cycles=1_000_000, num_cores=16)
    high = utilization(moved, elapsed_cycles=1_000, num_cores=16)
    assert 0.0 < low < high <= 1.0
    assert utilization(moved, elapsed_cycles=10, num_cores=16) == 1.0
    assert utilization(moved, elapsed_cycles=0, num_cores=16) == 0.0
