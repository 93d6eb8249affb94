"""Unit and property tests for the flat-array cache.

The flat array must behave exactly like the cache layer's specification, a
reference LRU of one ordered dict per set
(:class:`repro.fuzz.reference_lru.ReferenceLRU`): same hits, victims, flag
updates and -- critically -- the same replacement order.  The lockstep test
drives a long randomized stream of the five calls the simulator makes
through both and compares every result, then each set's recency order as
the ``stamps`` plane encodes it.  A shadowed system run then checks the call
sequences the simulator itself makes, with an LLC small enough to evict.
"""

import random

import pytest

from cache_planes import line_flags, recency_order, resident
from repro.cache.flat import (
    FLAG_DIRTY,
    FLAG_PREFETCHED,
    FLAG_USED,
    CacheArray,
)
from repro.common.params import CacheParams, SystemParams
from repro.fuzz.reference_lru import LRUShadow, ReferenceLRU
from repro.sim.config import named_configs
from repro.sim.runner import build_trace
from repro.sim.system import ServerSystem


def small_flat(size=4 * 1024, assoc=4):
    return CacheArray(CacheParams(size_bytes=size, associativity=assoc))


# --------------------------------------------------------------------- #
# Basic behaviour
# --------------------------------------------------------------------- #
def test_miss_fill_hit_and_dirty():
    cache = small_flat()
    assert cache.demand_access(0x1000, False) == -1
    assert cache.fill(0x1000) == -1
    assert cache.demand_access(0x1000, False) == FLAG_USED  # the prior flags
    assert cache.demand_access(0x1000, True) == FLAG_USED
    assert line_flags(cache, 0x1000) == FLAG_USED | FLAG_DIRTY


def test_lru_eviction_order_matches_dict_semantics():
    cache = small_flat()
    stride = cache.num_sets * 64
    blocks = [i * stride for i in range(5)]
    for block in blocks[:4]:
        cache.fill(block)
    cache.demand_access(blocks[0], False)  # promote block 0
    assert cache.fill(blocks[4]) == blocks[1]
    assert cache.contains(blocks[0])


def test_prefetched_line_lifecycle_and_counters():
    cache = small_flat()
    cache.fill(0x100, prefetched=True)
    assert line_flags(cache, 0x100) == FLAG_PREFETCHED
    assert cache.demand_access(0x100, False) == FLAG_PREFETCHED
    assert line_flags(cache, 0x100) & FLAG_USED
    stride = cache.num_sets * 64
    cache.fill(0x200, prefetched=True, pc=0x51, core=2)
    for i in range(1, 4):
        cache.fill(0x200 + i * stride)
    assert cache.fill(0x200 + 4 * stride) == 0x200
    # Evicted unused: the system counts it as an overfetch.
    assert (cache.victim_flags, cache.victim_pc, cache.victim_core) == (
        FLAG_PREFETCHED, 0x51, 2)


def test_clean_and_touch_set_dirty():
    cache = small_flat()
    cache.fill(0x300, dirty=True)
    assert cache.clean(0x300) is True
    assert cache.clean(0x300) is False
    assert cache.touch_set_dirty(0x340) is False
    assert not cache.contains(0x340)
    cache.fill(0x340)
    cache.fill(0x340 + cache.num_sets * 64)
    assert cache.touch_set_dirty(0x340) is True
    assert line_flags(cache, 0x340) & FLAG_DIRTY
    # The touch promoted the block to most recently used.
    assert recency_order(cache, (0x340 >> 6) % cache.num_sets)[-1] == 0x340


def test_capacity_never_exceeded():
    cache = small_flat(size=1024, assoc=2)
    for i in range(200):
        cache.fill(i * 64)
    assert resident(cache) <= cache.params.num_blocks


# --------------------------------------------------------------------- #
# Lockstep against the reference LRU
# --------------------------------------------------------------------- #
OPERATIONS = ("access", "write", "fill", "prefetch", "clean", "touch",
              "contains")


def test_lru_stamps_reproduce_dict_order_under_long_streams():
    """Every call agrees with the reference LRU, and so does every set's
    recency order read from the ``stamps`` plane.  Fills, like the
    simulator's, only ever name an absent block; a fill's victim is
    compared with its flag byte, PC and core."""
    params = CacheParams(size_bytes=2 * 1024, associativity=4)
    flat = CacheArray(params)
    reference = ReferenceLRU(params.num_sets, params.associativity)
    rng = random.Random(11)
    victims = 0
    for step in range(6_000):
        op = rng.choice(OPERATIONS)
        block = rng.randrange(256) * 64
        if op in ("access", "write"):
            got = flat.demand_access(block, op == "write")
            want = reference.demand_access(block, op == "write")
        elif op in ("fill", "prefetch"):
            kwargs = dict(dirty=rng.random() < 0.3, prefetched=op == "prefetch",
                          pc=rng.randrange(64), core=rng.randrange(4))
            if reference.contains(block):
                continue
            got = flat.fill(block, **kwargs)
            want = reference.fill(block, **kwargs)
            if want >= 0:
                victims += 1
                got = (got, flat.victim_flags, flat.victim_pc, flat.victim_core)
                want = (want, reference.victim_flags, reference.victim_pc,
                        reference.victim_core)
        elif op == "clean":
            got, want = flat.clean(block), reference.clean(block)
        elif op == "touch":
            got = flat.touch_set_dirty(block)
            want = reference.touch_set_dirty(block)
        else:
            got, want = flat.contains(block), reference.contains(block)
        assert got == want, f"step {step}: {op}(0x{block:x})"
    assert victims > 500  # the stream actually exercised evictions
    for set_index, lines in enumerate(reference.sets):
        assert recency_order(flat, set_index) == list(lines), (
            f"recency order diverged in set {set_index}")
        for block, (flags, _pc, _core) in lines.items():
            assert line_flags(flat, block) == flags


@pytest.mark.parametrize("config_name", ["base_open", "sms_vwq", "bump",
                                         "eager_writeback"])
def test_system_cache_calls_match_the_reference_lru(config_name):
    """Every L1 stage and LLC array call of a run agrees with the reference:
    demand accesses, demand and prefetch fills, L1 writebacks and eager or
    bulk writeback cleans, on a 256 KB LLC that evicts."""
    system_params = SystemParams().scaled(
        llc=CacheParams(size_bytes=256 * 1024, associativity=16,
                        hit_latency_cycles=8))
    config = named_configs([config_name])[config_name].with_overrides(
        system=system_params)
    system = ServerSystem(config)
    shadow = LRUShadow(system)
    result = system.run(build_trace("web_search", 3_000, num_cores=8),
                        warmup_accesses=1_200)
    assert shadow.mismatch is None
    assert result.counters["llc_evictions"] > 0


def test_stamps_stay_monotonic_across_evictions():
    """Every touch/insert in a set gets a strictly larger stamp, forever."""
    cache = small_flat(size=1024, assoc=2)
    rng = random.Random(5)
    max_stamp = 0
    for _ in range(5_000):
        block = rng.randrange(64) * 64 * cache.num_sets  # all in set 0
        if cache.demand_access(block, False) < 0:
            cache.fill(block)
        stamp = int(cache.stamps.reshape(-1)[cache._slot_of[block]])
        assert stamp > max_stamp, "every touch/insert must get a fresh stamp"
        max_stamp = stamp
    # The set's tick counter only ever grows (it survives evictions): one
    # tick per access-hit promote plus one per fill.
    assert cache._tick[0] == max_stamp >= 5_000


def test_flat_cache_requires_power_of_two_sets():
    with pytest.raises(ValueError):
        CacheArray(CacheParams(size_bytes=3 * 1024, associativity=4))
