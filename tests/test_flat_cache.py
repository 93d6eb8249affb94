"""Unit and property tests for the LLC array.

The array must behave exactly like the cache layer's specification, a
reference LRU of one ordered dict per set
(:class:`repro.fuzz.reference_lru.ReferenceLRU`): same hits, victims, flag
updates and -- critically -- the same replacement order.  The lockstep test
drives a long randomized stream of the five calls the simulator makes
through both and compares every result, then each set's recency order, the
order of the array's per-set dict.  A shadowed system run then checks the
call sequences the simulator itself makes, with an LLC small enough to
evict.  The line-word tests pin the packing of flags, core and PC.
"""

import random

import pytest

from cache_planes import line_flags, recency_order, resident
from repro.cache.flat import (
    FLAG_DIRTY,
    FLAG_PREFETCHED,
    FLAG_USED,
    MAX_CORES,
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


def test_lru_sets_reproduce_dict_order_under_long_streams():
    """Every call agrees with the reference LRU, and so does every set's
    recency order, the order of the array's dict for that set.  Fills,
    like the simulator's, only ever name an absent block; a fill's victim
    is compared with its flag byte, PC and core."""
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


def test_every_touch_and_fill_makes_the_block_most_recent():
    """A hit, a writeback touch and a fill each move their block to the end
    of its set, forever: after 5,000 calls on one 2-way set, with thousands
    of evictions, the set's order is the blocks' last-use order."""
    cache = small_flat(size=1024, assoc=2)
    rng = random.Random(5)
    last_use = {}
    for step in range(5_000):
        block = rng.randrange(64) * 64 * cache.num_sets  # all in set 0
        if rng.random() < 0.2:
            touched = cache.touch_set_dirty(block)
        else:
            touched = cache.demand_access(block, False) >= 0
        if not touched:
            victim = cache.fill(block)
            last_use.pop(victim, None)
        last_use[block] = step
        assert recency_order(cache, 0)[-1] == block
    assert recency_order(cache, 0) == sorted(last_use, key=last_use.get)
    assert len(last_use) == cache.ways


# --------------------------------------------------------------------- #
# Line words: flags, core and PC packed into one int per line
# --------------------------------------------------------------------- #
#: Every flag byte a line can hold: the calls that make it from a fill.
REACHABLE_FLAGS = {
    FLAG_USED: ("fill",),
    FLAG_USED | FLAG_DIRTY: ("fill dirty",),
    FLAG_PREFETCHED: ("prefetch",),
    FLAG_PREFETCHED | FLAG_DIRTY: ("prefetch dirty",),
    FLAG_PREFETCHED | FLAG_USED: ("prefetch", "read"),
    FLAG_PREFETCHED | FLAG_USED | FLAG_DIRTY: ("prefetch dirty", "read", "clean",
                                               "write"),
}


@pytest.mark.parametrize("flags", sorted(REACHABLE_FLAGS))
@pytest.mark.parametrize("pc", [0, 1, 0x4A5_B6C7, 2**63 - 1])
def test_line_word_fields_read_back_exactly_after_eviction(flags, pc):
    """Each flag combination, PC 2**63 - 1 (the largest a trace may carry)
    and the highest core of the largest system come back from an eviction
    unchanged, with no field leaking into another."""
    cache = CacheArray(CacheParams(size_bytes=1024, associativity=2),
                       num_cores=MAX_CORES)
    core = MAX_CORES - 1
    block = 0x40
    steps = REACHABLE_FLAGS[flags]
    cache.fill(block, dirty=steps[0].endswith("dirty"),
               prefetched=steps[0].startswith("prefetch"), pc=pc, core=core)
    for step in steps[1:]:
        if step == "clean":
            assert cache.clean(block)
        else:
            cache.demand_access(block, step == "write")
    assert line_flags(cache, block) == flags
    stride = cache.num_sets * 64
    assert cache.fill(block + stride, pc=pc, core=core) == -1
    assert cache.fill(block + 2 * stride) == block
    assert (cache.victim_flags, cache.victim_pc, cache.victim_core) == (
        flags, pc, core)


def test_system_refuses_cores_a_line_word_cannot_hold():
    """The core field is CORE_BITS wide: one core more than it can name is
    refused when the system is built, never packed into the PC bits."""
    params = SystemParams().scaled(num_cores=MAX_CORES + 1)
    config = named_configs(["base_open"])["base_open"].with_overrides(
        system=params)
    with pytest.raises(ValueError, match="cores do not fit"):
        ServerSystem(config)
    with pytest.raises(ValueError, match="cores do not fit"):
        CacheArray(params.llc, num_cores=MAX_CORES + 1)
    CacheArray(params.llc, num_cores=MAX_CORES)


def test_flat_cache_requires_power_of_two_sets():
    with pytest.raises(ValueError):
        CacheArray(CacheParams(size_bytes=3 * 1024, associativity=4))
