"""Unit tests for the set-associative cache array (LRU, write-back)."""

import pytest

from cache_planes import line_flags, resident
from repro.cache.flat import (
    FLAG_DIRTY,
    FLAG_PREFETCHED,
    FLAG_USED,
    CacheArray,
)
from repro.common.params import CacheParams


def small_cache(size=4 * 1024, assoc=4):
    return CacheArray(CacheParams(size_bytes=size, associativity=assoc))


def test_miss_then_fill_then_hit():
    cache = small_cache()
    assert cache.demand_access(0x1000, False) == -1
    assert cache.fill(0x1000) == -1
    assert cache.demand_access(0x1000, False) >= 0
    assert not line_flags(cache, 0x1000) & FLAG_DIRTY


def test_write_access_sets_dirty():
    cache = small_cache()
    cache.fill(0x40)
    cache.demand_access(0x40, True)
    assert line_flags(cache, 0x40) & FLAG_DIRTY


def test_fill_dirty_flag_persists():
    cache = small_cache()
    cache.fill(0x80, dirty=True)
    assert line_flags(cache, 0x80) & FLAG_DIRTY


def test_eviction_of_lru_line_within_set():
    # 4-way cache: the fifth block mapping to the same set evicts the LRU one.
    cache = small_cache()
    set_stride = cache.num_sets * 64
    blocks = [i * set_stride for i in range(5)]
    for block in blocks[:4]:
        cache.fill(block)
    cache.demand_access(blocks[0], False)  # promote block 0
    assert cache.fill(blocks[4]) == blocks[1]
    assert cache.contains(blocks[0])


def test_dirty_victim_reports_dirty():
    cache = small_cache()
    set_stride = cache.num_sets * 64
    for i in range(4):
        cache.fill(i * set_stride, dirty=(i == 0))
    assert cache.fill(4 * set_stride) == 0
    assert cache.victim_flags & FLAG_DIRTY


def test_prefetched_line_becomes_used_on_access():
    cache = small_cache()
    cache.fill(0x100, prefetched=True)
    assert line_flags(cache, 0x100) & (FLAG_PREFETCHED | FLAG_USED) == FLAG_PREFETCHED
    assert cache.demand_access(0x100, False) == FLAG_PREFETCHED
    assert line_flags(cache, 0x100) & FLAG_USED
    assert cache.demand_access(0x100, False) & FLAG_USED


def test_unused_prefetch_eviction_is_counted():
    cache = small_cache()
    set_stride = cache.num_sets * 64
    cache.fill(0, prefetched=True)
    for i in range(1, 4):
        cache.fill(i * set_stride)
    assert cache.fill(4 * set_stride) == 0
    # The system counts this victim as an overfetch: prefetched, never used.
    assert cache.victim_flags & (FLAG_PREFETCHED | FLAG_USED) == FLAG_PREFETCHED


def test_clean_clears_dirty_only_when_dirty():
    cache = small_cache()
    cache.fill(0x300, dirty=True)
    assert cache.clean(0x300) is True
    assert cache.clean(0x300) is False
    assert not line_flags(cache, 0x300) & FLAG_DIRTY


def test_resident_count_and_hit_ratio():
    cache = small_cache()
    assert resident(cache) == 0
    cache.fill(0)
    outcomes = [cache.demand_access(0, False) >= 0,
                cache.demand_access(64, False) >= 0]
    assert resident(cache) == 1
    assert outcomes.count(True) / len(outcomes) == pytest.approx(0.5)


def test_capacity_never_exceeded():
    cache = small_cache(size=1024, assoc=2)
    for i in range(200):
        cache.fill(i * 64)
    assert resident(cache) <= cache.params.num_blocks
