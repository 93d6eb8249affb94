"""Unit tests for the L1 filter and the shared LLC."""

import numpy as np

from cache_planes import line_flags
from repro.cache.flat import FLAG_DIRTY
from repro.cache.l1 import StackedL1
from repro.cache.llc import LastLevelCache
from repro.common.params import CacheParams

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
    return LastLevelCache(CacheParams(size_bytes=size, associativity=assoc))


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
# LLC (the simulator's demand path calls the array, ``_cache``, directly)
# --------------------------------------------------------------------- #
def test_llc_demand_miss_hit_cycle():
    llc = make_llc()
    assert llc._cache.demand_access(0x1000, False) == -1
    llc.fill(0x1000)
    assert llc._cache.demand_access(0x1000, False) >= 0
    assert llc.array_stats["misses"] == 1
    assert llc.array_stats["hits"] == 1
    assert llc.stats["demand_fills"] == 1


def test_llc_write_hit_dirties_block():
    llc = make_llc()
    llc.fill(0x40)
    llc._cache.demand_access(0x40, True)
    assert line_flags(llc._cache, 0x40) & FLAG_DIRTY


def test_llc_write_from_l1_allocates_dirty_when_absent():
    llc = make_llc()
    victim = llc.write_from_l1(0x80)
    assert victim is None
    assert line_flags(llc._cache, 0x80) & FLAG_DIRTY


def test_llc_write_from_l1_marks_existing_block_dirty():
    llc = make_llc()
    llc.fill(0x80)
    llc.write_from_l1(0x80)
    assert line_flags(llc._cache, 0x80) & FLAG_DIRTY


def test_llc_overfetch_accounting():
    llc = make_llc(size=1024, assoc=2)
    stride = llc.params.num_sets * 64
    llc.fill(0, prefetched=True)
    for i in range(1, 4):
        llc.fill(i * stride)
    assert llc.stats["overfetched_blocks"] == 1


def test_llc_clean_counts_only_dirty_blocks():
    llc = make_llc()
    llc.fill(0x100, dirty=True)
    llc.fill(0x140, dirty=False)
    assert llc._cache.clean(0x100) is True
    assert llc._cache.clean(0x140) is False
    assert llc._cache.clean(0x999999) is False


def test_llc_traffic_ops_counts_probes_and_fills():
    llc = make_llc()
    llc.fill(0)            # one fill
    llc.write_from_l1(0)   # one probe (a hit)
    llc.write_from_l1(64)  # one probe (a miss) and one fill
    assert llc.stats["traffic_ops"] == 4


def test_llc_dirty_eviction_statistics():
    llc = make_llc(size=1024, assoc=2)
    stride = llc.params.num_sets * 64
    llc.fill(0, dirty=True)
    llc.fill(stride)
    victim = llc.fill(2 * stride)
    assert victim is not None and victim.dirty
    assert llc.stats["dirty_evictions"] == 1
