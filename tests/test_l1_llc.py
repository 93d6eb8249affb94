"""Unit tests for the L1 filter and the shared LLC."""

import pytest

from repro.cache.l1 import L1DataCache
from repro.cache.llc import LastLevelCache
from repro.common.params import CacheParams


def make_l1(core=0):
    return L1DataCache(CacheParams(size_bytes=4 * 1024, associativity=2), core)


def make_llc(size=64 * 1024, assoc=4):
    return LastLevelCache(CacheParams(size_bytes=size, associativity=assoc))


# --------------------------------------------------------------------- #
# L1
# --------------------------------------------------------------------- #
def test_l1_miss_then_hit_same_block():
    l1 = make_l1()
    first = l1.access(0x1234, is_store=False)
    assert not first.hit
    second = l1.access(0x1238, is_store=False)  # same 64B block
    assert second.hit


def test_l1_store_marks_block_dirty():
    l1 = make_l1()
    l1.access(0x40, is_store=True)
    assert l1.lookup_dirty(0x40)
    assert not l1.lookup_dirty(0x80)


def test_l1_dirty_eviction_produces_writeback():
    l1 = make_l1()
    num_sets = 4 * 1024 // (2 * 64)
    stride = num_sets * 64
    l1.access(0, is_store=True)
    l1.access(stride, is_store=False)
    result = l1.access(2 * stride, is_store=False)
    assert len(result.writebacks) == 1
    assert result.writebacks[0].block_address == 0
    assert result.writebacks[0].dirty


def test_l1_clean_eviction_produces_no_writeback():
    l1 = make_l1()
    num_sets = 4 * 1024 // (2 * 64)
    stride = num_sets * 64
    for i in range(3):
        result = l1.access(i * stride, is_store=False)
        assert result.writebacks == []


# --------------------------------------------------------------------- #
# LLC
# --------------------------------------------------------------------- #
def test_llc_demand_miss_hit_cycle():
    llc = make_llc()
    assert llc.access(0x1000, is_write=False) is None
    llc.fill(0x1000)
    assert llc.access(0x1000, is_write=False) is not None
    assert llc.stats["demand_misses"] == 1
    assert llc.stats["demand_hits"] == 1
    assert llc.demand_hit_ratio == pytest.approx(0.5)


def test_llc_write_hit_dirties_block():
    llc = make_llc()
    llc.fill(0x40)
    llc.access(0x40, is_write=True)
    assert llc.probe(0x40).dirty


def test_llc_write_from_l1_allocates_dirty_when_absent():
    llc = make_llc()
    victim = llc.write_from_l1(0x80)
    assert victim is None
    assert llc.probe(0x80).dirty


def test_llc_write_from_l1_marks_existing_block_dirty():
    llc = make_llc()
    llc.fill(0x80)
    llc.write_from_l1(0x80)
    assert llc.probe(0x80).dirty


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
    assert llc.clean(0x100) is True
    assert llc.clean(0x140) is False
    assert llc.clean(0x999999) is False
    assert llc.stats["eager_cleaned_blocks"] == 1


def test_llc_dirty_blocks_in_region():
    llc = make_llc()
    base = 2048
    llc.fill(base, dirty=True)
    llc.fill(base + 64, dirty=False)
    llc.fill(base + 128, dirty=True)
    assert set(llc.dirty_blocks_in_region(base, 1024)) == {base, base + 128}


def test_llc_traffic_ops_counts_probes_and_fills():
    llc = make_llc()
    llc.access(0, is_write=False)
    llc.fill(0)
    llc.probe(0)
    llc.clean(0)
    assert llc.stats["traffic_ops"] == 4
    llc.probe(0, count_traffic=False)
    assert llc.stats["traffic_ops"] == 4


def test_llc_dirty_eviction_statistics():
    llc = make_llc(size=1024, assoc=2)
    stride = llc.params.num_sets * 64
    llc.fill(0, dirty=True)
    llc.fill(stride)
    victim = llc.fill(2 * stride)
    assert victim is not None and victim.dirty
    assert llc.stats["dirty_evictions"] == 1
