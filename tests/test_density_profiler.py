"""Unit tests for the region access density profiler (Figure 5 / Table I)."""

import pytest

from agent_harness import AgentHarness
from repro.common.addressing import BLOCK_SIZE, REGION_SIZE
from repro.workloads.density import RegionDensityProfiler, density_class


def profiler_harness():
    return AgentHarness(RegionDensityProfiler())


def block(region, offset):
    return region * REGION_SIZE + offset * BLOCK_SIZE


def test_density_class_boundaries():
    assert density_class(0.0) == "low"
    assert density_class(0.24) == "low"
    assert density_class(0.25) == "medium"
    assert density_class(0.49) == "medium"
    assert density_class(0.5) == "high"
    assert density_class(1.0) == "high"


def test_dense_read_region_classified_high():
    profiler = profiler_harness()
    for offset in range(12):
        profiler.access(1, block(0, offset), hit=False)
    profiler.evict(block(0, 0))
    report = profiler.agent.report()
    assert report.read_density["high"] == pytest.approx(1.0)
    assert report.total_reads == 12


def test_sparse_regions_classified_low():
    profiler = profiler_harness()
    for region in range(10):
        profiler.access(1, block(region, 0), hit=False)
        profiler.evict(block(region, 0))
    report = profiler.agent.report()
    assert report.read_density["low"] == pytest.approx(1.0)


def test_mixed_density_weighted_by_accesses():
    profiler = profiler_harness()
    # One dense region with 8 misses, one sparse region with 2 misses.
    for offset in range(8):
        profiler.access(1, block(0, offset), hit=False)
    for offset in (0, 1):
        profiler.access(1, block(1, offset), hit=False)
    report = profiler.agent.report()
    assert report.read_density["high"] == pytest.approx(0.8)
    assert report.read_density["low"] + report.read_density["medium"] == pytest.approx(0.2)


def test_write_density_tracks_modified_blocks():
    profiler = profiler_harness()
    for offset in range(10):
        profiler.access(1, block(3, offset), store=True, hit=False)
    for offset in range(10):
        profiler.evict(block(3, offset), dirty=True)
    report = profiler.agent.report()
    assert report.write_density["high"] == pytest.approx(1.0)
    assert report.total_writes == 10


def test_late_write_fraction_measures_post_eviction_stores():
    profiler = profiler_harness()
    # 8 blocks written, then the first dirty eviction, then 2 more blocks
    # written while the region's blocks are still trickling out (LLC hits).
    for offset in range(8):
        profiler.access(1, block(5, offset), store=True, hit=False)
    profiler.evict(block(5, 0), dirty=True)
    for offset in (8, 9):
        profiler.access(1, block(5, offset), store=True, hit=True)
    report = profiler.agent.report()
    assert report.late_write_fraction == pytest.approx(2 / 10)


def test_ideal_row_hit_ratio_counts_one_activation_per_lifetime():
    profiler = profiler_harness()
    # 16 reads to one region within a lifetime: 15 of 16 could be row hits.
    for offset in range(16):
        profiler.access(1, block(7, offset), hit=False)
    profiler.evict(block(7, 0))
    report = profiler.agent.report()
    assert report.ideal_row_hit_ratio == pytest.approx(15 / 16)


def test_new_lifetime_starts_after_termination_and_refetch():
    profiler = profiler_harness()
    for offset in range(4):
        profiler.access(1, block(9, offset), hit=False)
    profiler.evict(block(9, 0))
    # The region is touched again later, missing in the LLC: a new lifetime.
    for offset in range(2):
        profiler.access(1, block(9, offset), hit=False)
    report = profiler.agent.report()
    assert report.total_reads == 6


def test_high_density_access_fraction_combines_reads_and_writes():
    profiler = profiler_harness()
    for offset in range(12):
        profiler.access(1, block(0, offset), store=True, hit=False)
    for offset in range(12):
        profiler.evict(block(0, offset), dirty=True)
    report = profiler.agent.report()
    assert report.high_density_access_fraction == pytest.approx(1.0)
