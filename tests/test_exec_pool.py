"""The campaign engine's trace memo, the package's one in-process trace memo."""

import numpy as np
import pytest

from repro.exec import pool
from repro.exec.jobs import JobSpec
from repro.sim.config import base_open
from repro.sim.runner import build_trace, run_trace
from repro.workloads.catalog import get_workload


@pytest.fixture(autouse=True)
def _empty_memo():
    pool.clear_trace_memo()
    yield
    pool.clear_trace_memo()


def _job(workload="web_search", num_accesses=1000, num_cores=2, seed=1):
    return JobSpec(workload=workload, config=base_open(),
                   num_accesses=num_accesses, num_cores=num_cores, seed=seed)


class TestTraceMemo:
    def test_identical_jobs_share_one_trace(self):
        first = pool.job_trace(_job())
        assert pool.job_trace(_job()) is first
        assert pool.job_trace(_job(seed=2)) is not first
        assert first == build_trace("web_search", 1000, num_cores=2, seed=1)

    def test_memo_keys_on_spec_content_not_name(self):
        """Two specs sharing a name but differing in any knob never share."""
        spec = get_workload("web_search")
        tweaked = spec.with_overrides(coarse_job_fraction=0.9)
        assert tweaked.name == spec.name
        base = pool.job_trace(_job(spec))
        other = pool.job_trace(_job(tweaked))
        assert other is not base
        assert other.address.tolist() != base.address.tolist()
        # Both entries coexist and keep serving their own trace.
        assert pool.job_trace(_job(spec)) is base
        assert pool.job_trace(_job(tweaked)) is other

    def test_field_identical_spec_copies_hit(self):
        spec = get_workload("web_search")
        first = pool.job_trace(_job(spec))
        assert pool.job_trace(_job(spec.with_overrides())) is first
        assert len(pool._TRACE_MEMO) == 1

    def test_memo_is_bounded_by_lru_eviction(self):
        first = pool.job_trace(_job(num_accesses=200, seed=0))
        for seed in range(1, pool.TRACE_MEMO_MAX_ENTRIES + 3):
            pool.job_trace(_job(num_accesses=200, seed=seed))
        assert len(pool._TRACE_MEMO) == pool.TRACE_MEMO_MAX_ENTRIES
        # The oldest seed was evicted: asking again regenerates it.
        again = pool.job_trace(_job(num_accesses=200, seed=0))
        assert again is not first
        assert again == first

    def test_memo_recency_is_refreshed_on_hit(self):
        first = pool.job_trace(_job(num_accesses=200, seed=0))
        for seed in range(1, pool.TRACE_MEMO_MAX_ENTRIES):
            pool.job_trace(_job(num_accesses=200, seed=seed))
        # Touch seed 0 so it is the most recently used, then overflow.
        assert pool.job_trace(_job(num_accesses=200, seed=0)) is first
        pool.job_trace(_job(num_accesses=200, seed=pool.TRACE_MEMO_MAX_ENTRIES))
        assert pool.job_trace(_job(num_accesses=200, seed=0)) is first

    def test_clear_trace_memo_resets_occupancy(self):
        pool.job_trace(_job(num_accesses=200))
        assert len(pool._TRACE_MEMO) == 1
        pool.clear_trace_memo()
        assert len(pool._TRACE_MEMO) == 0

    def test_memoized_trace_columns_are_read_only(self):
        trace = pool.job_trace(_job(num_accesses=500))
        for column in (trace.core, trace.pc, trace.address, trace.is_store,
                       trace.instructions):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 0

    def test_mutation_attempt_cannot_corrupt_later_hits(self):
        first = pool.job_trace(_job(num_accesses=500))
        original = first.address.copy()
        with pytest.raises(ValueError):
            first.address[:] = 0
        second = pool.job_trace(_job(num_accesses=500))
        assert second is first
        assert np.array_equal(second.address, original)

    def test_read_only_trace_still_simulates(self):
        job = _job(num_accesses=1000, num_cores=4, seed=3)
        trace = pool.job_trace(job)
        result = run_trace(trace, base_open(), warmup_fraction=0.0)
        assert result.counters["accesses"] == 1000
