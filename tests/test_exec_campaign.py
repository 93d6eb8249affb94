"""Campaign orchestration: parallel parity, store resume, progress streaming.

These tests carry the subsystem's acceptance criteria: a grid of 12
(workload x config x seed) jobs run with four workers must produce results
bit-identical to the serial path, and a second invocation against the same
artifact store must complete without re-simulating anything.
"""

import pytest

from repro.common.params import CacheParams, SystemParams
from repro.exec.campaign import (
    Campaign,
    run_campaign,
    run_job,
    result_fingerprint,
    verify_parity,
)
from repro.exec.jobs import JobGrid, JobSpec
from repro.exec.progress import RecordingProgress
from repro.exec.store import ArtifactStore
from repro.sim.config import bump_system, named_configs

#: Small LLC so the tiny test traces still produce DRAM traffic.
SMALL = SystemParams().scaled(
    llc=CacheParams(size_bytes=256 * 1024, associativity=16, hit_latency_cycles=8)
)


def small_configs(names):
    return [config.with_overrides(system=SMALL)
            for config in named_configs(names).values()]


def small_grid(num_accesses=1500, seeds=(1, 2)):
    """2 workloads x 3 systems x 2 seeds = 12 jobs."""
    return JobGrid(
        workloads=["web_search", "media_streaming"],
        configs=small_configs(["base_open", "bump", "vwq"]),
        seeds=seeds,
        num_accesses=num_accesses,
        num_cores=4,
        warmup_fraction=0.25,
    )


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "artifacts")


class TestSharding:
    def test_jobs_sharing_a_trace_form_one_shard(self):
        from repro.exec.pool import shard_jobs

        jobs = list(enumerate(small_grid().expand()))  # 4 traces x 3 configs
        shards = shard_jobs(jobs, workers=4)
        assert len(shards) == 4
        for shard in shards:
            fingerprints = {job.trace_fingerprint() for _, job in shard}
            assert len(fingerprints) == 1

    def test_single_trace_grids_still_use_every_worker(self):
        from repro.exec.pool import shard_jobs

        grid = JobGrid(workloads=["web_search"],
                       configs=small_configs(["base_open", "bump", "vwq"]),
                       seeds=(1,), num_accesses=1000, num_cores=4)
        shards = shard_jobs(list(enumerate(grid.expand())), workers=3)
        assert len(shards) == 3
        assert sorted(len(shard) for shard in shards) == [1, 1, 1]

    def test_splitting_stops_at_singleton_shards(self):
        from repro.exec.pool import shard_jobs

        grid = JobGrid(workloads=["web_search"], configs=small_configs(["bump"]),
                       seeds=(1,), num_accesses=1000, num_cores=4)
        shards = shard_jobs(list(enumerate(grid.expand())), workers=8)
        assert len(shards) == 1


class TestParallelParity:
    def test_twelve_job_grid_with_four_workers_matches_serial(self):
        jobs = small_grid().expand()
        assert len(jobs) == 12
        serial = Campaign(jobs, store=None, workers=1).run()
        parallel = Campaign(jobs, store=None, workers=4).run()
        assert len(parallel) == 12
        for left, right in zip(serial.outcomes, parallel.outcomes):
            assert left.job.label == right.job.label
            assert result_fingerprint(left.result) == result_fingerprint(right.result)
            assert left.result.summary() == right.result.summary()

    def test_verify_parity_passes_and_reports_digests(self):
        jobs = small_grid(seeds=(1,)).expand()[:2]
        digests = verify_parity(jobs, workers=2)
        assert set(digests) == {job.label for job in jobs}

    def test_store_round_trip_preserves_parity(self, store):
        job = small_grid(seeds=(1,)).expand()[0]
        fresh = run_job(job, store=None)
        run_job(job, store=store)          # simulates and persists
        restored = run_job(job, store=store)  # pure store hit
        assert result_fingerprint(restored) == result_fingerprint(fresh)


class TestResume:
    def test_second_invocation_completes_from_store(self, store):
        jobs = small_grid().expand()
        first = Campaign(jobs, store=store, workers=4).run()
        assert first.simulated_count == 12 and first.cached_count == 0

        progress = RecordingProgress()
        second = Campaign(jobs, store=store, workers=4,
                          progress=progress).run()
        assert second.simulated_count == 0
        assert second.cached_count == 12
        assert progress.started == (12, 12, 4)
        assert all(source == "store" for _, source in progress.events)
        # And the restored results are the ones the first run computed.
        first_digests = [result_fingerprint(o.result) for o in first.outcomes]
        second_digests = [result_fingerprint(o.result) for o in second.outcomes]
        assert first_digests == second_digests

    def test_partial_run_resumes_only_missing_jobs(self, store):
        jobs = small_grid().expand()
        # Simulate a crashed sweep: only the first 5 jobs completed.
        Campaign(jobs[:5], store=store, workers=1).run()
        resumed = Campaign(jobs, store=store, workers=2).run()
        assert resumed.cached_count == 5
        assert resumed.simulated_count == 7

    def test_serial_and_parallel_share_one_store(self, store):
        jobs = small_grid(seeds=(1,)).expand()
        Campaign(jobs, store=store, workers=2).run()
        serial = Campaign(jobs, store=store, workers=1).run()
        assert serial.simulated_count == 0


class TestCampaignResult:
    def test_results_indexed_by_workload_config_seed(self):
        jobs = small_grid(seeds=(1,)).expand()
        outcome = Campaign(jobs, workers=1).run()
        table = outcome.results()
        assert ("web_search", "bump", 1) in table
        assert outcome.get("web_search", "bump").config_name == "bump"
        assert outcome.get("media_streaming", "vwq", seed=1).workload == "media_streaming"

    def test_get_rejects_ambiguous_and_missing_lookups(self):
        jobs = small_grid(num_accesses=1200).expand()
        outcome = Campaign(jobs, workers=1).run()
        with pytest.raises(KeyError):
            outcome.get("web_search", "bump")  # two seeds -> ambiguous
        with pytest.raises(KeyError):
            outcome.get("web_search", "no_such_system", seed=1)

    def test_progress_stream_counts_every_job(self):
        jobs = small_grid(seeds=(1,)).expand()
        progress = RecordingProgress()
        outcome = run_campaign(jobs, workers=2, progress=progress)
        assert progress.started == (6, 0, 2)
        assert len(progress.events) == 6
        assert progress.finished == (6, 0)
        assert outcome.simulated_count == 6

    def test_rejects_invalid_worker_count(self):
        with pytest.raises(ValueError):
            Campaign([], workers=0)

    def test_run_experiment_campaign_seeds_the_figure_cache(self):
        from repro.analysis import experiments

        experiments.clear_result_cache()
        try:
            outcome = experiments.run_experiment_campaign(
                ["web_search"], systems=["base_open", "bump"],
                num_accesses=2000, workers=2)
            assert len(outcome) == 2
            bump = JobSpec(workload="web_search", config=bump_system(),
                           num_accesses=2000, seed=experiments.DEFAULT_SEED)
            assert bump.result_fingerprint() in experiments._RESULT_CACHE
            # The figure function must now be a pure cache lookup.
            table = experiments.figure2_row_buffer_hit(["web_search"],
                                                       num_accesses=2000)
            assert table["web_search"]["base_open"] == pytest.approx(
                outcome.get("web_search", "base_open").row_buffer_hit_ratio)
        finally:
            experiments.clear_result_cache()

    def test_core_scaling_performance_runs_as_one_campaign(self):
        from repro.analysis.scalability import core_scaling_performance

        table = core_scaling_performance(core_counts=(2, 4),
                                         workload="web_search",
                                         num_accesses=1500, workers=2)
        assert set(table) == {2, 4}
        for row in table.values():
            assert {"base_row_buffer_hit_ratio", "bump_row_buffer_hit_ratio",
                    "bump_energy_improvement", "bump_speedup"} <= set(row)

    def test_identical_demand_work_across_shared_trace(self):
        # Jobs sharing a trace fingerprint must observe the identical stream:
        # the processor-side access count matches across configurations.
        jobs = small_grid(seeds=(1,)).expand()
        outcome = Campaign(jobs, workers=4).run()
        base = outcome.get("web_search", "base_open", seed=1)
        bump = outcome.get("web_search", "bump", seed=1)
        assert base.counters["accesses"] == bump.counters["accesses"]


class TestCampaignMetrics:
    def test_serial_campaign_records_per_job_cost(self, store):
        jobs = small_grid(seeds=(1,)).expand()  # 6 jobs
        result = Campaign(jobs, store=store, workers=1).run()
        assert len(result.job_metrics) == len(jobs)
        assert all(m.source == "simulated" for m in result.job_metrics)
        assert all(m.wall_seconds > 0 for m in result.job_metrics)
        assert all(m.peak_rss_bytes > 0 for m in result.job_metrics)
        document = result.metrics
        assert document["jobs_simulated"] == len(jobs)
        assert document["workers"] == 1
        assert 0.0 < document["worker_utilization"] <= 1.0
        assert document["store"]["puts"] > 0

    def test_metrics_document_is_persisted_next_to_the_store(self, store):
        jobs = small_grid(seeds=(1,)).expand()
        result = Campaign(jobs, store=store, workers=1).run()
        from repro.telemetry import read_campaign_metrics

        assert result.metrics_path is not None
        assert result.metrics_path.parent == store.root / "metrics"
        loaded = read_campaign_metrics(result.metrics_path)
        assert loaded["jobs_total"] == len(jobs)
        # Re-running the identical sweep overwrites its own document.
        again = Campaign(jobs, store=store, workers=1).run()
        assert again.metrics_path == result.metrics_path

    def test_all_cached_rerun_reports_zero_utilization(self, store):
        jobs = small_grid(seeds=(1,)).expand()
        Campaign(jobs, store=store, workers=1).run()
        rerun = Campaign(jobs, store=store, workers=1).run()
        assert rerun.metrics["jobs_from_store"] == len(jobs)
        assert rerun.metrics["worker_utilization"] == 0.0
        assert all(m.wall_seconds == 0.0 for m in rerun.job_metrics)

    def test_storeless_campaign_builds_but_does_not_persist_metrics(self):
        jobs = small_grid(seeds=(1,)).expand()[:2]
        result = Campaign(jobs, store=None, workers=1).run()
        assert result.metrics_path is None
        assert result.metrics["jobs_total"] == 2
        assert "store" not in result.metrics

    def test_parallel_campaign_counts_its_workers_store_activity(self, store):
        jobs = small_grid(seeds=(1,)).expand()[:2]  # one trace, two configs
        counts = Campaign(jobs, store=store, workers=2).run().metrics["store"]
        # Here: two result pre-check misses.  In the workers: two result
        # misses and puts, and at least one trace miss and put.
        assert counts["puts"] >= 3
        assert counts["misses"] >= 5

    def test_repeated_campaign_reports_only_its_own_store_activity(self, store):
        jobs = small_grid(seeds=(1,)).expand()[:2]
        Campaign(jobs, store=store, workers=1).run()
        counts = Campaign(jobs, store=store, workers=1).run().metrics["store"]
        assert (counts["hits"], counts["misses"], counts["puts"]) == (2, 0, 0)
        assert counts["entries"] == store.entry_count()

    def test_parallel_campaign_attributes_work_to_worker_pids(self, store):
        jobs = small_grid(seeds=(1,)).expand()
        result = Campaign(jobs, store=store, workers=2).run()
        assert len(result.job_metrics) == len(jobs)
        by_pid = result.metrics["wall_seconds_by_pid"]
        assert len(by_pid) >= 1
        assert all(seconds > 0 for seconds in by_pid.values())


class TestConsoleProgressEta:
    def _progress(self):
        import io

        from repro.exec.progress import ConsoleProgress

        stream = io.StringIO()
        return ConsoleProgress(stream=stream), stream

    def _job(self):
        return small_grid(seeds=(1,)).expand()[0]

    def test_rate_and_eta_appear_mid_campaign(self):
        progress, stream = self._progress()
        progress.on_start(total_jobs=4, cached_jobs=0, workers=1)
        progress._start -= 2.0  # pretend two seconds elapsed
        progress.on_job_done(self._job(), "simulated", completed=1, total=4)
        line = stream.getvalue().splitlines()[-1]
        assert "job/s" in line
        assert "eta" in line

    def test_last_job_drops_the_eta_but_keeps_the_rate(self):
        progress, stream = self._progress()
        progress.on_start(total_jobs=2, cached_jobs=0, workers=1)
        progress._start -= 1.0
        progress.on_job_done(self._job(), "simulated", completed=2, total=2)
        line = stream.getvalue().splitlines()[-1]
        assert "job/s" in line
        assert "eta" not in line

    def test_instantaneous_all_cached_campaign_divides_by_nothing(self, monkeypatch):
        import repro.exec.progress as progress_module

        monkeypatch.setattr(progress_module.time, "perf_counter", lambda: 123.0)
        progress, stream = self._progress()
        progress.on_start(total_jobs=3, cached_jobs=3, workers=1)
        progress.on_job_done(self._job(), "store", completed=1, total=3)
        line = stream.getvalue().splitlines()[-1]
        assert "job/s" not in line and "eta" not in line
