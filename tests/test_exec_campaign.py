"""Campaign orchestration: parallel parity, store resume, progress streaming.

These tests carry the subsystem's acceptance criteria: a grid of 12
(workload x config x seed) jobs run with four workers must produce results
bit-identical to the serial path, and a second invocation against the same
artifact store must complete without re-simulating anything.
"""

import pytest

from repro.common.params import CacheParams, DRAMOrganization, SystemParams
from repro.exec.campaign import (
    Campaign,
    CampaignError,
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

    def test_all_cached_rerun_only_reads_the_store(self, store):
        jobs = small_grid(seeds=(1,)).expand()[:2]
        Campaign(jobs, store=store, workers=1).run()
        reopened = ArtifactStore(store.root)
        rerun = Campaign(jobs, store=reopened, workers=2).run()
        assert rerun.cached_count == 2
        assert reopened.counters == {"hits": 2, "misses": 0, "puts": 0,
                                     "corrupt": 0}

    def test_serial_campaign_publishes_each_trace_once(self, store):
        from repro.exec import pool

        jobs = small_grid(seeds=(1,)).expand()  # 2 traces x 3 systems
        pool.clear_trace_memo()
        Campaign(jobs, store=store, workers=1).run()
        assert store.counters["puts"] == len(jobs) + 2
        assert len(list((store.root / "traces").glob("*.npy"))) == 2
        assert len(list((store.root / "results").glob("*.pkl"))) == len(jobs)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_damaged_cell_is_resimulated_and_rewritten(self, tmp_path,
                                                       workers):
        """A truncated result and trace are misses: that one cell reruns."""
        from repro.exec import pool

        jobs = small_grid(seeds=(1,)).expand()
        clean = [result_fingerprint(o.result)
                 for o in Campaign(jobs, workers=1).run().outcomes]
        root = tmp_path / "artifacts"
        pool.clear_trace_memo()  # so the store run publishes the traces
        Campaign(jobs, store=ArtifactStore(root), workers=workers).run()
        damaged = jobs[0]
        files = [root / "results" / f"{damaged.result_fingerprint()}.pkl",
                 root / "traces" / f"{damaged.trace_fingerprint()}.npy"]
        sizes = [path.stat().st_size for path in files]
        for path, size in zip(files, sizes):
            path.write_bytes(path.read_bytes()[:size // 2])

        pool.clear_trace_memo()
        store = ArtifactStore(root)
        rerun = Campaign(jobs, store=store, workers=workers).run()
        assert [o.source for o in rerun.outcomes] == (
            ["simulated"] + ["store"] * (len(jobs) - 1))
        assert [path.stat().st_size for path in files] == sizes
        assert [result_fingerprint(o.result) for o in rerun.outcomes] == clean
        if workers == 1:
            # The result pre-check and the trace lookup each met one.
            assert store.counters["corrupt"] == 2


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

    def test_storeless_campaign_writes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        jobs = small_grid(seeds=(1,)).expand()[:2]
        outcome = Campaign(jobs, store=None, workers=2).run()
        assert outcome.simulated_count == 2
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def _jobs_with_a_broken_system():
        broken = small_configs(["bump"])[0].with_overrides(
            name="no_channels",
            system=SMALL.scaled(dram_org=DRAMOrganization(channels=0)))
        return JobGrid(workloads=["web_search"],
                       configs=small_configs(["base_open"]) + [broken],
                       seeds=(1,), num_accesses=1500, num_cores=4).expand()

    def test_failing_serial_job_raises_its_own_error(self):
        with pytest.raises(ValueError, match="channels"):
            Campaign(self._jobs_with_a_broken_system(), workers=1).run()

    def test_failing_parallel_job_raises_campaign_error_naming_it(self):
        good, broken = self._jobs_with_a_broken_system()
        with pytest.raises(CampaignError, match="channels") as err:
            Campaign([good, broken], workers=2).run()
        assert broken.label in str(err.value)
        assert good.label not in str(err.value)

    def test_precompute_seeds_the_figure_cache(self):
        from repro.analysis import experiments
        from repro.analysis.figures import FIGURES, precompute

        experiments.clear_result_cache()
        try:
            campaigns = precompute([FIGURES["figure2"], FIGURES["table4"]],
                                   ["web_search"], num_accesses=2000, workers=2)
            outcome = campaigns[2000]
            assert len(outcome) == 5
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

    def test_identical_demand_work_across_shared_trace(self):
        # Jobs sharing a trace fingerprint must observe the identical stream:
        # the processor-side access count matches across configurations.
        jobs = small_grid(seeds=(1,)).expand()
        outcome = Campaign(jobs, workers=4).run()
        base = outcome.get("web_search", "base_open", seed=1)
        bump = outcome.get("web_search", "bump", seed=1)
        assert base.counters["accesses"] == bump.counters["accesses"]


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


class TestConsoleProgressLines:
    def _progress(self):
        import io

        from repro.exec.progress import ConsoleProgress

        stream = io.StringIO()
        return ConsoleProgress(stream=stream), stream

    def test_start_line_counts_cached_jobs_and_workers(self):
        progress, stream = self._progress()
        progress.on_start(total_jobs=4, cached_jobs=1, workers=1)
        progress.on_start(total_jobs=4, cached_jobs=0, workers=2)
        assert stream.getvalue().splitlines() == [
            "campaign: 4 jobs (1 already in store), 1 worker",
            "campaign: 4 jobs (0 already in store), 2 workers",
        ]

    def test_job_line_names_its_position_job_and_source(self, monkeypatch):
        import repro.exec.progress as progress_module

        monkeypatch.setattr(progress_module.time, "perf_counter", lambda: 5.0)
        job = small_grid(seeds=(1,)).expand()[0]
        progress, stream = self._progress()
        progress.on_start(total_jobs=12, cached_jobs=3, workers=1)
        progress.on_job_done(job, "store", completed=3, total=12)
        assert stream.getvalue().splitlines()[-1] == (
            f"[   3/12] {job.label} (store, 0.0s)")

    def test_finish_line_counts_simulated_and_cached_jobs(self):
        progress, stream = self._progress()
        progress.on_finish(simulated=1, cached=1, elapsed_seconds=2.5)
        assert stream.getvalue() == (
            "campaign done: 1 simulated, 1 from store, 2.5s\n")
