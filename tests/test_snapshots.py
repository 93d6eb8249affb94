"""Warm-state snapshot engine: capture/restore bit-identity and plumbing.

The acceptance bar for ``repro.sim.snapshot`` is absolute: restoring a
warmup snapshot and simulating the measured tail must produce the
*identical* :class:`SimulationResult` (full fingerprint, every counter and
energy figure) as an uninterrupted run -- on both DRAM engines, both DRAM
page policies, any chunking of the stream, scenario mid-phase boundaries,
and across process boundaries (snapshot written by one process, restored
in another).  A container that is damaged or from another format version
is rejected with ``ValueError``.
"""

import functools
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from broken_snapshots import BROKEN, rewrite_meta, write_broken, write_snapshot
from repro.exec.campaign import result_fingerprint, run_campaign
from repro.exec.jobs import JobGrid
from repro.exec.store import ArtifactStore
from repro.scenario.catalog import get_scenario
from repro.scenario.runner import run_scenario
from repro.sim.config import named_configs
from repro.sim.runner import build_trace, run_trace, run_workload
from repro.sim.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    capture,
    capture_warmup,
    load_snapshot,
    restore,
    save_snapshot,
    snapshot_fingerprint,
)
from repro.sim.system import ServerSystem
from repro.telemetry.metrics import (
    reset_snapshot_counters,
    snapshot_cache_info,
)
from repro.trace.buffer import as_chunk_iterator
from repro.workloads.catalog import get_workload

ACCESSES = 4_000
CORES = 4
SEED = 7
WORKLOAD = "web_search"


@pytest.fixture(autouse=True)
def _clean_counters():
    reset_snapshot_counters()
    yield
    reset_snapshot_counters()


def _config(name="bump"):
    return named_configs([name])[name]


@functools.lru_cache(maxsize=None)
def _trace():
    return build_trace(WORKLOAD, ACCESSES, num_cores=CORES, seed=SEED)


def _cold(config):
    return run_trace(_trace(), config, workload_name=WORKLOAD,
                     warmup_fraction=0.5)


def _warm_twice(config, store):
    """One miss-and-capture run followed by one hit-and-restore run."""
    key = snapshot_fingerprint(
        get_workload(WORKLOAD), config, ACCESSES // 2,
        num_cores=CORES, seed=SEED)
    first = run_trace(_trace(), config, workload_name=WORKLOAD,
                      warmup_fraction=0.5, warmup_snapshot=store,
                      snapshot_key=key)
    second = run_trace(_trace(), config, workload_name=WORKLOAD,
                       warmup_fraction=0.5, warmup_snapshot=store,
                       snapshot_key=key)
    return first, second


class TestEngineCube:
    @pytest.mark.parametrize("scheduler", ["frfcfs", "bank_round_robin"])
    def test_capture_restore_bit_identical(self, tmp_path, scheduler):
        # Round robin's per-core queues ride in the snapshot too.
        config = _config().with_overrides(scheduler=scheduler)
        cold = _cold(config)
        captured, restored = _warm_twice(config, ArtifactStore(tmp_path))
        assert result_fingerprint(cold) == result_fingerprint(captured), (
            f"{scheduler}: capture run diverged")
        assert result_fingerprint(cold) == result_fingerprint(restored), (
            f"{scheduler}: restored run diverged")


class TestPagePolicies:
    @pytest.mark.parametrize("system", ["base_open", "base_close"])
    def test_both_page_policies(self, tmp_path, system):
        config = _config(system)
        cold = _cold(config)
        captured, restored = _warm_twice(config, ArtifactStore(tmp_path))
        assert result_fingerprint(cold) == result_fingerprint(captured)
        assert result_fingerprint(cold) == result_fingerprint(restored)


class TestScenarios:
    SCALE = 0.01

    def test_mid_phase_warmup_boundary(self, tmp_path):
        """A warmup fraction that lands inside a scenario phase restores
        bit-identically (the boundary splits a phase, not just a chunk)."""
        scenario = get_scenario("phase-change", scale=self.SCALE)
        config = _config()
        store = ArtifactStore(tmp_path)
        cold = run_scenario(scenario, config, seed=SEED, warmup_fraction=0.4)
        captured = run_scenario(scenario, config, seed=SEED,
                                warmup_fraction=0.4, warmup_snapshot=store)
        restored = run_scenario(scenario, config, seed=SEED,
                                warmup_fraction=0.4, warmup_snapshot=store)
        assert result_fingerprint(cold) == result_fingerprint(captured)
        assert result_fingerprint(cold) == result_fingerprint(restored)

    def test_chunk_size_variation(self, tmp_path):
        """The snapshot key excludes the chunk size: a snapshot captured
        under one chunking restores into a differently chunked stream."""
        scenario = get_scenario("tenant-colocation", scale=self.SCALE)
        config = _config()
        store = ArtifactStore(tmp_path)
        cold = run_scenario(scenario, config, seed=SEED, chunk_size=4096)
        run_scenario(scenario, config, seed=SEED, chunk_size=1000,
                     warmup_snapshot=store)
        restored = run_scenario(scenario, config, seed=SEED, chunk_size=4096,
                                warmup_snapshot=store)
        assert snapshot_cache_info()["hits"] == 1
        assert result_fingerprint(cold) == result_fingerprint(restored)


class TestDirectCaptureRestore:
    def test_mid_run_capture_continues_identically(self):
        """capture()/restore() at an arbitrary warmup boundary (not aligned
        to any chunk) continues bit-identically to an uninterrupted run."""
        config = _config()
        trace = _trace()
        warmup = 1_234
        uninterrupted = run_trace(trace, config, workload_name=WORKLOAD,
                                  num_accesses=ACCESSES,
                                  warmup_fraction=warmup / ACCESSES)

        system = ServerSystem(config, workload_name=WORKLOAD)
        snapshot, leftover, chunk_iter = capture_warmup(
            system, trace, warmup)
        assert snapshot.processed == warmup

        resumed = restore(snapshot)

        def tail():
            if leftover is not None and len(leftover):
                yield leftover
            yield from chunk_iter

        result = resumed.run(tail(), warmup_accesses=0)
        assert result_fingerprint(uninterrupted) == result_fingerprint(result)

    def test_extra_agents_rejected(self):
        config = _config()
        system = ServerSystem(config, workload_name=WORKLOAD)
        system.agents = system.agents + [object()]
        with pytest.raises(ValueError, match="extra_agents"):
            capture(system, processed=0)


class TestSerialization:
    def test_file_round_trip(self, tmp_path):
        config = _config()
        system = ServerSystem(config, workload_name=WORKLOAD)
        snapshot, _, _ = capture_warmup(system, _trace(), 2_000)
        path = tmp_path / "snap.npz"
        save_snapshot(snapshot, path)
        loaded = load_snapshot(path)
        assert loaded.format_version == SNAPSHOT_FORMAT_VERSION
        assert loaded.workload_name == snapshot.workload_name
        assert loaded.processed == snapshot.processed
        assert loaded.config_key == snapshot.config_key
        assert loaded.state_blob == snapshot.state_blob
        assert sorted(loaded.arrays) == sorted(snapshot.arrays)
        for name, array in snapshot.arrays.items():
            assert (loaded.arrays[name] == array).all()
        describe = loaded.describe()
        assert describe["processed_accesses"] == 2_000
        assert describe["total_bytes"] == loaded.nbytes

    def test_cache_plane_members_keep_their_layout(self):
        """The L1 planes carry a leading core axis; the LLC's set dicts ride
        in the state blob, in recency order, so no ``llc_*`` member exists."""
        config = _config()
        system = ServerSystem(config, workload_name=WORKLOAD)
        snapshot, _, _ = capture_warmup(system, _trace(), 2_000)
        params = config.system
        cores = params.num_cores
        l1 = (cores, params.l1d.num_sets, params.l1d.associativity)
        expected = {f"l1_{plane}": (l1, np.dtype(dtype))
                    for plane, dtype in (("tags", np.int64), ("flags", np.uint8),
                                         ("pcs", np.int64), ("stamps", np.int64))}
        expected["l1_ticks"] = (l1[:2], np.dtype(np.int64))
        assert {name: (array.shape, array.dtype)
                for name, array in snapshot.arrays.items()} == expected
        sets = params.l1d.num_sets
        for core in range(cores):
            lanes = slice(core * sets, (core + 1) * sets)
            assert (snapshot.arrays["l1_tags"][core]
                    == system.l1.tags[lanes]).all()
            assert (snapshot.arrays["l1_ticks"][core]
                    == system.l1.ticks[lanes]).all()

    def test_restore_rebuilds_the_llc_sets_in_recency_order(self, tmp_path):
        """Each set comes back with the same blocks, line words and order,
        through the file round trip too, and each restore owns its sets."""
        system = ServerSystem(_config(), workload_name=WORKLOAD)
        snapshot, _, _ = capture_warmup(system, _trace(), 2_000)
        path = tmp_path / "snap.npz"
        save_snapshot(snapshot, path)
        want = [list(lines.items()) for lines in system.llc.sets]
        assert sum(map(len, want)) > 0
        first = restore(snapshot).llc
        for source in (snapshot, load_snapshot(path)):
            restored = restore(source).llc
            assert [list(lines.items()) for lines in restored.sets] == want
            assert restored.sets[0] is not first.sets[0]

    def test_snapshot_restore_via_file(self, tmp_path):
        """run_trace(snapshot=path) loads the file and runs only the tail."""
        config = _config()
        cold = _cold(config)
        system = ServerSystem(config, workload_name=WORKLOAD)
        snapshot, _, _ = capture_warmup(system, _trace(), ACCESSES // 2)
        path = tmp_path / "snap.npz"
        save_snapshot(snapshot, path)
        resumed = run_trace(_trace(), config, workload_name=WORKLOAD,
                            snapshot=str(path))
        assert result_fingerprint(cold) == result_fingerprint(resumed)

    def test_cross_process_restore(self, tmp_path):
        """A snapshot written here restores bit-identically in a fresh
        interpreter (the campaign's worker-process reuse path)."""
        config = _config()
        cold = _cold(config)
        system = ServerSystem(config, workload_name=WORKLOAD)
        snapshot, _, _ = capture_warmup(system, _trace(), ACCESSES // 2)
        path = tmp_path / "snap.npz"
        save_snapshot(snapshot, path)
        script = (
            "from repro.exec.campaign import result_fingerprint\n"
            "from repro.sim.config import named_configs\n"
            "from repro.sim.runner import build_trace, run_trace\n"
            f"config = named_configs(['bump'])['bump']\n"
            f"trace = build_trace({WORKLOAD!r}, {ACCESSES}, "
            f"num_cores={CORES}, seed={SEED})\n"
            f"result = run_trace(trace, config, workload_name={WORKLOAD!r}, "
            f"snapshot={str(path)!r})\n"
            "print(result_fingerprint(result))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == result_fingerprint(cold)


class TestValidation:
    def test_snapshot_and_warmup_snapshot_conflict(self, tmp_path):
        with pytest.raises(ValueError, match="either snapshot or"):
            run_trace(_trace(), _config(), snapshot=object(),
                      warmup_snapshot=ArtifactStore(tmp_path))

    def test_warmup_snapshot_requires_key(self, tmp_path):
        with pytest.raises(ValueError, match="snapshot_key"):
            run_trace(_trace(), _config(), warmup_fraction=0.5,
                      warmup_snapshot=ArtifactStore(tmp_path))

    def test_snapshot_extra_agents_conflict(self):
        with pytest.raises(ValueError, match="extra_agents"):
            run_trace(_trace(), _config(), snapshot=object(),
                      extra_agents=[object()])

    def test_config_mismatch_rejected(self):
        system = ServerSystem(_config(), workload_name=WORKLOAD)
        snapshot, _, _ = capture_warmup(system, _trace(), 2_000)
        with pytest.raises(ValueError, match="different system configuration"):
            run_trace(_trace(), _config("base_open"), snapshot=snapshot)

    def test_warmup_length_mismatch_rejected(self, tmp_path):
        """A stored snapshot warmed over N accesses cannot stand in for a
        run requesting a different warmup length under the same key."""
        config = _config()
        store = ArtifactStore(tmp_path)
        key = "ab" * 16
        run_trace(_trace(), config, workload_name=WORKLOAD,
                  warmup_fraction=0.5, warmup_snapshot=store,
                  snapshot_key=key)
        with pytest.raises(ValueError, match="was captured after"):
            run_trace(_trace(), config, workload_name=WORKLOAD,
                      warmup_fraction=0.25, warmup_snapshot=store,
                      snapshot_key=key)

    def test_format_version_guard(self, tmp_path):
        system = ServerSystem(_config(), workload_name=WORKLOAD)
        snapshot, _, _ = capture_warmup(system, _trace(), 2_000)
        snapshot.format_version = SNAPSHOT_FORMAT_VERSION + 1
        path = tmp_path / "future.npz"
        save_snapshot(snapshot, path)
        with pytest.raises(ValueError, match="format"):
            load_snapshot(path)

    def test_format_v3_file_is_rejected(self, tmp_path):
        path = tmp_path / "v3.npz"
        write_snapshot(path)
        rewrite_meta(path, format_version=3)
        with pytest.raises(ValueError, match="format v3 is not supported"):
            load_snapshot(path)

    def test_format_v5_file_is_rejected(self, tmp_path):
        # v5 pickled the LLC wrapper's and array's statistics, which v6
        # derives from the system's counters instead.
        path = tmp_path / "v5.npz"
        write_snapshot(path)
        rewrite_meta(path, format_version=5)
        with pytest.raises(ValueError, match="snapshot format v5 is not supported"):
            load_snapshot(path)

    def test_format_v6_file_is_rejected(self, tmp_path):
        # v6 carried the LLC as stamped planes plus a pickled slot index;
        # v7 carries each set's lines in recency order.
        path = tmp_path / "v6.npz"
        write_snapshot(path)
        rewrite_meta(path, format_version=6)
        with pytest.raises(ValueError, match="snapshot format v6 is not supported"):
            load_snapshot(path)

    @pytest.mark.parametrize("kind", sorted(BROKEN))
    def test_damaged_container_is_rejected(self, tmp_path, kind):
        path = tmp_path / f"{kind}.npz"
        write_broken(kind, path)
        config = named_configs(["base_open"])["base_open"]
        with pytest.raises(ValueError, match=re.escape(BROKEN[kind])):
            run_trace(build_trace(WORKLOAD, 4_000), config,
                      workload_name=WORKLOAD, snapshot=str(path))

    def test_empty_warmup_rejected(self):
        system = ServerSystem(_config(), workload_name=WORKLOAD)
        with pytest.raises(ValueError):
            capture_warmup(system, _trace(), 0)


class TestWarmupLengthValidation:
    """Satellite: 'trace shorter than requested warmup' raises early."""

    def test_known_length_raises_before_simulating(self):
        """With a materialized trace the error fires before the simulator
        consumes anything (the declared length overstates the stream)."""
        config = _config()
        short = build_trace(WORKLOAD, 100, num_cores=CORES, seed=SEED)
        with pytest.raises(ValueError, match="shorter than the requested"):
            run_trace(short, config, workload_name=WORKLOAD,
                      num_accesses=1_000, warmup_fraction=0.5)

    def test_unknown_length_still_raises_at_stream_end(self):
        """Generator streams have no knowable length up front; the check
        still fires once the stream is exhausted inside the warmup."""
        config = _config()
        short = build_trace(WORKLOAD, 100, num_cores=CORES, seed=SEED)

        def chunks():
            yield from as_chunk_iterator(short)

        with pytest.raises(ValueError, match="shorter than the requested"):
            run_trace(chunks(), config, workload_name=WORKLOAD,
                      num_accesses=1_000, warmup_fraction=0.5)


class TestStore:
    def _snapshot(self):
        system = ServerSystem(_config(), workload_name=WORKLOAD)
        snapshot, _, _ = capture_warmup(system, _trace(), 2_000)
        return snapshot

    def test_round_trip_and_counters(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = "cd" * 16
        assert store.get_snapshot(digest) is None
        assert store.counters["misses"] == 1
        store.put_snapshot(digest, self._snapshot())
        loaded = store.get_snapshot(digest)
        assert loaded is not None
        assert loaded.processed == 2_000
        assert store.counters["hits"] == 1
        info = snapshot_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_corrupt_snapshot_is_removed_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = "ef" * 16
        store.put_snapshot(digest, self._snapshot())
        path = store.root / "snapshots" / f"{digest}.npz"
        path.write_bytes(b"not a zip archive")
        assert store.get_snapshot(digest) is None
        assert store.counters["corrupt"] == 1
        assert not path.exists()

    def test_stats_report_per_kind(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_snapshot("12" * 16, self._snapshot())
        store.put_result("34" * 16, {"answer": 42})
        stats = store.stats()
        assert stats["kinds"]["snapshots"]["entries"] == 1
        assert stats["kinds"]["snapshots"]["bytes"] > 0
        assert stats["kinds"]["results"]["entries"] == 1
        assert stats["entries"] == 2

    def test_prune_covers_snapshots(self, tmp_path):
        store = ArtifactStore(tmp_path, max_entries=1)
        store.put_snapshot("56" * 16, self._snapshot())
        store.put_snapshot("78" * 16, self._snapshot())
        assert store.entry_count() == 1
        assert store.counters["evictions"] >= 1


class TestFingerprint:
    def test_sensitivity(self):
        spec = get_workload(WORKLOAD)
        config = _config()
        base = snapshot_fingerprint(spec, config, 2_000, num_cores=CORES,
                                    seed=SEED)
        assert base == snapshot_fingerprint(spec, config, 2_000,
                                            num_cores=CORES, seed=SEED)
        assert base != snapshot_fingerprint(spec, config, 2_001,
                                            num_cores=CORES, seed=SEED)
        assert base != snapshot_fingerprint(spec, config, 2_000,
                                            num_cores=CORES, seed=SEED + 1)
        assert base != snapshot_fingerprint(spec, _config("base_open"), 2_000,
                                            num_cores=CORES, seed=SEED)
        assert base != snapshot_fingerprint(
            spec, config.with_overrides(scheduler="fcfs"), 2_000,
            num_cores=CORES, seed=SEED)

    def test_config_rename_shares_snapshot(self):
        """The fingerprint keys on configuration content, not display name."""
        import dataclasses

        spec = get_workload(WORKLOAD)
        config = _config()
        renamed = dataclasses.replace(config, name="renamed")
        assert (snapshot_fingerprint(spec, config, 2_000)
                == snapshot_fingerprint(spec, renamed, 2_000))


class TestRunnerIntegration:
    def test_run_workload_warmup_snapshot(self, tmp_path):
        store = ArtifactStore(tmp_path)
        config = _config()
        cold = run_workload(WORKLOAD, config, num_accesses=ACCESSES,
                            num_cores=CORES, seed=SEED, warmup_fraction=0.5)
        run_workload(WORKLOAD, config, num_accesses=ACCESSES,
                     num_cores=CORES, seed=SEED,
                     warmup_fraction=0.5, warmup_snapshot=store)
        restored = run_workload(WORKLOAD, config, num_accesses=ACCESSES,
                                num_cores=CORES, seed=SEED,
                                warmup_fraction=0.5, warmup_snapshot=store)
        info = snapshot_cache_info()
        assert info["captures"] == 1 and info["restores"] == 1
        assert result_fingerprint(cold) == result_fingerprint(restored)

    def test_telemetry_on_restored_run_matches_off(self, tmp_path):
        """Telemetry on a snapshot run stays observational: results with a
        recorder are bit-identical to results without one."""
        store = ArtifactStore(tmp_path)
        config = _config()
        key = "9a" * 16
        run_trace(_trace(), config, workload_name=WORKLOAD,
                  warmup_fraction=0.5, warmup_snapshot=store,
                  snapshot_key=key)
        plain = run_trace(_trace(), config, workload_name=WORKLOAD,
                          warmup_fraction=0.5, warmup_snapshot=store,
                          snapshot_key=key)
        recorded = run_trace(_trace(), config, workload_name=WORKLOAD,
                             warmup_fraction=0.5, warmup_snapshot=store,
                             snapshot_key=key, telemetry="full")
        assert result_fingerprint(plain) == result_fingerprint(recorded)


class TestCampaign:
    def _jobs(self):
        return JobGrid(workloads=[WORKLOAD],
                       configs=["base_open", "bump"], seeds=[SEED],
                       num_accesses=ACCESSES, num_cores=CORES,
                       warmup_fraction=0.5).expand()

    def test_warmup_snapshots_parity_serial(self, tmp_path):
        jobs = self._jobs()
        cold = run_campaign(jobs, store=None, workers=1)
        warm = run_campaign(jobs, store=ArtifactStore(tmp_path / "a"),
                            workers=1, warmup_snapshots=True)
        for left, right in zip(cold.outcomes, warm.outcomes):
            assert (result_fingerprint(left.result)
                    == result_fingerprint(right.result)), left.job.label
        assert "snapshot_cache" in warm.metrics

    def test_warmup_snapshots_parity_parallel(self, tmp_path):
        jobs = self._jobs()
        cold = run_campaign(jobs, store=None, workers=1)
        warm = run_campaign(jobs, store=ArtifactStore(tmp_path / "b"),
                            workers=2, warmup_snapshots=True)
        for left, right in zip(cold.outcomes, warm.outcomes):
            assert (result_fingerprint(left.result)
                    == result_fingerprint(right.result)), left.job.label

    def test_resumed_campaign_restores_snapshot(self, tmp_path):
        """Dropping the result artifacts but keeping the snapshots makes a
        re-run restore instead of re-warming (fork-per-query amortization)."""
        jobs = self._jobs()
        store = ArtifactStore(tmp_path)
        run_campaign(jobs, store=store, workers=1, warmup_snapshots=True)
        for path in (store.root / "results").glob("*.pkl"):
            path.unlink()
        reset_snapshot_counters()
        run_campaign(jobs, store=store, workers=1, warmup_snapshots=True)
        info = snapshot_cache_info()
        assert info["restores"] == len(jobs)
        assert info["captures"] == 0

    def test_campaign_reports_its_own_snapshot_activity(self, tmp_path):
        """Workers 1 and 2 report the same reuse, and a second campaign in
        the same process reports only its own activity."""
        # Same 2,000-access warmup under a different measure phase: the
        # second campaign's jobs are new results but reuse the snapshots.
        resumed = JobGrid(workloads=[WORKLOAD], configs=["base_open", "bump"],
                          seeds=[SEED], num_accesses=5_000, num_cores=CORES,
                          warmup_fraction=0.4).expand()
        reports = {}
        for workers in (1, 2):
            store = ArtifactStore(tmp_path / f"workers{workers}")
            first = run_campaign(self._jobs(), store=store, workers=workers,
                                 warmup_snapshots=True)
            second = run_campaign(resumed, store=store, workers=workers,
                                  warmup_snapshots=True)
            reports[workers] = (first.metrics["snapshot_cache"],
                                second.metrics["snapshot_cache"])
        counts = ("hits", "misses", "captures", "restores")
        for first, second in reports.values():
            assert [first[key] for key in counts] == [0, 2, 2, 0]
            assert [second[key] for key in counts] == [2, 0, 0, 2]
            assert first["bytes_written"] > 0 and second["bytes_written"] == 0
            assert second["bytes_restored"] == first["bytes_written"]

    def test_warmup_snapshots_require_store(self):
        with pytest.raises(ValueError, match="store"):
            run_campaign(self._jobs(), store=None, warmup_snapshots=True)
