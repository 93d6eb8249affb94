"""Artifact store round-trips, corruption handling and LRU eviction."""

import os
import pickle

import numpy as np
import pytest

from repro.exec.campaign import result_fingerprint
from repro.exec.jobs import JobSpec
from repro.exec.pool import execute_job
from repro.exec.store import STORE_ENV_VAR, ArtifactStore, default_store
from repro.sim.config import base_open
from repro.sim.results import SimulationResult
from repro.trace.buffer import TraceBuffer


def _small_trace(n=8):
    return TraceBuffer(core=np.zeros(n, dtype=np.int32), pc=np.full(n, 4096),
                       address=64 * np.arange(n),
                       is_store=np.zeros(n, dtype=bool),
                       instructions=np.ones(n, dtype=np.int32))


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "artifacts")


class TestRoundTrip:
    def test_trace_round_trip(self, store):
        trace = _small_trace()
        store.put_trace("abc123", trace)
        loaded = store.get_trace("abc123")
        assert loaded == trace

    def test_result_round_trip_preserves_every_field(self, store, tmp_path):
        job = JobSpec(workload="web_search", config=base_open(),
                      num_accesses=1500, num_cores=2, seed=3, warmup_fraction=0.2)
        result = execute_job(job, store=None)
        store.put_result(job.result_fingerprint(), result)
        loaded = store.get_result(job.result_fingerprint())
        assert isinstance(loaded, SimulationResult)
        assert result_fingerprint(loaded) == result_fingerprint(result)
        assert loaded.summary() == result.summary()

    def test_missing_key_is_a_miss(self, store):
        assert store.get_result("0" * 32) is None
        assert store.stats()["misses"] == 1


class TestRobustness:
    @pytest.mark.parametrize("trace", [
        [(0, 4096, 64, False, 1)],
        [_small_trace()],
    ])
    def test_put_trace_rejects_anything_but_a_buffer(self, store, trace):
        with pytest.raises(TypeError, match="put_trace needs a TraceBuffer"):
            store.put_trace("d" * 32, trace)
        assert store.get_trace("d" * 32) is None
        assert not list(store.root.rglob("*.npy"))

    def test_truncated_artifact_is_treated_as_miss_and_removed(self, store):
        digest = "a" * 32
        store.put_result(digest, SimulationResult(workload="w", config_name="c"))
        path = store._path("results", digest)
        path.write_bytes(path.read_bytes()[:10])
        assert store.get_result(digest) is None
        assert not path.exists()

    def test_wrong_format_version_is_treated_as_miss(self, store):
        digest = "b" * 32
        path = store._path("results", digest)
        with path.open("wb") as handle:
            pickle.dump((999, "payload"), handle)
        assert store.get_result(digest) is None
        assert store.counters["corrupt"] == 1

    def test_rejects_invalid_bounds(self, tmp_path):
        with pytest.raises(ValueError):
            ArtifactStore(tmp_path, max_entries=0)
        with pytest.raises(ValueError):
            ArtifactStore(tmp_path, max_bytes=0)


class TestEviction:
    def test_max_entries_evicts_least_recently_used(self, store, tmp_path):
        bounded = ArtifactStore(tmp_path / "bounded", max_entries=3)
        digests = [f"{i:032x}" for i in range(4)]
        for index, digest in enumerate(digests):
            path = bounded._path("results", digest)
            bounded.put_result(digest, {"index": index})
            # Space the mtimes out so LRU order is unambiguous on coarse
            # filesystem timestamp granularity.
            os.utime(path, (1_000_000 + index, 1_000_000 + index))
        bounded.prune()
        assert bounded.entry_count() == 3
        assert bounded.get_result(digests[0]) is None  # oldest evicted
        assert bounded.get_result(digests[3]) is not None

    def test_max_bytes_bounds_total_size(self, tmp_path):
        bounded = ArtifactStore(tmp_path / "bytes", max_bytes=4096)
        for i in range(8):
            bounded.put_trace(f"{i:032x}", _small_trace(32))
        assert bounded.total_bytes() <= 4096

    def test_clear_removes_everything(self, store):
        store.put_trace("c" * 32, _small_trace())
        store.put_result("d" * 32, {"x": 1})
        store.clear()
        assert store.entry_count() == 0


class TestDefaultStore:
    def test_unset_env_gives_no_store(self, monkeypatch):
        monkeypatch.delenv(STORE_ENV_VAR, raising=False)
        assert default_store() is None

    def test_env_configures_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "env-store"))
        store = default_store()
        assert store is not None
        assert store.root == tmp_path / "env-store"
        assert (tmp_path / "env-store" / "results").is_dir()

    def test_default_store_handle_is_memoized_per_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "memo-store"))
        first = default_store()
        assert default_store() is first
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "other-store"))
        assert default_store() is not first


class TestPruneOrdering:
    def test_lru_order_is_deterministic_within_one_second(self, tmp_path):
        """Sub-second recency must order eviction (st_mtime_ns, not st_mtime)."""
        bounded = ArtifactStore(tmp_path / "ns", max_entries=2)
        digests = [f"{i:032x}" for i in range(3)]
        base_ns = 1_000_000_000_000_000
        for index, digest in enumerate(digests):
            bounded.put_result(digest, {"index": index})
            path = bounded._path("results", digest)
            # All inside the same wall-clock second, microseconds apart.
            ns = base_ns + index * 1_000
            os.utime(path, ns=(ns, ns))
        bounded.prune()
        assert bounded.get_result(digests[0]) is None  # oldest by nanoseconds
        assert bounded.get_result(digests[1]) is not None
        assert bounded.get_result(digests[2]) is not None

    def test_exact_timestamp_ties_break_on_path(self, tmp_path):
        bounded = ArtifactStore(tmp_path / "tie", max_entries=1)
        digests = sorted(f"{i:032x}" for i in (7, 3))
        ns = 1_000_000_000_000_000
        for digest in digests:
            bounded.put_result(digest, {"digest": digest})
            os.utime(bounded._path("results", digest), ns=(ns, ns))
        bounded.prune()
        # Identical timestamps: the lexically-smaller path is "older".
        assert bounded.get_result(digests[0]) is None
        assert bounded.get_result(digests[1]) is not None

    def test_touch_failure_decrements_approximate_occupancy(self, tmp_path):
        bounded = ArtifactStore(tmp_path / "race", max_entries=8,
                                max_bytes=1 << 20)
        digest = "e" * 32
        bounded.put_result(digest, {"payload": list(range(64))})
        entries_before = bounded._approx_entries
        bytes_before = bounded._approx_bytes
        path = bounded._path("results", digest)
        size = path.stat().st_size
        # Simulate a racing pruner deleting the artifact between the read
        # and the recency touch.
        real_utime = os.utime

        def racing_utime(target, *args, **kwargs):
            if str(target) == str(path):
                path.unlink(missing_ok=True)
            return real_utime(target, *args, **kwargs)

        import unittest.mock as mock

        with mock.patch.object(os, "utime", racing_utime):
            payload = bounded.get_result(digest)
        assert payload == {"payload": list(range(64))}  # read won the race
        assert bounded._approx_entries == entries_before - 1
        assert bounded._approx_bytes == bytes_before - size

    def test_touch_failure_never_goes_negative(self, tmp_path):
        bounded = ArtifactStore(tmp_path / "floor", max_entries=2)
        bounded._approx_entries = 0
        bounded._approx_bytes = 0
        bounded._touch(tmp_path / "floor" / "results" / "missing.pkl", 4096)
        assert bounded._approx_entries == 0
        assert bounded._approx_bytes == 0


class TestObservabilityCounters:
    def test_stats_reports_every_counter(self, store):
        expected = {"hits", "misses", "puts", "evictions", "corrupt",
                    "prune_bytes_reclaimed", "touch_failures",
                    "entries", "bytes"}
        assert expected <= set(store.stats())

    def test_puts_and_hits_count_artifact_traffic(self, store):
        store.put_result("a" * 32, {"x": 1})
        store.put_trace("b" * 32, _small_trace())
        assert store.get_result("a" * 32) == {"x": 1}
        assert store.get_result("f" * 32) is None
        stats = store.stats()
        assert stats["puts"] == 2
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_stats_report_per_kind(self, store):
        store.put_trace("12" * 16, _small_trace())
        store.put_result("34" * 16, {"answer": 42})
        stats = store.stats()
        assert set(stats["kinds"]) == {"traces", "results"}
        assert stats["kinds"]["traces"]["entries"] == 1
        assert stats["kinds"]["traces"]["bytes"] > 0
        assert stats["kinds"]["results"]["entries"] == 1
        assert stats["entries"] == 2

    def test_a_directory_of_no_kind_is_left_alone(self, tmp_path):
        """An older store's ``snapshots/`` is not counted, pruned or cleared."""
        root = tmp_path / "old-store"
        stale = root / "snapshots" / f"{'56' * 16}.npz"
        stale.parent.mkdir(parents=True)
        stale.write_bytes(b"warm state")
        bounded = ArtifactStore(root, max_entries=1)
        bounded.put_result("78" * 16, {"answer": 42})
        bounded.put_result("9a" * 16, {"answer": 43})
        assert bounded.stats()["entries"] == 1
        bounded.clear()
        assert bounded.entry_count() == 0
        assert stale.read_bytes() == b"warm state"

    def test_prune_accounts_reclaimed_bytes(self, tmp_path):
        bounded = ArtifactStore(tmp_path / "reclaim", max_entries=2)
        digests = [f"{i:032x}" for i in range(4)]
        for index, digest in enumerate(digests):
            bounded.put_result(digest, {"index": index})
        stats = bounded.stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 2
        assert stats["prune_bytes_reclaimed"] > 0

    def test_touch_failures_are_counted(self, tmp_path):
        bounded = ArtifactStore(tmp_path / "count", max_entries=2)
        bounded._touch(tmp_path / "count" / "results" / "missing.pkl", 64)
        assert bounded.stats()["touch_failures"] == 1
