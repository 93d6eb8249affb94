"""Artifact store round-trips, corruption handling and counters."""

import pickle
import shutil

import numpy as np
import pytest

from repro.exec.campaign import result_fingerprint
from repro.exec.jobs import JobSpec
from repro.exec.pool import execute_job
from repro.exec.store import STORE_ENV_VAR, ArtifactStore, default_store
from repro.sim.config import base_open
from repro.sim.results import SimulationResult
from repro.trace.buffer import TRACE_RECORD_DTYPE, TraceBuffer


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
        assert store.counters["misses"] == 1

    def test_trace_hits_are_read_only_memory_maps(self, store):
        store.put_trace("9a" * 16, _small_trace(32))
        loaded = store.get_trace("9a" * 16)
        base = loaded.address
        while base is not None and not isinstance(base, np.memmap):
            base = base.base
        assert isinstance(base, np.memmap)
        assert not loaded.address.flags.writeable
        with pytest.raises(ValueError):
            loaded.address[0] = 0


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

    @pytest.mark.parametrize("blob", [
        b"",
        b"not a pickle at all",
        pickle.dumps(42),
        pickle.dumps((2, "payload", "extra")),
    ], ids=["empty", "garbage", "not-a-pair", "triple"])
    def test_unreadable_result_is_a_corrupt_miss(self, store, blob):
        digest = "f" * 32
        path = store._path("results", digest)
        path.write_bytes(blob)
        assert store.get_result(digest) is None
        assert store.counters == {"hits": 0, "misses": 1, "puts": 0,
                                  "corrupt": 1}
        assert not path.exists()

    def test_truncated_trace_is_a_corrupt_miss_and_removed(self, store):
        digest = "c" * 32
        path = store.put_trace(digest, _small_trace(64))
        path.write_bytes(path.read_bytes()[:40])
        assert store.get_trace(digest) is None
        assert (store.counters["corrupt"], store.counters["misses"]) == (1, 1)
        assert not path.exists()

    def test_npy_of_a_foreign_schema_is_a_corrupt_miss(self, store):
        digest = "e" * 32
        path = store._path("traces", digest)
        np.save(path, np.arange(8))  # a plain array, not trace records
        assert store.get_trace(digest) is None
        assert store.counters["corrupt"] == 1
        assert not path.exists()

    @pytest.mark.parametrize("shape", [(), (3, 2)], ids=["0-d", "3x2"])
    def test_wrongly_shaped_trace_is_a_corrupt_miss_and_rewritten(self, store,
                                                                   shape):
        digest = "f" * 32
        path = store._path("traces", digest)
        np.save(path, np.zeros(shape, dtype=TRACE_RECORD_DTYPE))
        assert store.get_trace(digest) is None
        assert (store.counters["corrupt"], store.counters["misses"]) == (1, 1)
        assert not path.exists()
        store.put_trace(digest, _small_trace())
        assert store.get_trace(digest) == _small_trace()

    def test_damaged_entry_is_replaced_by_the_next_put(self, store):
        digest = "d" * 32
        path = store.put_result(digest, {"run": 1})
        path.write_bytes(path.read_bytes()[:10])
        assert store.get_result(digest) is None
        store.put_result(digest, {"run": 2})
        assert store.get_result(digest) == {"run": 2}
        assert store.counters == {"hits": 1, "misses": 1, "puts": 2,
                                  "corrupt": 1}


class TestPublish:
    @staticmethod
    def _files(store):
        return sorted(path.relative_to(store.root).as_posix()
                      for path in store.root.rglob("*") if path.is_file())

    def test_publish_leaves_only_the_final_artifacts(self, store):
        store.put_result("12" * 16, {"x": 1})
        store.put_trace("34" * 16, _small_trace())
        assert self._files(store) == [f"results/{'12' * 16}.pkl",
                                      f"traces/{'34' * 16}.npy"]

    def test_failed_write_leaves_no_file_and_counts_no_put(self, store,
                                                           monkeypatch):
        import repro.exec.store as store_module

        def failing_save(trace, path):
            path.write_bytes(b"half a trace")
            raise OSError("disk full")

        monkeypatch.setattr(store_module, "save_trace", failing_save)
        with pytest.raises(OSError, match="disk full"):
            store.put_trace("56" * 16, _small_trace())
        assert self._files(store) == []
        assert store.counters["puts"] == 0
        assert store.get_trace("56" * 16) is None

    def test_republishing_a_key_replaces_its_payload(self, store):
        digest = "78" * 16
        first = store.put_result(digest, {"run": 1})
        assert store.put_result(digest, {"run": 2}) == first
        assert store.get_result(digest) == {"run": 2}
        assert self._files(store) == [f"results/{digest}.pkl"]
        assert store.counters["puts"] == 2


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

    def test_blank_env_gives_no_store(self, monkeypatch):
        monkeypatch.setenv(STORE_ENV_VAR, "   ")
        assert default_store() is None

    def test_a_deleted_root_is_recreated(self, monkeypatch, tmp_path):
        root = tmp_path / "deleted-store"
        monkeypatch.setenv(STORE_ENV_VAR, str(root))
        first = default_store()
        first.put_result("ab" * 16, {"x": 1})
        shutil.rmtree(root)
        second = default_store()
        assert second is not first
        assert (root / "results").is_dir() and (root / "traces").is_dir()
        assert second.get_result("ab" * 16) is None
        second.put_result("ab" * 16, {"x": 2})
        assert default_store().get_result("ab" * 16) == {"x": 2}


class TestObservabilityCounters:
    def test_puts_and_hits_count_artifact_traffic(self, store):
        store.put_result("a" * 32, {"x": 1})
        store.put_trace("b" * 32, _small_trace())
        assert store.get_result("a" * 32) == {"x": 1}
        assert store.get_result("f" * 32) is None
        assert store.counters == {"hits": 1, "misses": 1, "puts": 2,
                                  "corrupt": 0}

    def test_a_directory_of_no_kind_is_left_alone(self, tmp_path):
        """An older store's ``snapshots/`` is neither read nor touched."""
        root = tmp_path / "old-store"
        stale = root / "snapshots" / f"{'56' * 16}.npz"
        stale.parent.mkdir(parents=True)
        stale.write_bytes(b"warm state")
        store = ArtifactStore(root)
        store.put_result("78" * 16, {"answer": 42})
        assert store.get_result("78" * 16) == {"answer": 42}
        assert stale.read_bytes() == b"warm state"
        assert sorted(path.name for path in root.iterdir()) == [
            "results", "snapshots", "traces"]
