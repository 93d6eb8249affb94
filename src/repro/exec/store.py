"""Content-addressed on-disk artifact store for campaign outputs.

The store persists the two expensive artifacts a campaign produces -- workload
traces and :class:`repro.sim.results.SimulationResult` bundles -- keyed by the
content fingerprints of :mod:`repro.exec.jobs`.  Because the key covers the
full workload spec, trace geometry, seed, system-configuration contents and
the package version (so artifacts from an older simulator are never reused
after a code change), a hit is *guaranteed* to be the byte-equivalent
artifact of re-running the simulation, so crashed or interrupted sweeps
resume for free and repeated invocations of the same campaign cost only
disk reads.

Formats: results are small and stay pickled; traces are stored as compact
structured ``.npy`` column files through the :mod:`repro.trace.io` codec and
read back **memory-mapped** as :class:`repro.trace.buffer.TraceBuffer`
bundles -- no per-access objects are ever serialised, so shipping a trace to
a worker costs page-cache reads instead of unpickling.

Concurrency model: many worker processes share one store directory.  Writers
stage into a temporary file and ``os.replace`` it into place, so readers never
observe partial artifacts and concurrent writers of the same key harmlessly
race to publish identical bytes.  Reads refresh the artifact's mtime so the
size-bounded eviction (:meth:`ArtifactStore.prune`) discards least-recently
*used* entries first.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.trace.buffer import TraceBuffer
from repro.trace.io import load_trace_buffer, save_trace

__all__ = [
    "STORE_ENV_VAR",
    "STORE_FORMAT_VERSION",
    "ArtifactStore",
    "default_store",
]

#: On-disk format version, embedded in every artifact; bump it whenever the
#: serialised payload layout changes, so mismatching artifacts are treated
#: as misses and rewritten rather than unpickled into garbage.  History:
#:
#: * **1** -- results and traces both pickled (traces as lists of boxed
#:   per-access records).
#: * **2** (current) -- traces moved to structured ``.npy`` record files
#:   (``repro.trace.buffer.TRACE_RECORD_DTYPE`` schema, loaded back
#:   memory-mapped); results remain pickled ``(version, payload)`` tuples.
#:
#: The format version guards the *container* layout; artifact *content*
#: freshness is separately guarded by the package version inside every
#: fingerprint (see :meth:`repro.exec.jobs.JobSpec.trace_fingerprint`).
STORE_FORMAT_VERSION = 2

#: Environment variable consulted by :func:`default_store`.
STORE_ENV_VAR = "REPRO_ARTIFACT_DIR"

_KINDS = ("traces", "results")
#: On-disk suffix per artifact kind: columnar traces are ``.npy`` record
#: files (mmap-able, schema-checked by dtype); results are pickled.
_SUFFIXES = {"traces": ".npy", "results": ".pkl"}


def _fsync_path(path) -> None:
    """Flush a file (or directory) to stable storage; best-effort.

    Filesystems that reject directory fsync (or files that vanished under a
    racing pruner) degrade to the pre-fsync behaviour rather than failing
    the publish -- durability hygiene must never break a working store.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync-less filesystem
        pass
    finally:
        os.close(fd)


class ArtifactStore:
    """A directory of content-addressed pickled artifacts with LRU pruning."""

    def __init__(self, root, max_entries: Optional[int] = None,
                 max_bytes: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.root = Path(root)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        for kind in _KINDS:
            (self.root / kind).mkdir(parents=True, exist_ok=True)
        self.counters: Dict[str, int] = {
            "hits": 0, "misses": 0, "puts": 0, "evictions": 0,
            "corrupt": 0, "prune_bytes_reclaimed": 0, "touch_failures": 0,
        }
        # Approximate occupancy, maintained incrementally so bounded stores
        # do not stat-scan the whole directory on every put; prune() resyncs
        # the numbers with the filesystem (other processes write here too).
        self._bounded = max_entries is not None or max_bytes is not None
        if self._bounded:
            entries = self._entries()
            self._approx_entries = len(entries)
            self._approx_bytes = sum(size for _, size, _ in entries)

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #
    def _path(self, kind: str, digest: str) -> Path:
        if kind not in _KINDS:
            raise ValueError(f"unknown artifact kind {kind!r}")
        return self.root / kind / f"{digest}{_SUFFIXES[kind]}"

    # ------------------------------------------------------------------ #
    # Generic get/put
    # ------------------------------------------------------------------ #
    def _get(self, kind: str, digest: str):
        path = self._path(kind, digest)
        try:
            with path.open("rb") as handle:
                version, payload = pickle.load(handle)
                size = os.fstat(handle.fileno()).st_size
        except FileNotFoundError:
            self.counters["misses"] += 1
            return None
        except (pickle.UnpicklingError, EOFError, ValueError, AttributeError,
                ImportError, IndexError, TypeError):
            # A torn or stale-format artifact is indistinguishable from a
            # miss; drop it so the rewritten artifact replaces it.
            self.counters["corrupt"] += 1
            self.counters["misses"] += 1
            self._remove(path)
            return None
        if version != STORE_FORMAT_VERSION:
            self.counters["corrupt"] += 1
            self.counters["misses"] += 1
            self._remove(path)
            return None
        self.counters["hits"] += 1
        self._touch(path, size)
        return payload

    def _put(self, kind: str, digest: str, payload) -> Path:
        blob = pickle.dumps((STORE_FORMAT_VERSION, payload),
                            protocol=pickle.HIGHEST_PROTOCOL)
        return self._publish(self._path(kind, digest),
                             lambda staging: staging.write_bytes(blob))

    def _publish(self, path: Path, writer) -> Path:
        """Atomically publish an artifact: stage, write, fsync, ``os.replace``.

        ``writer`` receives the staging path (same directory and suffix as
        the final artifact, so codecs that dispatch on extension work) and
        must leave the complete payload there.  The staging file is fsynced
        before the rename and the containing directory after it, closing the
        crash window in which a published name could point at unflushed data
        (applies uniformly to both kinds, traces and results).
        """
        handle = tempfile.NamedTemporaryFile(
            mode="wb", dir=str(path.parent), prefix=f".{path.stem}.",
            suffix=path.suffix, delete=False
        )
        staging = Path(handle.name)
        handle.close()
        try:
            writer(staging)
            _fsync_path(staging)
            try:
                replaced_size = path.stat().st_size
            except OSError:
                replaced_size = None
            written_size = os.path.getsize(staging)
            os.replace(staging, path)
            _fsync_path(path.parent)
        except BaseException:
            self._remove(staging)
            raise
        self.counters["puts"] += 1
        if self._bounded:
            # Approximate on purpose: concurrent writers can skew these
            # numbers slightly, and prune() resyncs them with the filesystem.
            if replaced_size is None:
                self._approx_entries += 1
            else:
                self._approx_bytes -= replaced_size
            self._approx_bytes += written_size
            if ((self.max_entries is not None
                 and self._approx_entries > self.max_entries)
                    or (self.max_bytes is not None
                        and self._approx_bytes > self.max_bytes)):
                self.prune()
        return path

    def _touch(self, path: Path, size: int = 0) -> None:
        """Refresh an artifact's mtime after a hit (LRU recency signal).

        A touch that fails because the file vanished means a racing pruner
        or writer removed the artifact between our read and now; the entry
        this store handle still counts no longer exists, so the approximate
        occupancy is decremented (by ``size`` bytes and one entry) to stay
        consistent -- otherwise repeated races would inflate
        ``_approx_bytes`` until every put triggered a full prune rescan.
        Other failures (e.g. EACCES on an artifact owned by another worker)
        leave the counters alone: the artifact still exists.
        """
        try:
            os.utime(path, None)
        except FileNotFoundError:
            self.counters["touch_failures"] += 1
            if self._bounded:
                self._approx_entries = max(self._approx_entries - 1, 0)
                self._approx_bytes = max(self._approx_bytes - size, 0)
        except OSError:
            self.counters["touch_failures"] += 1

    @staticmethod
    def _remove(path: Path) -> None:
        try:
            path.unlink()
        except OSError:  # pragma: no cover - racing writer/eviction
            pass

    # ------------------------------------------------------------------ #
    # Typed accessors
    # ------------------------------------------------------------------ #
    def get_trace(self, digest: str) -> Optional[TraceBuffer]:
        """Return the stored trace for ``digest`` or ``None``.

        Hits come back as memory-mapped :class:`TraceBuffer` columns, so a
        worker that replays a shared trace reads it zero-copy from the page
        cache rather than unpickling per-access objects.
        """
        path = self._path("traces", digest)
        try:
            size = path.stat().st_size
            buffer = load_trace_buffer(path, mmap=True)
        except FileNotFoundError:
            self.counters["misses"] += 1
            return None
        except (ValueError, OSError, EOFError):
            # Torn writes and stale/foreign schemas both fail the codec's
            # dtype check; either way the artifact is useless -- drop it so
            # the rewritten one replaces it.
            self.counters["corrupt"] += 1
            self.counters["misses"] += 1
            self._remove(path)
            return None
        self.counters["hits"] += 1
        self._touch(path, size)
        return buffer

    def put_trace(self, digest: str, trace: TraceBuffer) -> Path:
        """Persist a :class:`TraceBuffer` (anything else is a ``TypeError``)."""
        if not isinstance(trace, TraceBuffer):
            raise TypeError(f"put_trace needs a TraceBuffer, got "
                            f"{type(trace).__name__}")
        return self._publish(self._path("traces", digest),
                             lambda staging: save_trace(trace, staging))

    def get_result(self, digest: str):
        """Return the stored :class:`SimulationResult` for ``digest`` or ``None``."""
        return self._get("results", digest)

    def put_result(self, digest: str, result) -> Path:
        """Persist one simulation result."""
        return self._put("results", digest, result)

    # ------------------------------------------------------------------ #
    # Introspection and eviction
    # ------------------------------------------------------------------ #
    def _entries(self) -> List[Tuple[int, int, Path]]:
        """(mtime_ns, size, path) for every artifact, oldest first.

        Recency is ordered on ``st_mtime_ns``: the float ``st_mtime`` loses
        sub-second precision (and some filesystems only store whole
        seconds), which made the LRU order among artifacts touched within
        the same second nondeterministic.  The path string breaks exact
        timestamp ties so eviction order is total and reproducible.
        """
        entries = []
        for kind in _KINDS:
            # Every suffix is scanned in every kind so stale artifacts from
            # an older layout (e.g. pickled traces) still age out via LRU.
            for pattern in ("*.pkl", "*.npy"):
                for path in (self.root / kind).glob(pattern):
                    if path.name.startswith("."):
                        # A dot-prefixed name is a concurrent writer's staging
                        # file; counting or pruning it would tear an in-flight
                        # publish (pathlib's glob matches hidden files).
                        continue
                    try:
                        stat = path.stat()
                    except OSError:  # pragma: no cover - racing eviction
                        continue
                    entries.append((stat.st_mtime_ns, stat.st_size, path))
        entries.sort(key=lambda item: (item[0], str(item[2])))
        return entries

    def entry_count(self) -> int:
        """Number of artifacts currently stored."""
        return len(self._entries())

    def total_bytes(self) -> int:
        """Total artifact payload size on disk."""
        return sum(size for _, size, _ in self._entries())

    def prune(self) -> int:
        """Evict least-recently-used artifacts beyond the configured bounds."""
        if not self._bounded:
            return 0
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        evicted = 0
        reclaimed = 0
        while entries and (
            (self.max_entries is not None and len(entries) > self.max_entries)
            or (self.max_bytes is not None and total > self.max_bytes)
        ):
            _, size, path = entries.pop(0)
            self._remove(path)
            total -= size
            evicted += 1
            reclaimed += size
        self.counters["evictions"] += evicted
        self.counters["prune_bytes_reclaimed"] += reclaimed
        self._approx_entries = len(entries)
        self._approx_bytes = total
        return evicted

    def clear(self) -> None:
        """Delete every stored artifact (the directory itself is kept)."""
        for _, _, path in self._entries():
            self._remove(path)
        if self._bounded:
            self._approx_entries = 0
            self._approx_bytes = 0

    def stats(self) -> Dict[str, object]:
        """Hit/miss/put/eviction counters plus occupancy, total and per kind."""
        snapshot: Dict[str, object] = dict(self.counters)
        entries = self._entries()
        snapshot["entries"] = len(entries)
        snapshot["bytes"] = sum(size for _, size, _ in entries)
        kinds: Dict[str, Dict[str, int]] = {
            kind: {"entries": 0, "bytes": 0} for kind in _KINDS
        }
        for _, size, path in entries:
            bucket = kinds.get(path.parent.name)
            if bucket is not None:
                bucket["entries"] += 1
                bucket["bytes"] += size
        snapshot["kinds"] = kinds
        return snapshot

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactStore({str(self.root)!r}, entries={self.entry_count()})"


#: Memoized stores handed out by :func:`default_store`, keyed by root path so
#: the hot analysis path (one call per simulation) neither re-runs the mkdir
#: handshake nor discards hit/miss counters on every lookup.
_DEFAULT_STORES: Dict[str, ArtifactStore] = {}


def default_store() -> Optional[ArtifactStore]:
    """Store rooted at ``$REPRO_ARTIFACT_DIR``, or ``None`` when unset.

    This is how the analysis layer, the benchmark harness and the CLI opt
    into persistence without plumbing a store handle through every call.
    The environment is re-read on every call (so tests and long-lived
    sessions can repoint it), but store handles are memoized per root.
    """
    root = os.environ.get(STORE_ENV_VAR, "").strip()
    if not root:
        return None
    store = _DEFAULT_STORES.get(root)
    if store is None or not store.root.is_dir():
        # Rebuild the handle when the directory vanished underneath us (its
        # constructor recreates the layout); one stat per call otherwise.
        store = ArtifactStore(root)
        _DEFAULT_STORES[root] = store
    return store

