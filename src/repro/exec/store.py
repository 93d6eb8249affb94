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
race to publish identical bytes.  The store never evicts: its size is the
campaign grids it has served, and deleting the directory (or any file in it)
only costs recomputation.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Dict, Optional

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
    racing writer) degrade to the pre-fsync behaviour rather than failing
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
    """A directory of content-addressed artifacts, one subdirectory per kind."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        for kind in _KINDS:
            (self.root / kind).mkdir(parents=True, exist_ok=True)
        self.counters: Dict[str, int] = {
            "hits": 0, "misses": 0, "puts": 0, "corrupt": 0,
        }

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
            os.replace(staging, path)
            _fsync_path(path.parent)
        except BaseException:
            self._remove(staging)
            raise
        self.counters["puts"] += 1
        return path

    @staticmethod
    def _remove(path: Path) -> None:
        try:
            path.unlink()
        except OSError:  # pragma: no cover - racing writer
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactStore({str(self.root)!r})"


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

