"""Warm-state snapshots: checkpoint/restore of a full :class:`ServerSystem`.

Warmup dominates BuMP-style studies: row-buffer locality, LRU state and
predictor tables only become representative after hundreds of thousands
of accesses, and every what-if query re-pays that warmup from a cold system.
Engine state is a handful of NumPy arrays plus plain Python containers
(the LLC's per-set dicts among them), which makes full-system
checkpoint/restore a cheap serialization problem.  This module provides it:

* :func:`capture` freezes a :class:`ServerSystem` at a chunk boundary into a
  :class:`SystemSnapshot`;
* :func:`restore` builds a *fresh* system from the snapshot such that
  continuing it is **bit-identical** to never having stopped (the same
  parity bar every engine met: chunk boundaries are architecturally
  invisible, so capture-at-boundary + continue replays to the same state);
* :func:`capture_warmup` runs a trace's warmup interval and captures at the
  measurement boundary -- the pay-warmup-once / fork-per-query entry point;
* :func:`save_snapshot` / :func:`load_snapshot` persist snapshots as ``.npz``
  containers (the L1 planes as native members, everything else as one
  pickle blob) for the artifact store and cross-process restore;
* :func:`snapshot_fingerprint` names a warm state by what produced it:
  (workload/scenario spec, system configuration, warmup length, cores, seed,
  package version).

**Restore strategy.**  ``restore`` never unpickles a live system wholesale.
It builds a fresh :class:`ServerSystem` from the snapshot's configuration
exactly as ``__init__`` does, then copies the captured state *into* it:
the L1 planes are written in place, and the LLC's set dicts / stat groups /
the memory system / agents are replaced as objects.
Each restore unpickles a private copy of the state blob, so many systems
can be forked from one snapshot without sharing mutable state.

**What is deliberately not captured.**  Telemetry recorders (an observer,
never observable -- off==on bit-identity is an invariant) and
``extra_agents`` attached after construction (they cannot be fingerprinted;
:func:`capture` refuses systems whose agent roster differs from what the
configuration builds).
"""

from __future__ import annotations

import json
import pickle
import zipfile
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

import numpy as np

from repro.common.fingerprint import (
    canonical_data,
    config_fingerprint,
    fingerprint,
)
from repro.sim.system import ServerSystem
from repro.trace.buffer import as_chunk_iterator

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "SystemSnapshot",
    "capture",
    "capture_warmup",
    "load_snapshot",
    "restore",
    "save_snapshot",
    "skip_accesses",
    "snapshot_fingerprint",
]

#: Container format version.  Bumped whenever the captured state layout
#: changes incompatibly; :func:`load_snapshot` and :func:`restore` refuse
#: other versions (the fingerprint additionally carries the package version,
#: so stale-but-loadable snapshots never match a fresh fingerprint either).
#: ``docs/snapshots.md`` lists what each version changed; v8 dropped the
#: optional ``source`` member, so a v7 file's trace-source state is never
#: silently ignored.
SNAPSHOT_FORMAT_VERSION = 8

#: Crossbar counters (plain ints on the hot path), captured by name.
_NOC_COUNTERS = (
    "n_request",
    "n_request_with_pc",
    "n_data",
    "n_predictor_notify",
    "n_generated_request",
)

#: ServerSystem interpreter-cursor scalars, captured by name.
_SCALARS = (
    "_core_cycle",
    "_arrival_bus",
    "_instructions",
    "_measurement_start_core_cycle",
    "_measurement_start_bus_cycle",
    "_l1_writeback_fills",
    "_writeback_probes",
)

#: npz member-name prefix for the native array members.
_ARRAY_PREFIX = "array_"

#: The L1 planes, captured as ``l1_<plane>`` members with every core's
#: plane stacked along a leading core axis (:meth:`StackedL1.core_planes`).
_L1_PLANES = ("tags", "flags", "pcs", "stamps", "ticks")

#: The five plane members every snapshot container must hold.
_PLANE_MEMBERS = tuple(f"l1_{plane}" for plane in _L1_PLANES)

#: Keys of a container's JSON ``meta`` member.
_META_KEYS = ("format_version", "package_version", "workload_name",
              "processed", "config_key")


def _package_version() -> str:
    # Imported lazily: repro/__init__ imports repro.sim, so a module-level
    # import would be circular.
    from repro import __version__

    return __version__


@dataclass
class SystemSnapshot:
    """One captured warm state, self-describing and restore-ready.

    ``arrays`` holds the L1 planes as native NumPy arrays
    (mmap-friendly in the ``.npz`` container); ``state_blob`` is one pickle
    of everything else -- the LLC's set dicts, stat groups, the memory
    system, agents, NOC counters and interpreter cursors -- serialized as a
    single object graph so internal aliasing (``system.bump`` *is* an entry
    of ``system.agents``; a DRAM ready-bucket *is* a ``_by_key`` value)
    survives the round trip.
    """

    format_version: int
    package_version: str
    workload_name: str
    #: Accesses consumed before capture (the warmup length for warmup
    #: snapshots); restore paths skip exactly this many from the trace.
    processed: int
    #: Fingerprint of the capturing system's configuration (name and
    #: description dropped); restore against a different configuration is
    #: refused.
    config_key: str
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    state_blob: bytes = b""

    @property
    def nbytes(self) -> int:
        """Approximate in-memory size (array bytes + state blob bytes)."""
        return sum(a.nbytes for a in self.arrays.values()) + len(self.state_blob)

    def describe(self) -> Dict[str, object]:
        """Human-oriented metadata (``repro snapshot info``)."""
        return {
            "format_version": self.format_version,
            "package_version": self.package_version,
            "workload": self.workload_name,
            "processed_accesses": self.processed,
            "config_key": self.config_key,
            "array_members": len(self.arrays),
            "array_bytes": sum(a.nbytes for a in self.arrays.values()),
            "state_bytes": len(self.state_blob),
            "total_bytes": self.nbytes,
        }


def snapshot_fingerprint(workload, config, warmup_accesses: int,
                         num_cores: Optional[int] = None,
                         seed: Optional[int] = None) -> str:
    """Content address of the warm state a (spec, config, warmup) run produces.

    The trace *prefix* generated for a (workload spec, cores, seed) triple is
    identical regardless of the total trace length -- the generators draw
    per-(core, slot) RNG streams -- so the fingerprint deliberately excludes
    the total access count: a 60k-access query and a 240k-access query with
    the same 30k-access warmup share one snapshot.  Scenarios carry their
    core count in the spec, so ``num_cores`` may be ``None`` for them.
    """
    return fingerprint({
        "kind": "snapshot",
        "version": _package_version(),
        "workload": canonical_data(workload),
        "config": config_fingerprint(config),
        "warmup_accesses": int(warmup_accesses),
        "num_cores": num_cores,
        "seed": seed,
    })


# --------------------------------------------------------------------- #
# Capture
# --------------------------------------------------------------------- #
def capture(system: ServerSystem, processed: int) -> SystemSnapshot:
    """Freeze ``system`` at a chunk boundary into a :class:`SystemSnapshot`.

    Must be called at a chunk boundary (the staged DRAM batch is flushed
    here, which is exactly what ``_run_chunk`` does at every boundary, so
    capturing between chunks never perturbs the run).  The system stays
    valid and can keep running afterwards.

    ``processed`` records how many trace accesses the system has consumed;
    restore paths skip exactly that many before continuing.

    Systems carrying agents beyond what their configuration builds
    (``run_trace``'s ``extra_agents``) are refused: those agents are not
    part of the fingerprint, so a snapshot would silently drop or duplicate
    their effect on another query.
    """
    _check_no_extra_agents(system)
    # Semantically neutral at a chunk boundary: the pickled counters are
    # then complete, and the restore target's zeroed hot ints correct.
    system._flush_dram()
    system._flush_hot_counters()

    state: Dict[str, object] = {
        "config": system.config,
        "workload_name": system.workload_name,
        "counters": system.counters,
        "noc": {name: getattr(system.noc, name) for name in _NOC_COUNTERS},
        "scalars": {name: getattr(system, name) for name in _SCALARS},
        "memory": system.memory,
        "agents": system.agents,
        "bump": system.bump,
        "profiler": system.profiler,
        "llc_sets": system.llc.sets,
    }
    arrays = {f"l1_{plane}": array
              for plane, array in system.l1.core_planes().items()}

    blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    return SystemSnapshot(
        format_version=SNAPSHOT_FORMAT_VERSION,
        package_version=_package_version(),
        workload_name=system.workload_name,
        processed=int(processed),
        config_key=config_fingerprint(system.config),
        arrays=arrays,
        state_blob=blob,
    )


def _check_no_extra_agents(system: ServerSystem) -> None:
    reference = ServerSystem.__new__(ServerSystem)
    reference.config = system.config
    reference.agents = []
    reference.bump = None
    reference.profiler = None
    reference._build_agents()
    if len(system.agents) != len(reference.agents) or any(
            type(a) is not type(b)
            for a, b in zip(system.agents, reference.agents)):
        raise ValueError(
            "snapshots cannot capture systems with extra_agents: the extra "
            "agents are not part of the snapshot fingerprint")


# --------------------------------------------------------------------- #
# Restore
# --------------------------------------------------------------------- #
def restore(snapshot: SystemSnapshot, telemetry=None) -> ServerSystem:
    """Build a fresh :class:`ServerSystem` in the snapshot's captured state.

    Continuing the returned system over the remainder of the capturing trace
    is bit-identical to the uninterrupted run.  Each call unpickles its own
    copy of the state blob, so any number of independent systems can be
    forked from one snapshot (the fork-per-query pattern).

    ``telemetry`` is a free choice of the restorer -- it is
    bit-identity-invariant, so it is not part of the captured state.
    A state blob that does not unpickle raises ``ValueError``.
    """
    if snapshot.format_version != SNAPSHOT_FORMAT_VERSION:
        raise ValueError(
            f"snapshot format v{snapshot.format_version} is not supported "
            f"by this build (expected v{SNAPSHOT_FORMAT_VERSION})")
    state = _unpickle(snapshot.state_blob, "state")
    system = ServerSystem(
        state["config"],
        workload_name=state["workload_name"],
        telemetry=telemetry,
    )

    arrays = snapshot.arrays
    system.l1.load_core_planes(
        {plane: arrays[f"l1_{plane}"] for plane in _L1_PLANES})
    system.llc.sets = state["llc_sets"]
    system.memory = state["memory"]
    system.agents = state["agents"]
    system.bump = state["bump"]
    system.profiler = state["profiler"]
    # Binds the restored agents to this system's (empty) action sink.
    system._refresh_agent_hooks()
    system.counters = state["counters"]
    for name, value in state["noc"].items():
        setattr(system.noc, name, value)
    for name, value in state["scalars"].items():
        setattr(system, name, value)
    return system


def _unpickle(blob: bytes, member: str):
    """Unpickle one container member; ``ValueError`` naming it if corrupt."""
    try:
        return pickle.loads(blob)
    except Exception as exc:  # damaged bytes can raise nearly any type
        raise ValueError(
            f"snapshot member {member!r} does not unpickle: "
            f"{type(exc).__name__}: {exc}") from exc


# --------------------------------------------------------------------- #
# Warmup capture and trace skipping
# --------------------------------------------------------------------- #
def capture_warmup(system: ServerSystem, trace, warmup_accesses: int):
    """Run ``trace``'s warmup interval on ``system`` and capture at the boundary.

    ``trace`` may be anything :meth:`ServerSystem.run` accepts.

    Returns ``(snapshot, leftover, source)``: the captured warm state, the
    unconsumed tail of the chunk the boundary fell inside (``None`` when the
    boundary coincided with a chunk edge), and the live trace source
    positioned after that chunk.  The caller measures by running
    ``repro.trace.source.resume_source(leftover, source)`` with
    ``warmup_accesses=0`` -- chunk boundaries are architecturally invisible,
    so this is bit-identical to the uninterrupted warmup-split run.

    The warmup interval runs through :meth:`ServerSystem.run`'s pull loop,
    unrecorded: telemetry of a warmup that later queries skip entirely would
    be misleading, and telemetry never affects results.  A long warmup gets
    the pipelined loop's DRAM stage (:mod:`repro.sim.pipeline`), which hands
    the memory state back before the capture; never its read-ahead, since
    the caller keeps using ``source``.
    """
    from repro.trace.source import as_trace_source

    if warmup_accesses <= 0:
        raise ValueError("capture_warmup requires a positive warmup interval")
    source = as_trace_source(trace)
    leftover = system._pull(source, warmup_accesses, recorder=None,
                            stop_at_boundary=True)
    return capture(system, processed=warmup_accesses), leftover, source


def skip_accesses(chunks, n: int) -> Iterator:
    """Yield ``chunks`` with the first ``n`` accesses dropped.

    Restore paths position a full trace stream at a snapshot's boundary
    without simulating the skipped prefix.  Chunk-size invariance makes the
    re-chunked tail equivalent to the original split.
    """
    remaining = n
    for chunk in as_chunk_iterator(chunks):
        length = len(chunk)
        if remaining >= length:
            remaining -= length
            continue
        if remaining:
            yield chunk[remaining:]
            remaining = 0
        else:
            yield chunk


# --------------------------------------------------------------------- #
# Persistence (.npz codec)
# --------------------------------------------------------------------- #
def save_snapshot(snapshot: SystemSnapshot, path) -> None:
    """Write ``snapshot`` to ``path`` as an ``.npz`` container.

    The L1 planes are native members (zero-copy on the write side,
    regular arrays on load); the metadata rides as a JSON byte member and
    the pickled state as a raw byte member, so ``allow_pickle`` stays off
    for the container itself.
    """
    meta = {
        "format_version": snapshot.format_version,
        "package_version": snapshot.package_version,
        "workload_name": snapshot.workload_name,
        "processed": snapshot.processed,
        "config_key": snapshot.config_key,
    }
    members = {
        "meta": np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"),
                              dtype=np.uint8),
        "state": np.frombuffer(snapshot.state_blob, dtype=np.uint8),
    }
    for name, array in snapshot.arrays.items():
        members[_ARRAY_PREFIX + name] = array
    # An explicit file object stops np.savez appending a second ``.npz``
    # suffix to staging paths.
    with open(path, "wb") as handle:
        np.savez(handle, **members)


def load_snapshot(path) -> SystemSnapshot:
    """Read a :func:`save_snapshot` container back into a :class:`SystemSnapshot`.

    Raises ``OSError`` for missing/unreadable files and ``ValueError`` for
    corrupt or incomplete containers (truncated zip, missing metadata keys
    or plane members) -- callers can rely on those two types covering every
    failure mode instead of leaking ``zipfile``/``json``/``pickle``
    internals.  The
    ``state`` member is unpickled by :func:`restore`, which raises the same
    ``ValueError`` for a corrupt one.
    """
    try:
        # np.load raises ValueError too (e.g. misdetecting arbitrary bytes as
        # pickled data), so the version check lives outside the try block to
        # keep its message un-wrapped.
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            arrays = {name[len(_ARRAY_PREFIX):]: data[name]
                      for name in data.files if name.startswith(_ARRAY_PREFIX)}
            blob = data["state"].tobytes()
    except (ValueError, zipfile.BadZipFile, KeyError,
            json.JSONDecodeError) as exc:
        raise ValueError(f"corrupt snapshot container {path}: {exc}")
    if not isinstance(meta, dict):
        raise ValueError(f"corrupt snapshot container {path}: "
                         f"metadata is not an object")
    version = meta.get("format_version")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise ValueError(
            f"snapshot format v{version} is not supported by this "
            f"build (expected v{SNAPSHOT_FORMAT_VERSION})")
    missing = [key for key in _META_KEYS if key not in meta]
    if missing:
        raise ValueError(f"corrupt snapshot container {path}: metadata "
                         f"lacks {', '.join(missing)}")
    missing = [_ARRAY_PREFIX + name for name in _PLANE_MEMBERS
               if name not in arrays]
    if missing:
        raise ValueError(f"corrupt snapshot container {path}: missing "
                         f"member(s) {', '.join(missing)}")
    return SystemSnapshot(
        format_version=version,
        package_version=meta["package_version"],
        workload_name=meta["workload_name"],
        processed=int(meta["processed"]),
        config_key=meta["config_key"],
        arrays=arrays,
        state_blob=blob,
    )
