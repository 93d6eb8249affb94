"""Snapshot containers broken in one way each (test helper).

:func:`write_broken` saves the warm state of ``repro run web_search --system
base_open --accesses 4000 --warmup 0.5`` and damages one part of the
``.npz`` container.  Loading or restoring any of them must raise
``ValueError`` with the message in :data:`BROKEN`.
"""

from __future__ import annotations

import json

import numpy as np

from repro.sim.config import named_configs
from repro.sim.runner import build_trace
from repro.sim.snapshot import capture_warmup, save_snapshot
from repro.sim.system import ServerSystem

#: Kind of damage -> the error message it must produce.
BROKEN = {
    "missing-plane": "missing member(s) array_l1_tags",
    "truncated-state": "snapshot member 'state' does not unpickle",
    "meta-without-processed": "metadata lacks processed",
}


def _members(path) -> dict:
    with np.load(path, allow_pickle=False) as data:
        return {name: data[name] for name in data.files}


def _savez(path, members: dict) -> None:
    with open(path, "wb") as handle:
        np.savez(handle, **members)


def _bytes(blob: bytes) -> np.ndarray:
    return np.frombuffer(blob, dtype=np.uint8)


def write_snapshot(path) -> None:
    """Save the intact warm state the broken files are made from."""
    config = named_configs(["base_open"])["base_open"]
    system = ServerSystem(config, workload_name="web_search")
    snapshot, _, _ = capture_warmup(system, build_trace("web_search", 4_000),
                                    2_000)
    save_snapshot(snapshot, path)


def rewrite_meta(path, **changes) -> None:
    """Update (or, for a ``None`` value, drop) keys of a container's metadata."""
    members = _members(path)
    meta = json.loads(members["meta"].tobytes().decode("utf-8"))
    meta.update(changes)
    meta = {key: value for key, value in meta.items() if value is not None}
    members["meta"] = _bytes(json.dumps(meta, sort_keys=True).encode("utf-8"))
    _savez(path, members)


def write_broken(kind: str, path) -> None:
    """Write a snapshot container damaged as ``kind`` (a key of BROKEN)."""
    write_snapshot(path)
    if kind == "meta-without-processed":
        rewrite_meta(path, processed=None)
        return
    members = _members(path)
    if kind == "missing-plane":
        del members["array_l1_tags"]
    elif kind == "truncated-state":
        members["state"] = members["state"][: len(members["state"]) // 2]
    else:
        raise ValueError(f"unknown damage {kind!r}")
    _savez(path, members)
