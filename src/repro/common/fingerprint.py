"""Content fingerprints for dataclass-shaped configuration objects.

The canonical reduction below is the common currency of every content
address in the package: the campaign engine keys its on-disk artifacts and
its in-process trace and result memos with it (:mod:`repro.exec.jobs`), warm
snapshots record the configuration they were captured under with it
(:mod:`repro.sim.snapshot`), and the parity guard compares full
:class:`SimulationResult` bundles through it.  It lives in
:mod:`repro.common` so both the execution layer and the simulation layer can
use it without importing each other.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from enum import Enum


def canonical_data(obj):
    """Reduce ``obj`` to plain JSON-serialisable data, deterministically.

    Dataclasses become sorted field dictionaries, enums their values, tuples
    lists, and objects exposing ``snapshot()`` (e.g. ``StatGroup``) their
    counter dictionaries.  The reduction is the common currency of every
    fingerprint in this package, so it must stay stable across processes and
    interpreter runs.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: canonical_data(getattr(obj, f.name))
            for f in sorted(dataclasses.fields(obj), key=lambda f: f.name)
        }
    if isinstance(obj, Enum):
        return canonical_data(obj.value)
    if isinstance(obj, dict):
        return {str(key): canonical_data(value) for key, value in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [canonical_data(item) for item in obj]
    if hasattr(obj, "snapshot") and callable(obj.snapshot):
        return canonical_data(obj.snapshot())
    if isinstance(obj, float):
        # repr() round-trips doubles exactly, unlike str() on old interpreters.
        return float(repr(obj)) if obj == obj else "nan"
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    return repr(obj)


def fingerprint(obj) -> str:
    """Hex digest of the canonical reduction of ``obj`` (first 16 bytes of SHA-256)."""
    payload = json.dumps(canonical_data(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def workload_fingerprint(spec) -> str:
    """Content fingerprint of a :class:`repro.workloads.spec.WorkloadSpec`."""
    return fingerprint(spec)


def config_fingerprint(config) -> str:
    """Content fingerprint of a system configuration (name excluded).

    ``name`` and ``description`` are labels, not behaviour: two differently
    named configurations that build the identical system (e.g. ``bump`` and
    ``bump`` with its default scheduler spelled out) produce identical
    results and warm state, so they share one digest.
    """
    data = canonical_data(config)
    data.pop("name", None)
    data.pop("description", None)
    return fingerprint(data)
