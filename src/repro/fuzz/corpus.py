"""Replayable fuzz-spec artifacts: schema, codec and corpus directory.

A fuzz spec is a plain JSON-able dict -- the unit the generator emits, the
oracle consumes, the shrinker transforms and the corpus persists.  Keeping
the artifact declarative (catalog workload names, factory configuration
names, scalar overrides) means a reproducer found by one build replays
bit-identically on another: nothing machine- or process-local is inside.

Schema (``format`` 1)::

    {
      "format": 1,
      "label": "fuzz-0-17",
      "seed": 1234567,                  # trace-generator seed
      "warmup_fraction": 0.3,
      "chunk_size": 512,                # streaming chunk granularity
      "scenario": {
        "num_cores": 8,
        "phases": [
          {"name": "phase0", "accesses": 600, "intensity": 1.0,
           "bursts": [[0.2, 0.35, 2.0], ...],
           "tenants": [
             {"workload": "web_search", "cores": [0, 1, 2],
              "intensity": 1.5},
             ...
           ]},
          ...
        ]
      },
      "config": {
        "base": "bump",                 # named-configuration factory
        "overrides": {                  # optional, all scalar
          "page_policy": "close",
          "interleaving": "block",
          "timing_model": "interval",
          "arrival_cpi": 2.5,
          "scheduler": "bank_round_robin",
          "llc_bytes": 65536            # LLC capacity, 32 KB - 4 MB
        }
      },
      "closed_loop": {                  # optional: feedback-driven traffic
        "target_latency": 120.0,        # (repro.scenario.closed_loop)
        "interval": 128,
        "gain": 0.5,
        "min_intensity": 0.25,
        "max_intensity": 4.0
      }
    }

:func:`materialize` turns a spec into live :class:`~repro.scenario.spec.
Scenario` / :class:`~repro.sim.config.SystemConfig` objects (re-validating
everything the constructors validate); :func:`spec_fingerprint` content-
addresses a spec for corpus-stability pins and artifact naming.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional

from repro.common.fingerprint import fingerprint
from repro.dram.flat import PagePolicy
from repro.scenario.closed_loop import ClosedLoopSpec, as_closed_loop_spec
from repro.scenario.spec import Burst, Phase, Scenario, TenantAssignment
from repro.sim.config import SystemConfig, extended_configs, named_configs

__all__ = [
    "FuzzCase",
    "SPEC_FORMAT_VERSION",
    "corpus_paths",
    "load_spec",
    "materialize",
    "save_spec",
    "spec_fingerprint",
]

#: Bumped whenever the spec schema changes incompatibly; :func:`load_spec`
#: and :func:`materialize` refuse other versions so a stale corpus fails
#: loudly instead of silently replaying something else.
SPEC_FORMAT_VERSION = 1

#: Configuration fields a spec may override, with their decoders.  The
#: whitelist keeps artifacts portable: every value is a JSON scalar and every
#: decoded value passes ``SystemConfig.__post_init__`` validation.
_OVERRIDE_DECODERS = {
    "page_policy": lambda v: _decode_page_policy(v),
    "interleaving": str,
    "timing_model": str,
    "arrival_cpi": float,
    "scheduler": str,
    "llc_bytes": lambda v: _decode_llc_bytes(v),
}

#: Bounds of the ``llc_bytes`` override (a power of two): from 32 KB, which
#: a sample's few thousand accesses overflow, to the paper's 4 MB.
_LLC_BYTES_MIN = 32 * 1024
_LLC_BYTES_MAX = 4 * 1024 * 1024


def _decode_llc_bytes(value) -> int:
    if (isinstance(value, bool) or not isinstance(value, int)
            or not _LLC_BYTES_MIN <= value <= _LLC_BYTES_MAX
            or value & (value - 1)):
        raise ValueError(
            f"llc_bytes must be a power of two from {_LLC_BYTES_MIN} to "
            f"{_LLC_BYTES_MAX}, not {value!r}")
    return value


def _decode_page_policy(value: str) -> PagePolicy:
    try:
        return PagePolicy[str(value).upper()]
    except KeyError:
        raise ValueError(
            f"unknown page policy {value!r}; known policies: "
            + ", ".join(p.name.lower() for p in PagePolicy))


@dataclass
class FuzzCase:
    """One materialized fuzz spec, ready to simulate."""

    label: str
    scenario: Scenario
    config: SystemConfig
    seed: int
    warmup_fraction: float
    chunk_size: int
    #: When set, the oracle drives every cell through the feedback-driven
    #: :class:`~repro.scenario.closed_loop.ClosedLoopSource`.
    closed_loop: Optional[ClosedLoopSpec] = None

    @property
    def total_accesses(self) -> int:
        return self.scenario.total_accesses

    @property
    def warmup_accesses(self) -> int:
        return int(self.total_accesses * self.warmup_fraction)


def _config_factories():
    factories = dict(named_configs())
    factories.update(extended_configs())
    return factories


def materialize(spec: Dict) -> FuzzCase:
    """Build the live scenario/configuration a spec describes.

    Raises ``ValueError`` for malformed specs (wrong format version, unknown
    workload/configuration names, override values the constructors reject) --
    the shrinker relies on this to discard invalid mutations.
    """
    version = spec.get("format")
    if version != SPEC_FORMAT_VERSION:
        raise ValueError(
            f"fuzz spec format v{version!r} is not supported by this build "
            f"(expected v{SPEC_FORMAT_VERSION})")
    label = str(spec.get("label", "fuzz"))

    scenario_spec = spec["scenario"]
    phases: List[Phase] = []
    for index, phase_spec in enumerate(scenario_spec["phases"]):
        tenants = [
            TenantAssignment(
                workload=str(tenant["workload"]),
                cores=tuple(int(core) for core in tenant["cores"]),
                intensity=float(tenant.get("intensity", 1.0)),
            )
            for tenant in phase_spec["tenants"]
        ]
        bursts = tuple(
            Burst(float(start), float(stop), float(intensity))
            for start, stop, intensity in phase_spec.get("bursts", ()))
        phases.append(Phase(
            name=str(phase_spec.get("name", f"phase{index}")),
            accesses=int(phase_spec["accesses"]),
            tenants=tenants,
            intensity=float(phase_spec.get("intensity", 1.0)),
            bursts=bursts,
        ))
    try:
        # seed_stream is pinned so the display label never leaks into trace
        # generation (Scenario defaults seed_stream to its name): a shrunk or
        # promoted reproducer replays the identical trace after relabeling.
        scenario = Scenario(
            name=label,
            description="fuzz-generated scenario",
            phases=phases,
            num_cores=int(scenario_spec["num_cores"]),
            seed_stream="fuzz-spec",
        )
    except KeyError as exc:
        raise ValueError(f"fuzz spec scenario is missing field {exc}")

    config_spec = spec.get("config", {})
    base = str(config_spec.get("base", "base_open"))
    factories = _config_factories()
    if base not in factories:
        raise ValueError(
            f"unknown base configuration {base!r}; known: "
            + ", ".join(sorted(factories)))
    config = factories[base]
    overrides = {}
    for key, raw in (config_spec.get("overrides") or {}).items():
        decoder = _OVERRIDE_DECODERS.get(key)
        if decoder is None:
            raise ValueError(
                f"unsupported configuration override {key!r}; supported: "
                + ", ".join(sorted(_OVERRIDE_DECODERS)))
        overrides[key] = decoder(raw)
    llc_bytes = overrides.pop("llc_bytes", None)
    if llc_bytes is not None:
        system = config.system
        overrides["system"] = system.scaled(
            llc=replace(system.llc, size_bytes=llc_bytes))
    if overrides:
        config = config.with_overrides(**overrides)

    warmup_fraction = float(spec.get("warmup_fraction", 0.5))
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    chunk_size = int(spec.get("chunk_size", 512))
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    try:
        closed_loop = as_closed_loop_spec(spec.get("closed_loop"))
    except TypeError as exc:
        raise ValueError(str(exc))
    return FuzzCase(
        label=label,
        scenario=scenario,
        config=config,
        seed=int(spec.get("seed", 42)),
        warmup_fraction=warmup_fraction,
        chunk_size=chunk_size,
        closed_loop=closed_loop,
    )


def spec_fingerprint(spec: Dict) -> str:
    """Content digest of a spec (label excluded -- labels are display only)."""
    data = {key: value for key, value in spec.items() if key != "label"}
    return fingerprint(data)


def save_spec(spec: Dict, path) -> Path:
    """Write a spec as a formatted, key-sorted JSON artifact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(spec, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_spec(path) -> Dict:
    """Read one spec artifact, failing loudly on malformed JSON."""
    path = Path(path)
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt fuzz spec {path}: {exc}")
    if not isinstance(spec, dict):
        raise ValueError(f"corrupt fuzz spec {path}: expected a JSON object")
    version = spec.get("format")
    if version != SPEC_FORMAT_VERSION:
        raise ValueError(
            f"fuzz spec {path} has format v{version!r}; this build expects "
            f"v{SPEC_FORMAT_VERSION}")
    return spec


def corpus_paths(directory) -> List[Path]:
    """The replayable spec artifacts under ``directory``, sorted by name."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(directory.glob("*.json"))
