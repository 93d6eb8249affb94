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
      }
    }

:func:`materialize` turns a spec into live :class:`~repro.scenario.spec.
Scenario` / :class:`~repro.sim.config.SystemConfig` objects (re-validating
everything the constructors validate, and refusing any top-level key the
schema does not name); :func:`spec_fingerprint` content-addresses a spec for
corpus-stability pins and artifact naming.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List

from repro.common.fingerprint import fingerprint
from repro.dram.flat import PagePolicy
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

#: The top-level keys of a spec.  Any other key is refused: a key the
#: materializer would skip (a misspelt field, or a block this build no
#: longer runs) would otherwise replay as something else and pass.
_SPEC_KEYS = frozenset({"format", "label", "seed", "warmup_fraction",
                        "chunk_size", "scenario", "config"})

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

    @property
    def total_accesses(self) -> int:
        return self.scenario.total_accesses

    @property
    def warmup_accesses(self) -> int:
        return int(self.total_accesses * self.warmup_fraction)


#: The JSON name of each container type a spec field may need to be.
_JSON_NAMES = {dict: "an object", list: "an array"}


def _typed(value, kind, what: str):
    """``value``; one that is not a ``kind`` is a ``ValueError`` naming ``what``."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be {_JSON_NAMES[kind]}, not {value!r}")
    return value


def _number(cast, value, what: str):
    """``cast(value)``; a value ``cast`` cannot take is a ``ValueError``."""
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a number, not {value!r}") from None


def _field(mapping: Dict, key: str, where: str, kind=None):
    """``mapping[key]`` (a ``kind``, when given); a missing key or another
    type is a ``ValueError`` that names the field and its place."""
    try:
        value = mapping[key]
    except KeyError:
        raise ValueError(f"{where} is missing field {key!r}") from None
    return value if kind is None else _typed(value, kind, f"{where} field {key!r}")


def _tenant(tenant, where: str) -> TenantAssignment:
    """A spec tenant as a :class:`TenantAssignment`; an unknown workload
    name is a ``ValueError`` too."""
    _typed(tenant, dict, where)
    try:
        return TenantAssignment(
            workload=str(_field(tenant, "workload", where)),
            cores=tuple(_number(int, core, f"{where} core")
                        for core in _field(tenant, "cores", where, list)),
            intensity=_number(float, tenant.get("intensity", 1.0),
                              f"{where} intensity"),
        )
    except KeyError as exc:  # an unknown workload name
        raise ValueError(f"{where}: {exc.args[0]}") from None


def _config_factories():
    factories = dict(named_configs())
    factories.update(extended_configs())
    return factories


def materialize(spec: Dict) -> FuzzCase:
    """Build the live scenario/configuration a spec describes.

    Raises ``ValueError`` for malformed specs (wrong format version, unknown
    top-level keys, a missing required field, a field of the wrong JSON
    type, unknown workload/configuration names, override values the
    constructors reject) -- the shrinker relies on this to discard invalid
    mutations, and ``repro fuzz`` to report such a spec as invalid input.
    """
    _typed(spec, dict, "a fuzz spec")
    version = spec.get("format")
    if version != SPEC_FORMAT_VERSION:
        raise ValueError(
            f"fuzz spec format v{version!r} is not supported by this build "
            f"(expected v{SPEC_FORMAT_VERSION})")
    unknown = sorted(set(spec) - _SPEC_KEYS)
    if unknown:
        raise ValueError(
            f"unsupported fuzz spec key(s) {', '.join(map(repr, unknown))}; "
            f"supported: {', '.join(sorted(_SPEC_KEYS))}")
    label = str(spec.get("label", "fuzz"))

    scenario_spec = _field(spec, "scenario", "fuzz spec", dict)
    phases: List[Phase] = []
    for index, phase_spec in enumerate(
            _field(scenario_spec, "phases", "fuzz spec scenario", list)):
        where = f"fuzz spec phase {index}"
        _typed(phase_spec, dict, where)
        tenants = [
            _tenant(tenant, f"{where} tenant {number}")
            for number, tenant in enumerate(
                _field(phase_spec, "tenants", where, list))
        ]
        bursts = []
        for burst in _typed(phase_spec.get("bursts", []), list,
                            f"{where} field 'bursts'"):
            if not isinstance(burst, list) or len(burst) != 3:
                raise ValueError(f"{where} burst {burst!r} is not "
                                 "[start, stop, intensity]")
            bursts.append(Burst(*(_number(float, value, f"{where} burst")
                                  for value in burst)))
        phases.append(Phase(
            name=str(phase_spec.get("name", f"phase{index}")),
            accesses=_number(int, _field(phase_spec, "accesses", where),
                             f"{where} field 'accesses'"),
            tenants=tenants,
            intensity=_number(float, phase_spec.get("intensity", 1.0),
                              f"{where} intensity"),
            bursts=tuple(bursts),
        ))
    # seed_stream is pinned so the display label never leaks into trace
    # generation (Scenario defaults seed_stream to its name): a shrunk or
    # promoted reproducer replays the identical trace after relabeling.
    scenario = Scenario(
        name=label,
        description="fuzz-generated scenario",
        phases=phases,
        num_cores=_number(int, _field(scenario_spec, "num_cores",
                                      "fuzz spec scenario"),
                          "fuzz spec scenario field 'num_cores'"),
        seed_stream="fuzz-spec",
    )

    config_spec = _typed(spec.get("config", {}), dict,
                         "fuzz spec field 'config'")
    base = str(config_spec.get("base", "base_open"))
    factories = _config_factories()
    if base not in factories:
        raise ValueError(
            f"unknown base configuration {base!r}; known: "
            + ", ".join(sorted(factories)))
    config = factories[base]
    overrides = {}
    for key, raw in _typed(config_spec.get("overrides") or {}, dict,
                           "fuzz spec config field 'overrides'").items():
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

    warmup_fraction = _number(float, spec.get("warmup_fraction", 0.5),
                              "fuzz spec warmup_fraction")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    chunk_size = _number(int, spec.get("chunk_size", 512),
                         "fuzz spec chunk_size")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    return FuzzCase(
        label=label,
        scenario=scenario,
        config=config,
        seed=_number(int, spec.get("seed", 42), "fuzz spec seed"),
        warmup_fraction=warmup_fraction,
        chunk_size=chunk_size,
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
