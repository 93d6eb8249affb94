"""Declarative job grids for experiment campaigns.

Every figure, ablation and design-space sweep of the reproduction is an
embarrassingly parallel grid of (workload x system configuration x seed)
simulations.  A :class:`JobSpec` captures one cell of that grid -- everything
needed to regenerate its trace and run it deterministically -- and a
:class:`JobGrid` expands the cartesian product declaratively so the campaign
engine (:mod:`repro.exec.campaign`) can fan the cells out across worker
processes and key them into the on-disk artifact store.

Identity is structural, not nominal: two jobs are the same artifact when
their *content fingerprints* match, i.e. when the workload spec, trace
length, core count, seed, warmup fraction and the full system-configuration
dataclass (including the nested BuMP geometry and architectural parameters)
are field-for-field identical.  Renaming a configuration does not fake a new
artifact, and tweaking a nested knob never silently reuses a stale one.
There is one simulator, with no engine knob, so nothing outside the job
decides its result; a change in simulator *behaviour* invalidates
artifacts through the package version embedded in every fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Union

from repro import __version__ as _PACKAGE_VERSION
from repro.common.fingerprint import (
    canonical_data,
    config_fingerprint,
    fingerprint,
    workload_fingerprint,
)
from repro.sim.config import SystemConfig, named_configs
from repro.sim.runner import (
    DEFAULT_NUM_CORES,
    DEFAULT_SEED,
    DEFAULT_TRACE_LENGTH,
    DEFAULT_WARMUP_FRACTION,
    check_warmup_fraction,
)
from repro.workloads.catalog import get_workload
from repro.workloads.spec import WorkloadSpec


# --------------------------------------------------------------------- #
# Content fingerprints
# --------------------------------------------------------------------- #
# ``canonical_data``, ``config_fingerprint``, ``fingerprint`` and
# ``workload_fingerprint`` live in :mod:`repro.common.fingerprint`; they are
# re-exported here as the historical public surface.
__all__ = [
    "JobGrid", "JobSpec", "canonical_data", "config_fingerprint",
    "fingerprint", "workload_fingerprint",
]


# --------------------------------------------------------------------- #
# Job specification
# --------------------------------------------------------------------- #
@dataclass
class JobSpec:
    """One (workload, configuration, trace geometry, seed) simulation.

    ``workload`` is a :class:`WorkloadSpec` or a catalog workload name.
    Anything else -- a :class:`repro.scenario.spec.Scenario` included -- is a
    ``TypeError``: a scenario has one run path,
    :func:`repro.scenario.runner.run_scenario`.
    """

    workload: WorkloadSpec
    config: SystemConfig
    num_accesses: int = DEFAULT_TRACE_LENGTH
    num_cores: int = DEFAULT_NUM_CORES
    seed: int = DEFAULT_SEED
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION

    def __post_init__(self) -> None:
        if isinstance(self.workload, str):
            self.workload = get_workload(self.workload)
        if not isinstance(self.workload, WorkloadSpec):
            raise TypeError(
                f"JobSpec takes a workload name or WorkloadSpec, not "
                f"{type(self.workload).__name__}; run a Scenario with "
                "repro.scenario.runner.run_scenario")
        if self.num_accesses < 1:
            raise ValueError("num_accesses must be positive")
        if self.num_cores < 1:
            raise ValueError("num_cores must be positive")
        check_warmup_fraction(self.warmup_fraction)
        # Fingerprints are requested several times per job (grid dedup, store
        # pre-check, worker get/put); jobs are treated as immutable once
        # built, so the digests are computed once and memoized.
        self._trace_fingerprint: Optional[str] = None
        self._result_fingerprint: Optional[str] = None

    # -- identity ------------------------------------------------------ #
    def trace_fingerprint(self) -> str:
        """Content address of this job's input trace.

        The package version is part of the address: an artifact is only
        reusable while the code that produced it is unchanged, so a simulator
        or generator fix (which bumps the version) invalidates persisted
        artifacts instead of silently serving stale ones.
        """
        if self._trace_fingerprint is None:
            self._trace_fingerprint = fingerprint({
                "kind": "trace",
                "version": _PACKAGE_VERSION,
                "workload": canonical_data(self.workload),
                "num_accesses": self.num_accesses,
                "num_cores": self.num_cores,
                "seed": self.seed,
            })
        return self._trace_fingerprint

    def result_fingerprint(self) -> str:
        """Content address of this job's :class:`SimulationResult` artifact."""
        if self._result_fingerprint is None:
            self._result_fingerprint = fingerprint({
                "kind": "result",
                "version": _PACKAGE_VERSION,
                "trace": self.trace_fingerprint(),
                "config": config_fingerprint(self.config),
                "warmup_fraction": self.warmup_fraction,
            })
        return self._result_fingerprint

    @property
    def label(self) -> str:
        """Human-readable job identifier used by progress reporting."""
        return f"{self.workload.name}/{self.config.name}/n{self.num_accesses}/s{self.seed}"


# --------------------------------------------------------------------- #
# Grid expansion
# --------------------------------------------------------------------- #
WorkloadLike = Union[str, WorkloadSpec]
ConfigLike = Union[str, SystemConfig]


def _resolve_workloads(workloads: Iterable[WorkloadLike]) -> List[WorkloadSpec]:
    return [get_workload(w) if isinstance(w, str) else w for w in workloads]


def _resolve_configs(configs: Iterable[ConfigLike]) -> List[SystemConfig]:
    resolved: List[SystemConfig] = []
    for config in configs:
        if isinstance(config, str):
            resolved.append(named_configs([config])[config])
        else:
            resolved.append(config)
    return resolved


@dataclass
class JobGrid:
    """Declarative cartesian product of workloads x configurations x seeds.

    The grid is the campaign engine's input language: experiments state *what*
    has to run and the engine decides where and whether (a store hit skips the
    simulation entirely).  Duplicate cells -- e.g. two named configurations
    that fingerprint identically -- are dropped at expansion, keeping first
    occurrence order.
    """

    workloads: Sequence[WorkloadLike]
    configs: Sequence[ConfigLike]
    seeds: Sequence[int] = (DEFAULT_SEED,)
    num_accesses: int = DEFAULT_TRACE_LENGTH
    num_cores: int = DEFAULT_NUM_CORES
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION

    def expand(self) -> List[JobSpec]:
        """Materialise the grid as a flat, deduplicated job list."""
        jobs: List[JobSpec] = []
        seen = set()
        configs = _resolve_configs(self.configs)
        for workload in _resolve_workloads(self.workloads):
            for config in configs:
                for seed in self.seeds:
                    job = JobSpec(
                        workload=workload,
                        config=config,
                        num_accesses=self.num_accesses,
                        num_cores=self.num_cores,
                        seed=seed,
                        warmup_fraction=self.warmup_fraction,
                    )
                    digest = job.result_fingerprint()
                    if digest not in seen:
                        seen.add(digest)
                        jobs.append(job)
        return jobs

    def __len__(self) -> int:
        return len(self.expand())
