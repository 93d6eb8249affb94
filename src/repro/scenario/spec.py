"""Declarative scenario descriptions: phases, tenants, bursts.

A :class:`Scenario` composes the homogeneous :class:`~repro.workloads.spec.
WorkloadSpec` generators into the heterogeneous traffic a scale-out server
actually sees: colocated tenants partitioned across core groups, load that
ramps and spikes over time, and behaviour that changes phase mid-run.  The
description is purely declarative -- a scenario is a list of
:class:`Phase`\\ s, each assigning workloads to disjoint core groups -- and
compiles down to the columnar chunk pipeline in
:mod:`repro.scenario.compiler`, so scenario traces run through the exact
same :class:`~repro.trace.buffer.TraceBuffer` machinery (and at the same
speed) as single-workload traces.

Intensity model: the simulator derives request *arrival times* from the
per-access instruction counts, so scaling a tenant's intensity by ``k``
divides its instruction gaps by ``k`` -- the same accesses arrive ``k``
times faster and queue harder at the memory controllers.  Phase intensity,
per-tenant intensity and burst windows multiply together per access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple, Union

from repro.workloads.catalog import get_workload
from repro.workloads.spec import WorkloadSpec

__all__ = [
    "Burst",
    "Phase",
    "Scenario",
    "TenantAssignment",
]

#: Default core count of the simulated server (matches the paper's CMP).
DEFAULT_SCENARIO_CORES = 16


@dataclass(frozen=True)
class Burst:
    """A load spike inside one phase.

    ``start``/``stop`` are fractions of the phase (``0.0`` is the first
    access of the phase, ``1.0`` one past its last); ``intensity`` multiplies
    the phase intensity for every access whose phase position falls inside
    the window.  Overlapping bursts stack multiplicatively.
    """

    start: float
    stop: float
    intensity: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.start < self.stop <= 1.0:
            raise ValueError(
                f"burst window [{self.start}, {self.stop}) must satisfy "
                "0 <= start < stop <= 1")
        if self.intensity <= 0.0:
            raise ValueError("burst intensity must be positive")


@dataclass
class TenantAssignment:
    """One tenant of a phase: a workload pinned to a group of cores.

    The workload may be given by catalog name (resolved immediately) or as a
    fully customised :class:`WorkloadSpec`.  ``intensity`` scales only this
    tenant's arrival rate, on top of the phase intensity -- an antagonist
    tenant at ``intensity=2.0`` hammers the memory system twice as hard as
    its colocated victims.
    """

    workload: Union[str, WorkloadSpec]
    cores: Tuple[int, ...]
    intensity: float = 1.0

    def __post_init__(self) -> None:
        if isinstance(self.workload, str):
            self.workload = get_workload(self.workload)
        self.cores = tuple(self.cores)
        if not self.cores:
            raise ValueError("a tenant needs at least one core")
        if len(set(self.cores)) != len(self.cores):
            raise ValueError(f"duplicate cores in tenant assignment: {self.cores}")
        if any(core < 0 for core in self.cores):
            raise ValueError("core ids must be non-negative")
        if self.intensity <= 0.0:
            raise ValueError("tenant intensity must be positive")


@dataclass
class Phase:
    """One time slice of a scenario.

    ``accesses`` is the number of memory accesses the phase contributes to
    the merged trace (the scenario's time axis is the access stream, exactly
    like a single-workload trace length).  Cores not named by any tenant are
    idle for the duration of the phase: they contribute no accesses, so the
    merged stream interleaves only the active cores -- less inter-core
    mingling, more surviving row-buffer locality, which is precisely the
    effect the idle-cores scenario measures.
    """

    name: str
    accesses: int
    tenants: List[TenantAssignment]
    intensity: float = 1.0
    bursts: Tuple[Burst, ...] = ()

    def __post_init__(self) -> None:
        if self.accesses < 0:
            raise ValueError("phase accesses must be non-negative")
        self.tenants = list(self.tenants)
        if self.accesses > 0 and not self.tenants:
            raise ValueError(f"phase {self.name!r} emits accesses but has no tenants")
        self.bursts = tuple(self.bursts)
        if self.intensity <= 0.0:
            raise ValueError("phase intensity must be positive")
        claimed: set = set()
        for tenant in self.tenants:
            overlap = claimed.intersection(tenant.cores)
            if overlap:
                raise ValueError(
                    f"phase {self.name!r}: cores {sorted(overlap)} assigned to "
                    "more than one tenant")
            claimed.update(tenant.cores)

    @property
    def active_cores(self) -> Tuple[int, ...]:
        """Sorted ids of every core that emits accesses in this phase."""
        cores: List[int] = []
        for tenant in self.tenants:
            cores.extend(tenant.cores)
        return tuple(sorted(cores))


@dataclass
class Scenario:
    """A named, phased, multi-tenant workload composition.

    The scenario is the unit the rest of the stack consumes: the compiler
    turns it into a deterministic chunk stream, ``run_scenario`` simulates it
    end to end, and the CLI's ``repro scenario`` subcommand
    lists/describes/runs the shipped catalog (:mod:`repro.scenario.catalog`).
    """

    name: str
    description: str
    phases: List[Phase]
    num_cores: int = DEFAULT_SCENARIO_CORES
    seed_stream: str = field(default="", repr=False)

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError("num_cores must be positive")
        self.phases = list(self.phases)
        if not self.phases:
            raise ValueError(f"scenario {self.name!r} needs at least one phase")
        for phase in self.phases:
            for tenant in phase.tenants:
                bad = [core for core in tenant.cores if core >= self.num_cores]
                if bad:
                    raise ValueError(
                        f"scenario {self.name!r}, phase {phase.name!r}: cores "
                        f"{bad} outside the {self.num_cores}-core system")
        if not self.seed_stream:
            self.seed_stream = self.name

    @property
    def total_accesses(self) -> int:
        """Length of the compiled trace (the sum of the phase lengths)."""
        return sum(phase.accesses for phase in self.phases)

    @property
    def tenant_names(self) -> Tuple[str, ...]:
        """Distinct workload names across all phases, first-seen order."""
        seen: List[str] = []
        for phase in self.phases:
            for tenant in phase.tenants:
                if tenant.workload.name not in seen:
                    seen.append(tenant.workload.name)
        return tuple(seen)

    def describe(self) -> List[List[str]]:
        """Phase table rows for reports and the CLI's ``describe`` command."""
        rows: List[List[str]] = []
        for phase in self.phases:
            tenants = "; ".join(
                f"{tenant.workload.name}@{_core_ranges(tenant.cores)}"
                + (f" x{tenant.intensity:g}" if tenant.intensity != 1.0 else "")
                for tenant in phase.tenants)
            bursts = ", ".join(
                f"[{burst.start:g},{burst.stop:g})x{burst.intensity:g}"
                for burst in phase.bursts) or "-"
            idle = self.num_cores - len(phase.active_cores)
            rows.append([phase.name, str(phase.accesses), f"{phase.intensity:g}",
                         tenants or "(idle)", bursts, str(idle)])
        return rows


def _core_ranges(cores: Sequence[int]) -> str:
    """Compact ``0-3,8,12-15`` rendering of a core id set."""
    ordered = sorted(cores)
    parts: List[str] = []
    start = prev = ordered[0]
    for core in ordered[1:]:
        if core == prev + 1:
            prev = core
            continue
        parts.append(str(start) if start == prev else f"{start}-{prev}")
        start = prev = core
    parts.append(str(start) if start == prev else f"{start}-{prev}")
    return ",".join(parts)
