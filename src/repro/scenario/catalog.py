"""Shipped scenario catalog.

Six named scenarios stress the conditions the paper's steady-state
evaluation cannot: tenant colocation, diurnal load swings, antagonist
bursts, phase changes, partially idle machines and a full six-workload mix.
Each factory takes a ``scale`` factor that multiplies every phase length --
``scale=1.0`` sizes the scenario for real measurement runs (~1M+ accesses),
while tests and smoke benchmarks pass small scales to finish in seconds.

The catalog mirrors :mod:`repro.workloads.catalog`: iterate
:func:`scenario_names` in a stable order, resolve with
:func:`get_scenario`, render with :func:`describe_scenario`.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.scenario.spec import Burst, Phase, Scenario, TenantAssignment

__all__ = [
    "SCENARIOS",
    "get_scenario",
    "scale_scenario",
    "scenario_names",
]


def _scaled(accesses: int, scale: float) -> int:
    return max(int(round(accesses * scale)), 1)


def tenant_colocation(scale: float = 1.0) -> Scenario:
    """Two tenants statically partitioned across the CMP.

    A key-value tenant (``data_serving``) owns half the cores, a search
    tenant (``web_search``) the other half.  Their streams interleave at the
    shared LLC and memory controllers, so each tenant's row-buffer locality
    is destroyed not only by its own cores but by a workload with a
    completely different region-density profile -- the hardest realistic
    case for the baseline scheduler and the canonical case for BuMP.
    """
    n = _scaled(1_200_000, scale)
    return Scenario(
        name="tenant-colocation",
        description="data_serving on cores 0-7 colocated with web_search on "
                    "cores 8-15, steady state",
        phases=[
            Phase("colocated", n, [
                TenantAssignment("data_serving", tuple(range(0, 8))),
                TenantAssignment("web_search", tuple(range(8, 16))),
            ]),
        ],
    )


def diurnal_ramp(scale: float = 1.0) -> Scenario:
    """One tenant through a day: night trough, morning ramp, peak, evening.

    Intensity scales arrival rate (instruction gaps shrink), so the peak
    phase contends far harder at the controllers than the trough even though
    every phase touches statistically identical addresses.
    """
    return Scenario(
        name="diurnal-ramp",
        description="web_serving on all 16 cores through a diurnal "
                    "night/morning/peak/evening intensity cycle",
        phases=[
            Phase("night", _scaled(200_000, scale),
                  [TenantAssignment("web_serving", tuple(range(16)))],
                  intensity=0.25),
            Phase("morning", _scaled(300_000, scale),
                  [TenantAssignment("web_serving", tuple(range(16)))],
                  intensity=0.75),
            Phase("peak", _scaled(400_000, scale),
                  [TenantAssignment("web_serving", tuple(range(16)))],
                  intensity=1.5,
                  bursts=(Burst(0.4, 0.5, 1.5),)),
            Phase("evening", _scaled(300_000, scale),
                  [TenantAssignment("web_serving", tuple(range(16)))],
                  intensity=1.0),
        ],
    )


def antagonist_burst(scale: float = 1.0) -> Scenario:
    """A latency-sensitive tenant suffering a bursty analytics antagonist.

    ``web_search`` runs steadily on twelve cores; an ``online_analytics``
    antagonist appears on the remaining four only in the middle phase, at
    double intensity with two further 3x bursts -- the colocation spike that
    makes interleaving-induced row-buffer loss worst.
    """
    search = TenantAssignment("web_search", tuple(range(0, 12)))
    return Scenario(
        name="antagonist-burst",
        description="steady web_search on cores 0-11; an online_analytics "
                    "antagonist bursts onto cores 12-15 mid-run",
        phases=[
            Phase("quiet", _scaled(300_000, scale), [search]),
            Phase("antagonist", _scaled(500_000, scale), [
                TenantAssignment("web_search", tuple(range(0, 12))),
                TenantAssignment("online_analytics", tuple(range(12, 16)),
                                 intensity=2.0),
            ], bursts=(Burst(0.2, 0.3, 3.0), Burst(0.6, 0.7, 3.0))),
            Phase("recovery", _scaled(300_000, scale), [search]),
        ],
    )


def phase_change(scale: float = 1.0) -> Scenario:
    """One tenant whose behaviour flips between serving and analytics.

    All sixteen cores alternate between ``media_streaming`` (large
    sequential buffers, high region density) and ``online_analytics``
    (scan-plus-join mixes), re-warming the predictors at every flip; the
    dataset of each behaviour persists across its reappearances.
    """
    cores = tuple(range(16))
    return Scenario(
        name="phase-change",
        description="all cores flip media_streaming -> online_analytics -> "
                    "media_streaming -> online_analytics",
        phases=[
            Phase("streaming-1", _scaled(300_000, scale),
                  [TenantAssignment("media_streaming", cores)]),
            Phase("analytics-1", _scaled(300_000, scale),
                  [TenantAssignment("online_analytics", cores)]),
            Phase("streaming-2", _scaled(300_000, scale),
                  [TenantAssignment("media_streaming", cores)]),
            Phase("analytics-2", _scaled(300_000, scale),
                  [TenantAssignment("online_analytics", cores)]),
        ],
    )


def idle_cores(scale: float = 1.0) -> Scenario:
    """A mostly idle machine: four active cores, twelve parked.

    With only four streams interleaving, far more row-buffer locality
    survives at the controllers than in the fully loaded case -- the
    low-utilization end of the consolidation spectrum, and the regime where
    bulk streaming has the least left to recover.
    """
    return Scenario(
        name="idle-cores",
        description="web_search on cores 0-3 only; cores 4-15 idle",
        phases=[
            Phase("quarter-load", _scaled(1_000_000, scale),
                  [TenantAssignment("web_search", (0, 1, 2, 3))]),
        ],
    )


def all_six_mix(scale: float = 1.0) -> Scenario:
    """All six paper workloads consolidated onto one CMP.

    The most heterogeneous mix the catalog ships: six tenants with six
    different density/store-share profiles interleave at once, then a
    closing phase doubles the analytics tenant's pressure.
    """
    assignments = [
        TenantAssignment("data_serving", (0, 1, 2)),
        TenantAssignment("media_streaming", (3, 4, 5)),
        TenantAssignment("online_analytics", (6, 7, 8)),
        TenantAssignment("software_testing", (9, 10, 11)),
        TenantAssignment("web_search", (12, 13)),
        TenantAssignment("web_serving", (14, 15)),
    ]
    surge = [
        TenantAssignment(a.workload, a.cores,
                         intensity=2.0 if a.workload.name == "online_analytics"
                         else 1.0)
        for a in assignments
    ]
    return Scenario(
        name="all-six-mix",
        description="all six paper workloads colocated (2-3 cores each), "
                    "with a closing analytics surge",
        phases=[
            Phase("mixed", _scaled(800_000, scale), assignments),
            Phase("analytics-surge", _scaled(400_000, scale), surge),
        ],
    )


#: Scenario factories in catalog order, keyed by canonical name.
SCENARIOS: Dict[str, Callable[[float], Scenario]] = {
    "tenant-colocation": tenant_colocation,
    "diurnal-ramp": diurnal_ramp,
    "antagonist-burst": antagonist_burst,
    "phase-change": phase_change,
    "idle-cores": idle_cores,
    "all-six-mix": all_six_mix,
}


def scenario_names() -> List[str]:
    """Canonical scenario identifiers in catalog order."""
    return list(SCENARIOS.keys())


def get_scenario(name, scale: float = 1.0) -> Scenario:
    """Resolve ``name`` to a fresh :class:`Scenario`.

    ``scale`` multiplies every phase length, so the same scenario shape runs
    at measurement size (``1.0``) or smoke-test size (``0.01``).  A ready
    :class:`Scenario` instance passes through unchanged at ``scale=1.0`` and
    is rescaled (a copy; the input is never mutated) otherwise, so
    ``run_scenario(..., scale=0.01)`` shrinks custom scenarios exactly like
    catalog ones.
    """
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    if isinstance(name, Scenario):
        return name if scale == 1.0 else scale_scenario(name, scale)
    key = str(name).lower().replace(" ", "-").replace("_", "-")
    factory = SCENARIOS.get(key)
    if factory is None:
        known = ", ".join(scenario_names())
        raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}")
    return factory(scale)


def scale_scenario(scenario: Scenario, scale: float) -> Scenario:
    """A copy of ``scenario`` with every phase length multiplied by ``scale``.

    Phase structure, tenants, intensities and burst windows are preserved
    (bursts are phase fractions, so they rescale for free); only the access
    counts change, each clamped to at least one access.
    """
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    return Scenario(
        name=scenario.name,
        description=scenario.description,
        phases=[
            Phase(phase.name,
                  _scaled(phase.accesses, scale) if phase.accesses else 0,
                  phase.tenants, intensity=phase.intensity,
                  bursts=phase.bursts)
            for phase in scenario.phases
        ],
        num_cores=scenario.num_cores,
        seed_stream=scenario.seed_stream,
    )
