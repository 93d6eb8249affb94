"""Composable scenario engine: multi-tenant, phased, bursty workloads.

The six :mod:`repro.workloads` generators each model one *homogeneous*
steady-state server workload -- the regime the paper evaluates.  This
package composes them into the *heterogeneous* traffic scale-out machines
actually serve: colocated tenants partitioned across core groups, diurnal
ramps, antagonist load bursts, phase changes and partially idle CMPs.

* :mod:`repro.scenario.spec` -- the declarative description: a
  :class:`Scenario` is a list of :class:`Phase`\\ s, each assigning
  workloads (:class:`TenantAssignment`) to disjoint core groups with
  per-phase/per-tenant intensity scaling and optional :class:`Burst`
  windows.
* :mod:`repro.scenario.compiler` -- compiles a scenario to the columnar
  :class:`~repro.trace.buffer.TraceBuffer` chunk stream (vectorized
  splice/interleave of per-tenant job streams; seed-deterministic,
  chunk-size-invariant, bounded memory), so scenarios run on the flat cache
  engine at full speed.
* :mod:`repro.scenario.catalog` -- six shipped scenarios
  (``tenant-colocation``, ``diurnal-ramp``, ``antagonist-burst``,
  ``phase-change``, ``idle-cores``, ``all-six-mix``), each scalable from
  smoke-test to measurement size.
* :mod:`repro.scenario.runner` -- streaming simulation entry points.

Typical use::

    from repro.scenario import get_scenario, run_scenario
    from repro.sim import base_open, bump_system

    scenario = get_scenario("tenant-colocation", scale=0.05)
    base = run_scenario(scenario, base_open())
    bump = run_scenario(scenario, bump_system())
    print(base.row_buffer_hit_ratio, bump.row_buffer_hit_ratio)

Campaigns grid over scenarios through
:class:`repro.exec.jobs.ScenarioGrid`, and the CLI exposes the catalog as
``repro scenario list|describe|run``.
"""

from repro.scenario.catalog import (
    SCENARIOS,
    get_scenario,
    scale_scenario,
    scenario_names,
)
from repro.scenario.compiler import generate_scenario_buffer, iter_scenario_chunks
from repro.scenario.runner import run_scenario
from repro.scenario.spec import Burst, Phase, Scenario, TenantAssignment

__all__ = [
    "Burst",
    "Phase",
    "SCENARIOS",
    "Scenario",
    "TenantAssignment",
    "generate_scenario_buffer",
    "get_scenario",
    "iter_scenario_chunks",
    "run_scenario",
    "scale_scenario",
    "scenario_names",
]
