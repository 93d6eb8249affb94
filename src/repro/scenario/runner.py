"""Run scenarios through the simulator (streaming, bounded memory).

``run_scenario`` is the scenario counterpart of
:func:`repro.sim.runner.run_workload`: the compiled chunk stream
feeds the simulator directly, so a million-access multi-tenant run holds one
chunk of columns in memory regardless of scenario length.  The warmup split,
agent attachment and telemetry behave exactly as they do for single-workload
runs -- a scenario is just a trace.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from repro.scenario.catalog import get_scenario
from repro.scenario.compiler import iter_scenario_chunks
from repro.scenario.spec import Scenario
from repro.sim.config import SystemConfig
from repro.sim.results import SimulationResult
from repro.sim.runner import DEFAULT_SEED, DEFAULT_WARMUP_FRACTION, run_trace
from repro.trace.buffer import DEFAULT_CHUNK_SIZE

__all__ = [
    "run_scenario",
]


def run_scenario(scenario: Union[str, Scenario], config: SystemConfig,
                 seed: int = DEFAULT_SEED,
                 warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 scale: float = 1.0,
                 extra_agents: Optional[Iterable] = None,
                 telemetry=None) -> SimulationResult:
    """Simulate one scenario under one system configuration, streaming.

    ``scenario`` is a catalog name (scaled by ``scale``) or a
    :class:`Scenario` instance (used as-is).  The trace is never
    materialized: generator chunks flow straight into the simulator's row
    loop, so memory stays bounded by ``chunk_size`` for arbitrarily long
    scenarios.  Results are bit-identical for any ``chunk_size``.

    ``telemetry`` follows :func:`repro.sim.runner.run_trace`; when it is
    on, the scenario's phase boundaries are emitted as ``phase`` marks
    (phase name plus its cumulative end position in the trace), so an event
    log can attribute timeline intervals to scenario phases.

    ``warmup_fraction`` outside ``[0, 1)`` raises ``ValueError`` (checked
    by :func:`repro.sim.runner.run_trace` before anything runs).
    """
    from repro.telemetry.recorder import resolve_telemetry

    resolved = get_scenario(scenario, scale=scale)
    recorder = resolve_telemetry(telemetry)
    if recorder is not None:
        boundary = 0
        for phase in resolved.phases:
            boundary += phase.accesses
            recorder.note_phase(phase.name, boundary)
    chunks = iter_scenario_chunks(resolved, seed=seed, chunk_size=chunk_size)
    return run_trace(chunks, config, workload_name=resolved.name,
                     warmup_fraction=warmup_fraction,
                     num_accesses=resolved.total_accesses,
                     extra_agents=extra_agents,
                     telemetry=recorder)

