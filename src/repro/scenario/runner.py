"""Run scenarios through the simulator (streaming, bounded memory).

``run_scenario`` is the scenario counterpart of
:func:`repro.sim.runner.run_workload`: the compiled chunk stream
feeds the simulator directly, so a million-access multi-tenant run holds one
chunk of columns in memory regardless of scenario length.  The warmup split,
agent attachment, telemetry and snapshots behave exactly as they do for
single-workload runs -- a scenario is just a trace.
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
                 telemetry=None,
                 snapshot=None,
                 warmup_snapshot=None,
                 closed_loop=None) -> SimulationResult:
    """Simulate one scenario under one system configuration, streaming.

    ``scenario`` is a catalog name (scaled by ``scale``) or a
    :class:`Scenario` instance (used as-is).  The trace is never
    materialized: generator chunks flow straight into the simulator's row
    loop, so memory stays bounded by ``chunk_size`` for arbitrarily long
    scenarios.  Results are bit-identical for any ``chunk_size``.

    ``telemetry`` follows :func:`repro.sim.runner.run_trace`; when the mode
    records spans, the scenario's phase boundaries are emitted as ``phase``
    marks (phase name plus its cumulative end position in the trace), so an
    event log can attribute timeline intervals to scenario phases.

    ``snapshot`` / ``warmup_snapshot`` behave as in
    :func:`repro.sim.runner.run_trace`.  The snapshot fingerprint covers the
    resolved scenario (post-``scale``), the configuration, the warmup
    length, the seed and -- when set -- the closed-loop spec; ``chunk_size`` is excluded because results are
    chunk-size invariant.

    ``closed_loop`` turns the run closed-loop: a
    :class:`repro.scenario.closed_loop.ClosedLoopSpec`, a parameter dict, or
    a pre-built :class:`~repro.scenario.closed_loop.ClosedLoopSource` (pass
    one built over the *resolved* scenario to inspect its intensity
    trajectory after the run).  The compiled stream is then produced through
    the feedback-driven source instead of the open-loop chunk iterator;
    determinism and chunk-size invariance still hold (see
    :mod:`repro.scenario.closed_loop`).

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
    loop_spec = None
    source = None
    if closed_loop is not None:
        from repro.scenario.closed_loop import (
            ClosedLoopSource,
            as_closed_loop_spec,
        )

        if isinstance(closed_loop, ClosedLoopSource):
            source = closed_loop
            loop_spec = source.spec
        else:
            loop_spec = as_closed_loop_spec(closed_loop)
            source = ClosedLoopSource(resolved, loop_spec, seed=seed,
                                      chunk_size=chunk_size)
    snapshot_key = None
    if warmup_snapshot is not None and warmup_fraction > 0:
        from repro.sim.snapshot import snapshot_fingerprint

        snapshot_key = snapshot_fingerprint(
            resolved, config, int(resolved.total_accesses * warmup_fraction),
            num_cores=None, seed=seed, closed_loop=loop_spec)
    if source is not None:
        chunks = source
    else:
        chunks = iter_scenario_chunks(resolved, seed=seed,
                                      chunk_size=chunk_size)
    return run_trace(chunks, config, workload_name=resolved.name,
                     warmup_fraction=warmup_fraction,
                     num_accesses=resolved.total_accesses,
                     extra_agents=extra_agents,
                     telemetry=recorder,
                     snapshot=snapshot,
                     warmup_snapshot=warmup_snapshot,
                     snapshot_key=snapshot_key)

