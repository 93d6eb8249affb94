"""DRAM engine selection.

Two interchangeable memory-system engines implement the same metrics surface
and produce bit-identical simulation results (the parity suite asserts this
for every workload, named configuration and catalog scenario):

``flat`` (default)
    :class:`repro.dram.flat.FlatMemorySystem` -- preallocated NumPy
    per-(channel, bank) state, flat ring-buffer transaction queues with the
    incremental FR-FCFS bucket scheme, and a batched
    ``enqueue_block_batch`` intake consuming whole per-chunk miss arrays.

``object``
    :class:`repro.dram.system.MemorySystem` driving per-channel
    :class:`repro.dram.controller.MemoryController` instances -- the
    original request-object model, kept as the flat engine's reference and
    as the only engine that runs the ablation schedulers.

Select globally with the ``REPRO_DRAM_ENGINE`` environment variable or per
run via the ``dram_engine`` argument of
:class:`repro.sim.system.ServerSystem` / :func:`repro.sim.runner.run_trace`
/ :func:`repro.sim.runner.run_workload_streaming`.

The flat engine covers the configuration space of the paper's evaluation:
FR-FCFS scheduling and DRAM organisations whose rank/bank counts fit the
packed row-state key.  :func:`resolve_dram_engine` transparently falls back
to the object engine outside that space (the ablation-only scheduling
policies of :mod:`repro.dram.policies`, oversized organisations), mirroring
how the object engine's fast scheduler only engages for ``FRFCFSQueue``.
Results are bit-identical either way, so the fallback is a speed decision,
never a fidelity one.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.common.params import DRAMOrganization
from repro.dram.flat import PACK_LIMIT

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINES",
    "ENGINE_ENV_VAR",
    "dram_engine_name",
    "resolve_dram_engine",
]

#: Environment variable consulted when no explicit engine is requested.
ENGINE_ENV_VAR = "REPRO_DRAM_ENGINE"

#: Engine used when neither the caller nor the environment picks one.
DEFAULT_ENGINE = "flat"

ENGINES = ("flat", "object")


def dram_engine_name(override: Optional[str] = None) -> str:
    """Resolve the requested DRAM engine name.

    Priority: explicit ``override`` argument, then the ``REPRO_DRAM_ENGINE``
    environment variable, then :data:`DEFAULT_ENGINE`.  Unknown names fail
    loudly so configuration typos cannot silently fall back.
    """
    name = override
    if name is None:
        name = os.environ.get(ENGINE_ENV_VAR, "").strip().lower() or DEFAULT_ENGINE
    name = name.lower()
    if name not in ENGINES:
        raise ValueError(
            f"unknown DRAM engine {name!r}; known engines: {', '.join(ENGINES)}")
    return name


def resolve_dram_engine(override: Optional[str] = None,
                        scheduler: str = "frfcfs",
                        org: Optional[DRAMOrganization] = None) -> str:
    """Effective engine for a concrete system configuration.

    Resolves the request like :func:`dram_engine_name`, then downgrades
    ``flat`` to ``object`` when the configuration sits outside the flat
    engine's space: a non-FR-FCFS transaction scheduler (the ablation
    policies only exist in the object engine) or a DRAM organisation whose
    rank/bank counts overflow the packed row-state key.  The downgrade is
    sound because the engines are bit-identical wherever both apply.
    """
    name = dram_engine_name(override)
    if name != "flat":
        return name
    if scheduler != "frfcfs":
        return "object"
    if org is not None and (org.ranks_per_channel > PACK_LIMIT
                            or org.banks_per_rank > PACK_LIMIT):
        # Counts up to PACK_LIMIT are fine: indices 0..PACK_LIMIT-1 fit the
        # packed key's 6-bit fields (the same bound row_state_key packs).
        return "object"
    return "flat"
