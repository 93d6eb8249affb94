"""Parallel experiment-campaign engine with an on-disk artifact store.

The reproduction's figures, ablations and design-space sweeps are all grids
of independent (workload x system configuration x seed) simulations.  This
package turns those grids into *campaigns*:

* :mod:`repro.exec.jobs` -- declarative workload grids and the content
  fingerprints that give every simulation a stable identity;
* :mod:`repro.exec.store` -- a content-addressed on-disk cache of traces and
  :class:`~repro.sim.results.SimulationResult` bundles, so re-runs and
  crashed sweeps resume for free (a damaged entry is a miss and is
  rewritten);
* :mod:`repro.exec.pool` -- worker-process execution, sharded so each input
  trace is built once and shared through the store;
* :mod:`repro.exec.campaign` -- orchestration, aggregation and the
  serial-vs-parallel parity guard;
* :mod:`repro.exec.progress` -- streaming progress observers.

A campaign runs a workload grid and returns its results; it records nothing
else.  Scenarios are not jobs: they run through
:func:`repro.scenario.runner.run_scenario`.

Typical use::

    from repro.exec import ArtifactStore, Campaign, JobGrid

    grid = JobGrid(workloads=["web_search", "web_serving"],
                   configs=["base_open", "bump"], num_accesses=60_000)
    store = ArtifactStore(".repro-artifacts")
    outcome = Campaign(grid.expand(), store=store, workers=4).run()
    print(outcome.get("web_search", "bump").row_buffer_hit_ratio)
"""

from repro.exec.campaign import (
    Campaign,
    CampaignError,
    CampaignResult,
    JobOutcome,
    ParityError,
    result_fingerprint,
    run_campaign,
    run_job,
    verify_parity,
)
from repro.exec.jobs import (
    JobGrid,
    JobSpec,
    config_fingerprint,
    fingerprint,
    workload_fingerprint,
)
from repro.exec.progress import (
    CampaignProgress,
    ConsoleProgress,
    RecordingProgress,
)
from repro.exec.store import ArtifactStore, default_store

__all__ = [
    "ArtifactStore",
    "Campaign",
    "CampaignError",
    "CampaignProgress",
    "CampaignResult",
    "ConsoleProgress",
    "JobGrid",
    "JobOutcome",
    "JobSpec",
    "ParityError",
    "RecordingProgress",
    "config_fingerprint",
    "default_store",
    "fingerprint",
    "result_fingerprint",
    "run_campaign",
    "run_job",
    "verify_parity",
    "workload_fingerprint",
]
