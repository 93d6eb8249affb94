"""Reproduction of "BuMP: Bulk Memory Access Prediction and Streaming" (MICRO 2014).

The package is organised as one subpackage per subsystem:

* :mod:`repro.core` -- the paper's contribution: the BuMP predictor (RDTT,
  BHT, DRT) and the Full-region foil.
* :mod:`repro.cache`, :mod:`repro.dram`, :mod:`repro.noc`,
  :mod:`repro.energy` -- the microarchitectural substrates the evaluation
  depends on (cache hierarchy, DDR3 memory system, crossbar NOC, energy
  model).
* :mod:`repro.prefetch`, :mod:`repro.writeback` -- the baselines BuMP is
  compared against (stride, SMS, VWQ) plus the related-work foils used by the
  ablations (next-line, Stealth-style region prefetching, age-based eager
  writeback).
* :mod:`repro.cpu` -- core microarchitecture models (ROB/MLP model,
  interval timing).
* :mod:`repro.workloads` -- synthetic server workload generators calibrated
  to the paper's characterisation of CloudSuite and TPC-H behaviour.
* :mod:`repro.scenario` -- the composable scenario engine: multi-tenant,
  phased, bursty compositions of the workload generators, compiled to the
  same columnar trace pipeline.
* :mod:`repro.trace` -- the columnar :class:`~repro.trace.TraceBuffer`,
  the one trace shape from generator to simulator, plus persistence,
  characterisation, trace sources and post-L1 stream capture.
* :mod:`repro.sim` -- the trace-driven full-system model, system
  configurations, timing and the experiment runner.
* :mod:`repro.analysis` -- one experiment function per paper figure/table,
  registered once with its tables and shape checks
  (:mod:`repro.analysis.figures`), the ablation and Section VI scalability
  studies, paper-vs-measured validation, and plain-text reporting.
* :mod:`repro.exec` -- the parallel experiment-campaign engine: declarative
  workload grids, a content-addressed on-disk artifact store,
  worker-process sharding and the serial-vs-parallel parity guard.
* :mod:`repro.telemetry` -- the observability layer: per-chunk timeline
  sampling of the hot counters and span tracing of the pipeline stages
  (JSONL event logs), selected via ``REPRO_TELEMETRY`` / ``telemetry=``
  (``off``, the free default, or ``full``).
* :mod:`repro.cli` -- the ``repro`` command-line interface (also installed
  as ``repro-bump``).

Typical use::

    from repro.sim import bump_system, base_open, run_workload

    baseline = run_workload("web_search", base_open(), num_accesses=50_000)
    bump = run_workload("web_search", bump_system(), num_accesses=50_000)
    print(baseline.row_buffer_hit_ratio, bump.row_buffer_hit_ratio)
"""

from repro.core import BuMPConfig, BuMPPredictor
from repro.sim import (
    SimulationResult,
    SystemConfig,
    base_close,
    base_open,
    bump_system,
    full_region_system,
    ideal_system,
    named_configs,
    run_trace,
    run_workload,
    sms_system,
    sms_vwq_system,
    vwq_system,
)
from repro.trace import TraceBuffer
from repro.workloads import (
    WORKLOADS,
    WorkloadSpec,
    generate_trace_buffer,
    get_workload,
    iter_trace_chunks,
)

__version__ = "1.27.0"

__all__ = [
    "BuMPConfig",
    "BuMPPredictor",
    "SimulationResult",
    "SystemConfig",
    "base_close",
    "base_open",
    "bump_system",
    "full_region_system",
    "ideal_system",
    "named_configs",
    "run_trace",
    "run_workload",
    "sms_system",
    "sms_vwq_system",
    "vwq_system",
    "TraceBuffer",
    "WORKLOADS",
    "WorkloadSpec",
    "generate_trace_buffer",
    "get_workload",
    "iter_trace_chunks",
    "__version__",
]
