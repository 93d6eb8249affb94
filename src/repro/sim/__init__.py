"""Trace-driven full-system model.

This package assembles the substrates (caches, DRAM, NOC, energy) and the
mechanisms under study (stride, SMS, VWQ, BuMP, Full-region) into the system
configurations the paper evaluates, runs workload traces through them, and
produces the metrics every figure and table consumes.

* :mod:`repro.sim.config` -- :class:`SystemConfig` plus factories for the
  named configurations: ``Base-close``, ``Base-open``, ``SMS``, ``VWQ``,
  ``SMS+VWQ``, ``Full-region``, ``BuMP`` and ``Ideal``.
* :mod:`repro.sim.system` -- :class:`ServerSystem`, the trace interpreter
  that moves accesses through the L1s, the LLC, the attached agents and the
  memory system while attributing every DRAM transfer.
* :mod:`repro.sim.pipeline` -- the forked trace read-ahead and DRAM
  helpers a long run overlaps with its cache/agent loop.
* :mod:`repro.sim.timing` -- the analytic performance model (base CPI plus
  exposed memory stalls bounded by memory bandwidth).
* :mod:`repro.sim.results` -- :class:`SimulationResult`, the measurement
  bundle returned by a run.
* :mod:`repro.sim.runner` -- convenience entry points used by the examples,
  tests and benchmark harness.
"""

from repro.sim.config import (
    SystemConfig,
    base_close,
    base_open,
    bump_system,
    bump_vwq_system,
    eager_writeback_system,
    extended_configs,
    full_region_system,
    ideal_system,
    named_configs,
    nextline_system,
    sms_system,
    sms_vwq_system,
    stealth_system,
    vwq_system,
)
from repro.sim.results import SimulationResult
from repro.sim.runner import run_trace, run_workload
from repro.sim.system import ServerSystem
from repro.sim.timing import TimingModel, TimingSummary

__all__ = [
    "SystemConfig",
    "base_close",
    "base_open",
    "bump_system",
    "bump_vwq_system",
    "eager_writeback_system",
    "extended_configs",
    "full_region_system",
    "ideal_system",
    "named_configs",
    "nextline_system",
    "sms_system",
    "sms_vwq_system",
    "stealth_system",
    "vwq_system",
    "SimulationResult",
    "run_trace",
    "run_workload",
    "ServerSystem",
    "TimingModel",
    "TimingSummary",
]
