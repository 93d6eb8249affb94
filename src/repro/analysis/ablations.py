"""Ablation and extension experiments.

The paper asserts a handful of design choices it does not sweep, and
discusses more in Sections VI and VII.  Each function here is
an experiment in the same style as :mod:`repro.analysis.experiments`
(plain-dict results, shared result memo) covering one of them:

* :func:`rdtt_sizing` -- how read coverage depends on the RDTT geometry (the
  Software Testing discussion of Section V.B);
* :func:`predictor_table_sizing` -- BHT/DRT sizing versus coverage and extra
  writebacks;
* :func:`scheduler_policy_study` -- FR-FCFS against FCFS and the fairness-
  oriented rotating scheduler (Section VI, memory access scheduling policy);
* :func:`writeback_mechanism_study` -- demand writeback vs. age-based eager
  writeback vs. VWQ vs. BuMP vs. BuMP+VWQ (footnote 1);
* :func:`prefetcher_comparison` -- next-line / stride / Stealth / SMS / BuMP
  read-side comparison (Section VII related work);
* :func:`timing_model_sensitivity` -- the headline speedups under the
  analytic and the interval timing models;
* :func:`interleaving_sensitivity` -- BuMP with region-level versus
  block-level address interleaving (why Section IV.D maps a region to one
  DRAM row).

Each study builds its configurations through a ``*_configs`` function, which
its :mod:`repro.analysis.figures` entry declares, so that
:func:`repro.analysis.figures.precompute` can run them ahead.  The memo is
keyed by configuration content, so a study's cell that builds the same
system as a main-figure run (BuMP under FR-FCFS, region interleaving or the
analytic timing model) reuses that run.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.core.config import BuMPConfig
from repro.sim.config import SystemConfig, base_open, bump_system, named_configs
from repro.analysis.experiments import _run, _workloads

#: RDTT trigger/density entry counts swept (Section IV.D chooses 256).
RDTT_ENTRIES = (64, 256, 2048)
#: BHT/DRT entry counts swept (Section IV.D chooses 1024).
TABLE_ENTRIES = (128, 1024)
#: Transaction schedulers compared (FR-FCFS is the paper's).
SCHEDULERS = ("fcfs", "frfcfs", "bank_round_robin")
#: Core timing models compared (the analytic one is the default).
TIMING_MODELS = ("analytic", "interval")


def _average(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _averages(configs: Dict[Hashable, SystemConfig],
              workloads: Optional[Iterable[str]], num_accesses: Optional[int],
              **columns: str) -> Dict[Hashable, Dict[str, float]]:
    """Each configuration's result attributes, averaged over the workloads.

    ``columns`` maps each output column to the
    :class:`repro.sim.results.SimulationResult` attribute it averages.
    """
    selected = _workloads(workloads)
    table: Dict[Hashable, Dict[str, float]] = {}
    for label, config in configs.items():
        results = [_run(workload, config, num_accesses=num_accesses)
                   for workload in selected]
        table[label] = {column: _average([getattr(result, attribute)
                                          for result in results])
                        for column, attribute in columns.items()}
    return table


# --------------------------------------------------------------------- #
# BuMP structure sizing
# --------------------------------------------------------------------- #
def rdtt_configs(entry_counts: Iterable[int] = RDTT_ENTRIES) -> Dict[int, SystemConfig]:
    """BuMP with each RDTT trigger/density table size."""
    return {entries: bump_system(bump=BuMPConfig(trigger_entries=entries,
                                                 density_entries=entries))
            for entries in entry_counts}


def rdtt_sizing(workloads: Optional[Iterable[str]] = None,
                num_accesses: Optional[int] = None,
                entry_counts: Iterable[int] = RDTT_ENTRIES) -> Dict[int, Dict[str, float]]:
    """Read coverage and overfetch as the RDTT trigger/density tables grow.

    The paper notes Software Testing needs a larger RDTT (Section V.B); this
    sweep shows coverage saturating once the tables hold the workload's
    concurrently-active regions.
    """
    return _averages(rdtt_configs(entry_counts), workloads, num_accesses,
                     read_coverage="read_coverage",
                     read_overfetch="read_overfetch")


def table_configs(entry_counts: Iterable[int] = TABLE_ENTRIES) -> Dict[int, SystemConfig]:
    """BuMP with each BHT/DRT size (the two tables grow together)."""
    return {entries: bump_system(bump=BuMPConfig(bht_entries=entries,
                                                 drt_entries=entries))
            for entries in entry_counts}


def predictor_table_sizing(workloads: Optional[Iterable[str]] = None,
                           num_accesses: Optional[int] = None,
                           entry_counts: Iterable[int] = TABLE_ENTRIES
                           ) -> Dict[int, Dict[str, float]]:
    """Write coverage and extra writebacks as the BHT and DRT grow together.

    Extra writebacks are DRAM writes beyond Base-open's on the same trace,
    so the study also reads Base-open.
    """
    selected = _workloads(workloads)
    configs = table_configs(entry_counts)
    table = _averages(configs, selected, num_accesses,
                      read_coverage="read_coverage",
                      write_coverage="write_coverage")
    for entries, config in configs.items():
        extra = []
        for workload in selected:
            baseline = _run(workload, base_open(), num_accesses=num_accesses)
            result = _run(workload, config, num_accesses=num_accesses)
            baseline_writes = max(baseline.total_dram_writes, 1.0)
            extra.append(max(result.total_dram_writes / baseline_writes - 1.0, 0.0))
        table[entries]["extra_writebacks"] = _average(extra)
    return table


# --------------------------------------------------------------------- #
# Memory controller and interleaving
# --------------------------------------------------------------------- #
def scheduler_configs(policies: Iterable[str] = SCHEDULERS) -> Dict[str, SystemConfig]:
    """BuMP under each transaction scheduler."""
    return {policy: bump_system(scheduler=policy) for policy in policies}


def scheduler_policy_study(workloads: Optional[Iterable[str]] = None,
                           num_accesses: Optional[int] = None,
                           policies: Iterable[str] = SCHEDULERS
                           ) -> Dict[str, Dict[str, float]]:
    """Row-buffer hit ratio and energy of BuMP under different schedulers.

    Section VI argues BuMP composes with fairness-oriented scheduling because
    server cores execute near-identical instruction streams; this study
    quantifies how much row locality each policy preserves.  FR-FCFS is the
    paper's default scheduler, so its cells are the main figures' BuMP runs.
    """
    return _averages(scheduler_configs(policies), workloads, num_accesses,
                     row_buffer_hit_ratio="row_buffer_hit_ratio",
                     energy_per_access_nj="memory_energy_per_access_nj")


def interleaving_configs() -> Dict[str, SystemConfig]:
    """BuMP with region-level and with block-level address interleaving."""
    return {interleaving: bump_system(interleaving=interleaving)
            for interleaving in ("region", "block")}


def interleaving_sensitivity(workloads: Optional[Iterable[str]] = None,
                             num_accesses: Optional[int] = None
                             ) -> Dict[str, Dict[str, float]]:
    """BuMP with region-level versus block-level address interleaving.

    Region interleaving maps a 1KB region onto a single DRAM row so a bulk
    transfer amortises one activation; block interleaving spreads the same
    region over sixteen banks and forfeits that amortisation even though the
    predictor behaves identically.  The region-interleaved variant is the
    default BuMP system, so only the block-interleaved cells are new.
    """
    return _averages(interleaving_configs(), workloads, num_accesses,
                     row_buffer_hit_ratio="row_buffer_hit_ratio",
                     energy_per_access_nj="memory_energy_per_access_nj")


# --------------------------------------------------------------------- #
# Mechanism comparisons
# --------------------------------------------------------------------- #
def writeback_configs() -> Dict[str, SystemConfig]:
    """The write-side mechanisms, by name."""
    return named_configs(["base_open", "eager_writeback", "vwq", "bump", "bump_vwq"])


def writeback_mechanism_study(workloads: Optional[Iterable[str]] = None,
                              num_accesses: Optional[int] = None
                              ) -> Dict[str, Dict[str, float]]:
    """Write coverage and row locality of the write-side mechanisms.

    Compares demand-only writeback (Base-open), age-based eager writeback,
    VWQ, BuMP and BuMP+VWQ (footnote 1 of Section V.G).
    """
    return _averages(writeback_configs(), workloads, num_accesses,
                     write_coverage="write_coverage",
                     row_buffer_hit_ratio="row_buffer_hit_ratio",
                     dram_writes="total_dram_writes")


def prefetcher_configs() -> Dict[str, SystemConfig]:
    """The read-side mechanisms; Base-open's stride prefetcher is "stride"."""
    systems = named_configs(["nextline", "base_open", "stealth", "sms", "bump"])
    return {"stride" if name == "base_open" else name: config
            for name, config in systems.items()}


def prefetcher_comparison(workloads: Optional[Iterable[str]] = None,
                          num_accesses: Optional[int] = None
                          ) -> Dict[str, Dict[str, float]]:
    """Read-side comparison: next-line, stride, Stealth, SMS and BuMP.

    Reports coverage, overfetch and row-buffer locality for each mechanism --
    the trade-off Section VII draws between address-correlated and
    code-correlated schemes (their storage costs are compared separately by
    the Section VI scalability analysis).  Runs shared with the main figures
    (base_open as "stride", sms, bump) are reused.
    """
    return _averages(prefetcher_configs(), workloads, num_accesses,
                     read_coverage="read_coverage",
                     read_overfetch="read_overfetch",
                     row_buffer_hit_ratio="row_buffer_hit_ratio")


# --------------------------------------------------------------------- #
# Timing model sensitivity
# --------------------------------------------------------------------- #
def timing_configs() -> Dict[str, Tuple[SystemConfig, SystemConfig]]:
    """(Base-open, BuMP) under each core timing model."""
    return {model: (base_open(timing_model=model), bump_system(timing_model=model))
            for model in TIMING_MODELS}


def timing_model_sensitivity(workloads: Optional[Iterable[str]] = None,
                             num_accesses: Optional[int] = None
                             ) -> Dict[str, Dict[str, float]]:
    """BuMP's speedup over Base-open under both core timing models.

    The claim that bulk streaming helps performance should not hinge on the
    fixed-MLP assumption of the default model; this study recomputes the
    speedup with the interval (ROB/MSHR-derived) model.  The analytic model
    is the default, so those runs are shared with the main figures.
    """
    results: Dict[str, Dict[str, float]] = {}
    selected = _workloads(workloads)
    for model, (base_config, bump_config) in timing_configs().items():
        speedups = []
        for workload in selected:
            base = _run(workload, base_config, num_accesses=num_accesses)
            bump = _run(workload, bump_config, num_accesses=num_accesses)
            speedups.append(bump.throughput_ipc / max(base.throughput_ipc, 1e-12) - 1.0)
        results[model] = {"bump_speedup_over_base_open": _average(speedups)}
    return results
