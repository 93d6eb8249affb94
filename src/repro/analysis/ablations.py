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

Every study accepts ``workers``: with more than one, its simulation grid is
fanned out through the campaign engine (:mod:`repro.exec`) before the
aggregation loops run, which then hit only the warm result memo.  The memo
is keyed by configuration content, so a study's cell that builds the same
system as a main-figure run (BuMP under FR-FCFS, region interleaving or the
analytic timing model) reuses that run.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.core.config import BuMPConfig
from repro.sim.config import (
    SystemConfig,
    base_open,
    bump_system,
    bump_vwq_system,
    eager_writeback_system,
    nextline_system,
    sms_system,
    stealth_system,
    vwq_system,
)
from repro.analysis.experiments import (
    DEFAULT_SEED,
    _run,
    _workloads,
    precompute_results,
)


def _average(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _precompute(configs: Iterable[SystemConfig], workloads: List[str],
                num_accesses: Optional[int], workers: Optional[int],
                seed: int = DEFAULT_SEED) -> None:
    """Fan a study's (workload x configuration) grid out as one campaign.

    Results land in the shared experiment result memo, keyed by content,
    so the subsequent serial aggregation loop (which still calls
    :func:`repro.analysis.experiments._run`) never simulates.  No-op for
    ``workers`` of one or ``None`` -- the study then runs serially exactly
    as before.
    """
    if not workers or workers <= 1:
        return
    precompute_results(configs, workloads, num_accesses=num_accesses,
                       seed=seed, workers=workers)


# --------------------------------------------------------------------- #
# BuMP structure sizing
# --------------------------------------------------------------------- #
def rdtt_sizing(entry_counts: Iterable[int] = (64, 256, 1024, 2048),
                workloads: Optional[Iterable[str]] = None,
                num_accesses: Optional[int] = None,
                workers: Optional[int] = None) -> Dict[int, Dict[str, float]]:
    """Read coverage and overfetch as the RDTT trigger/density tables grow.

    The paper notes Software Testing needs a larger RDTT (Section V.B); this
    sweep shows coverage saturating once the tables hold the workload's
    concurrently-active regions.
    """
    results: Dict[int, Dict[str, float]] = {}
    selected = _workloads(workloads)
    configs = {
        entries: bump_system(
            bump=BuMPConfig(trigger_entries=entries, density_entries=entries))
        for entries in entry_counts
    }
    _precompute(configs.values(), selected, num_accesses, workers)
    for entries, config in configs.items():
        coverage, overfetch = [], []
        for workload in selected:
            result = _run(workload, config, num_accesses=num_accesses)
            coverage.append(result.read_coverage)
            overfetch.append(result.read_overfetch)
        results[entries] = {
            "read_coverage": _average(coverage),
            "read_overfetch": _average(overfetch),
        }
    return results


def predictor_table_sizing(entry_counts: Iterable[int] = (128, 512, 1024, 4096),
                           workloads: Optional[Iterable[str]] = None,
                           num_accesses: Optional[int] = None,
                           workers: Optional[int] = None) -> Dict[int, Dict[str, float]]:
    """Write coverage and extra writebacks as the BHT and DRT grow together."""
    results: Dict[int, Dict[str, float]] = {}
    selected = _workloads(workloads)
    configs = {
        entries: bump_system(
            bump=BuMPConfig(bht_entries=entries, drt_entries=entries))
        for entries in entry_counts
    }
    _precompute([*configs.values(), base_open()], selected, num_accesses,
                workers)
    for entries, config in configs.items():
        write_cov, read_cov, extra = [], [], []
        for workload in selected:
            baseline = _run(workload, base_open(), num_accesses=num_accesses)
            result = _run(workload, config, num_accesses=num_accesses)
            write_cov.append(result.write_coverage)
            read_cov.append(result.read_coverage)
            baseline_writes = max(baseline.total_dram_writes, 1.0)
            extra.append(max(result.total_dram_writes / baseline_writes - 1.0, 0.0))
        results[entries] = {
            "read_coverage": _average(read_cov),
            "write_coverage": _average(write_cov),
            "extra_writebacks": _average(extra),
        }
    return results


# --------------------------------------------------------------------- #
# Memory controller and interleaving
# --------------------------------------------------------------------- #
def scheduler_policy_study(policies: Iterable[str] = ("fcfs", "frfcfs", "bank_round_robin"),
                           workloads: Optional[Iterable[str]] = None,
                           num_accesses: Optional[int] = None,
                           workers: Optional[int] = None) -> Dict[str, Dict[str, float]]:
    """Row-buffer hit ratio and energy of BuMP under different schedulers.

    Section VI argues BuMP composes with fairness-oriented scheduling because
    server cores execute near-identical instruction streams; this study
    quantifies how much row locality each policy preserves.  FR-FCFS is the
    paper's default scheduler, so its cells are the main figures' BuMP runs.
    """
    selected = _workloads(workloads)
    configs = {policy: bump_system().with_overrides(scheduler=policy)
               for policy in policies}
    return _hits_and_energy(configs, selected, num_accesses, workers)


def interleaving_sensitivity(workloads: Optional[Iterable[str]] = None,
                             num_accesses: Optional[int] = None,
                             workers: Optional[int] = None) -> Dict[str, Dict[str, float]]:
    """BuMP with region-level versus block-level address interleaving.

    Region interleaving maps a 1KB region onto a single DRAM row so a bulk
    transfer amortises one activation; block interleaving spreads the same
    region over sixteen banks and forfeits that amortisation even though the
    predictor behaves identically.  The region-interleaved variant is the
    default BuMP system, so only the block-interleaved cells are new.
    """
    selected = _workloads(workloads)
    configs = {interleaving: bump_system().with_overrides(interleaving=interleaving)
               for interleaving in ("region", "block")}
    return _hits_and_energy(configs, selected, num_accesses, workers)


def _hits_and_energy(configs: Dict[str, SystemConfig], selected: List[str],
                     num_accesses: Optional[int],
                     workers: Optional[int]) -> Dict[str, Dict[str, float]]:
    """Workload-averaged row-buffer hit ratio and energy per access."""
    _precompute(configs.values(), selected, num_accesses, workers)
    results: Dict[str, Dict[str, float]] = {}
    for label, config in configs.items():
        hits, energy = [], []
        for workload in selected:
            result = _run(workload, config, num_accesses=num_accesses)
            hits.append(result.row_buffer_hit_ratio)
            energy.append(result.memory_energy_per_access_nj)
        results[label] = {
            "row_buffer_hit_ratio": _average(hits),
            "energy_per_access_nj": _average(energy),
        }
    return results


# --------------------------------------------------------------------- #
# Mechanism comparisons
# --------------------------------------------------------------------- #
def writeback_mechanism_study(workloads: Optional[Iterable[str]] = None,
                              num_accesses: Optional[int] = None,
                              workers: Optional[int] = None) -> Dict[str, Dict[str, float]]:
    """Write coverage and row locality of the write-side mechanisms.

    Compares demand-only writeback (Base-open), age-based eager writeback,
    VWQ, BuMP and BuMP+VWQ (footnote 1 of Section V.G).
    """
    systems = {
        "base_open": base_open(),
        "eager_writeback": eager_writeback_system(),
        "vwq": vwq_system(),
        "bump": bump_system(),
        "bump_vwq": bump_vwq_system(),
    }
    results: Dict[str, Dict[str, float]] = {}
    selected = _workloads(workloads)
    _precompute(systems.values(), selected, num_accesses, workers)
    for name, config in systems.items():
        coverage, hits, writes = [], [], []
        for workload in selected:
            result = _run(workload, config, num_accesses=num_accesses)
            coverage.append(result.write_coverage)
            hits.append(result.row_buffer_hit_ratio)
            writes.append(result.total_dram_writes)
        results[name] = {
            "write_coverage": _average(coverage),
            "row_buffer_hit_ratio": _average(hits),
            "dram_writes": _average(writes),
        }
    return results


def prefetcher_comparison(workloads: Optional[Iterable[str]] = None,
                          num_accesses: Optional[int] = None,
                          workers: Optional[int] = None) -> Dict[str, Dict[str, float]]:
    """Read-side comparison: next-line, stride, Stealth, SMS and BuMP.

    Reports coverage, overfetch and row-buffer locality for each mechanism --
    the trade-off Section VII draws between address-correlated and
    code-correlated schemes (their storage costs are compared separately by
    the Section VI scalability analysis).  Runs shared with the main figures
    (base_open as "stride", sms, bump) are reused.
    """
    systems = {
        "nextline": nextline_system(),
        "stride": base_open(),
        "stealth": stealth_system(),
        "sms": sms_system(),
        "bump": bump_system(),
    }
    results: Dict[str, Dict[str, float]] = {}
    selected = _workloads(workloads)
    _precompute(systems.values(), selected, num_accesses, workers)
    for name, config in systems.items():
        coverage, overfetch, hits = [], [], []
        for workload in selected:
            result = _run(workload, config, num_accesses=num_accesses)
            coverage.append(result.read_coverage)
            overfetch.append(result.read_overfetch)
            hits.append(result.row_buffer_hit_ratio)
        results[name] = {
            "read_coverage": _average(coverage),
            "read_overfetch": _average(overfetch),
            "row_buffer_hit_ratio": _average(hits),
        }
    return results


# --------------------------------------------------------------------- #
# Timing model sensitivity
# --------------------------------------------------------------------- #
def timing_model_sensitivity(workloads: Optional[Iterable[str]] = None,
                             num_accesses: Optional[int] = None,
                             workers: Optional[int] = None) -> Dict[str, Dict[str, float]]:
    """BuMP's speedup over Base-open under both core timing models.

    The claim that bulk streaming helps performance should not hinge on the
    fixed-MLP assumption of the default model; this study recomputes the
    speedup with the interval (ROB/MSHR-derived) model.  The analytic model
    is the default, so those runs are shared with the main figures.
    """
    results: Dict[str, Dict[str, float]] = {}
    selected = _workloads(workloads)
    pairs = {
        model: (base_open().with_overrides(timing_model=model),
                bump_system().with_overrides(timing_model=model))
        for model in ("analytic", "interval")
    }
    _precompute([config for pair in pairs.values() for config in pair],
                selected, num_accesses, workers)
    for model, (base_config, bump_config) in pairs.items():
        speedups = []
        for workload in selected:
            base = _run(workload, base_config, num_accesses=num_accesses)
            bump = _run(workload, bump_config, num_accesses=num_accesses)
            speedups.append(bump.throughput_ipc / max(base.throughput_ipc, 1e-12) - 1.0)
        results[model] = {"bump_speedup_over_base_open": _average(speedups)}
    return results
