"""One experiment function per figure/table of the paper's evaluation.

Every function returns plain dictionaries shaped like the corresponding
figure's data series; :mod:`repro.analysis.figures` registers each one with
the tables that render it and the checks that validate it.  Results of individual (workload, configuration)
simulations are memoized in-process under their job's content fingerprint
(:meth:`repro.exec.jobs.JobSpec.result_fingerprint`): several figures reuse
the same runs (e.g. Figures 2, 9, 10 and 13 all need the open-row baseline),
and re-simulating them would dominate the harness run time.  Two
configurations share a memo entry exactly when they build the identical
system, whatever they are named.

The default trace length is read from the ``REPRO_EXPERIMENT_ACCESSES``
environment variable so CI or a laptop can dial the fidelity/runtime
trade-off without touching code.

``_run`` funnels a run the memo lacks through
:func:`repro.exec.campaign.run_job`, so it hits the on-disk artifact store
when ``REPRO_ARTIFACT_DIR`` is set;
:func:`repro.analysis.figures.precompute` fills the memo ahead of time,
running every configuration a set of registry entries reads as one
campaign per trace length.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.config import BuMPConfig
from repro.exec.campaign import run_job
from repro.exec.jobs import JobSpec
from repro.exec.store import default_store
from repro.sim.config import SystemConfig, bump_system, named_configs
from repro.sim.results import SimulationResult
from repro.workloads.catalog import workload_names

#: Trace length used by the experiment harness (per workload, per system).
DEFAULT_ACCESSES = int(os.environ.get("REPRO_EXPERIMENT_ACCESSES", "240000"))
DEFAULT_SEED = int(os.environ.get("REPRO_EXPERIMENT_SEED", "42"))

#: Simulation results keyed by :meth:`JobSpec.result_fingerprint`.
_RESULT_CACHE: Dict[str, SimulationResult] = {}


def clear_result_cache() -> None:
    """Drop all cached simulation results (used by tests)."""
    _RESULT_CACHE.clear()


def design_space_accesses(num_accesses: Optional[int] = None) -> int:
    """Trace length of the Figure 11 sweep (half the default, floored).

    Figure 11's registry entry runs at this length, so its memo and store
    cells line up wherever the entry runs.
    """
    accesses = num_accesses if num_accesses is not None else DEFAULT_ACCESSES
    return max(accesses // 2, 60_000)


def job_spec(workload: str, config: SystemConfig,
             num_accesses: Optional[int] = None) -> JobSpec:
    """The job an experiment runs for one workload under one configuration."""
    accesses = num_accesses if num_accesses is not None else DEFAULT_ACCESSES
    return JobSpec(workload=workload, config=config, num_accesses=accesses,
                   seed=DEFAULT_SEED)


def _run(workload: str, config: SystemConfig,
         num_accesses: Optional[int] = None) -> SimulationResult:
    """Run (or fetch from the memo) one workload under one configuration."""
    job = job_spec(workload, config, num_accesses)
    key = job.result_fingerprint()
    result = _RESULT_CACHE.get(key)
    if result is None:
        result = _RESULT_CACHE[key] = run_job(job, store=default_store())
    return result


def _workloads(workloads: Optional[Iterable[str]]) -> List[str]:
    return list(workloads) if workloads is not None else workload_names()


def _named(name: str) -> SystemConfig:
    return named_configs([name])[name]


# --------------------------------------------------------------------- #
# Figure 1 -- server energy breakdown
# --------------------------------------------------------------------- #
def figure1_energy_breakdown(workloads: Optional[Iterable[str]] = None,
                             num_accesses: Optional[int] = None) -> Dict[str, Dict[str, float]]:
    """Relative server energy by component for the open-row baseline.

    Returns ``{workload: {component: share}}`` with the memory components
    split into activation, burst & I/O and background, exactly as Figure 1
    stacks them.
    """
    breakdowns = {}
    for workload in _workloads(workloads):
        result = _run(workload, _named("base_open"), num_accesses=num_accesses)
        breakdowns[workload] = result.energy.component_shares()
    return breakdowns


# --------------------------------------------------------------------- #
# Figure 2 -- row buffer hit ratio of baseline systems
# --------------------------------------------------------------------- #
def figure2_row_buffer_hit(workloads: Optional[Iterable[str]] = None,
                           num_accesses: Optional[int] = None) -> Dict[str, Dict[str, float]]:
    """Row-buffer hit ratio of Base(-open), SMS, VWQ and the Ideal system."""
    systems = ["base_open", "sms", "vwq", "ideal"]
    table = {}
    for workload in _workloads(workloads):
        table[workload] = {
            name: _run(workload, _named(name), num_accesses=num_accesses).row_buffer_hit_ratio
            for name in systems
        }
    return table


# --------------------------------------------------------------------- #
# Figure 3 -- DRAM traffic decomposition
# --------------------------------------------------------------------- #
def figure3_traffic_breakdown(workloads: Optional[Iterable[str]] = None,
                              num_accesses: Optional[int] = None) -> Dict[str, Dict[str, float]]:
    """Share of DRAM accesses that are load-triggered reads, store-triggered
    reads and writes (LLC writebacks), measured on the open-row baseline."""
    table = {}
    for workload in _workloads(workloads):
        result = _run(workload, _named("base_open"), num_accesses=num_accesses)
        loads = result.load_triggered_reads
        stores = result.store_triggered_reads
        writes = result.total_dram_writes
        total = loads + stores + writes
        if total == 0:
            table[workload] = {"load_reads": 0.0, "store_reads": 0.0, "writes": 0.0}
            continue
        table[workload] = {
            "load_reads": loads / total,
            "store_reads": stores / total,
            "writes": writes / total,
        }
    return table


# --------------------------------------------------------------------- #
# Figure 5 / Table I -- region access density characterisation
# --------------------------------------------------------------------- #
def figure5_region_density(workloads: Optional[Iterable[str]] = None,
                           num_accesses: Optional[int] = None) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Low/medium/high region-density shares of DRAM reads and writes."""
    table = {}
    for workload in _workloads(workloads):
        result = _run(workload, _named("ideal"), num_accesses=num_accesses)
        table[workload] = {
            "reads": dict(result.density.read_density),
            "writes": dict(result.density.write_density),
        }
    return table


def table1_late_writes(workloads: Optional[Iterable[str]] = None,
                       num_accesses: Optional[int] = None) -> Dict[str, float]:
    """Fraction of a high-density region's blocks modified after its first
    dirty LLC eviction (Table I)."""
    return {
        workload: _run(workload, _named("ideal"), num_accesses=num_accesses)
        .density.late_write_fraction
        for workload in _workloads(workloads)
    }


# --------------------------------------------------------------------- #
# Figure 8 -- prediction accuracy (coverage / overfetch / extra writebacks)
# --------------------------------------------------------------------- #
def figure8_prediction_accuracy(workloads: Optional[Iterable[str]] = None,
                                num_accesses: Optional[int] = None) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Read/write coverage and waste of BuMP and Full-region.

    For each workload and each of the two streaming schemes the entry holds
    the fraction of needed DRAM reads that were predicted (fetched before the
    demand access), the overfetch rate, the fraction of DRAM writes streamed
    in bulk, and the extra write traffic relative to the open-row baseline.
    """
    table = {}
    for workload in _workloads(workloads):
        baseline = _run(workload, _named("base_open"), num_accesses=num_accesses)
        entry = {}
        for name in ("bump", "full_region"):
            result = _run(workload, _named(name), num_accesses=num_accesses)
            baseline_writes = max(baseline.total_dram_writes, 1.0)
            entry[name] = {
                "read_coverage": result.read_coverage,
                "read_overfetch": result.read_overfetch,
                "write_coverage": result.write_coverage,
                "extra_writebacks": max(
                    result.total_dram_writes / baseline_writes - 1.0, 0.0
                ),
            }
        table[workload] = entry
    return table


# --------------------------------------------------------------------- #
# Figure 9 -- memory energy per access
# --------------------------------------------------------------------- #
def figure9_energy_per_access(workloads: Optional[Iterable[str]] = None,
                              num_accesses: Optional[int] = None) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Dynamic memory energy per useful access for the four Figure 9 systems.

    Each entry reports the activation and burst/IO components in nanojoules
    plus the total normalised to Base-close (the figure's y-axis).
    """
    systems = ["base_close", "base_open", "full_region", "bump"]
    table = {}
    for workload in _workloads(workloads):
        results = {
            name: _run(workload, _named(name), num_accesses=num_accesses)
            for name in systems
        }
        reference = max(results["base_close"].memory_energy_per_access_nj, 1e-9)
        table[workload] = {
            name: {
                "activation_nj": result.memory_energy.activation_nj,
                "burst_io_nj": result.memory_energy.burst_io_nj,
                "total_nj": result.memory_energy_per_access_nj,
                "normalized": result.memory_energy_per_access_nj / reference,
            }
            for name, result in results.items()
        }
    return table


# --------------------------------------------------------------------- #
# Figure 10 -- performance improvement over Base-close
# --------------------------------------------------------------------- #
def figure10_performance(workloads: Optional[Iterable[str]] = None,
                         num_accesses: Optional[int] = None) -> Dict[str, Dict[str, float]]:
    """System throughput improvement of Base-open, Full-region and BuMP over
    Base-close (positive means faster than Base-close)."""
    systems = ["base_open", "full_region", "bump"]
    table = {}
    for workload in _workloads(workloads):
        reference = _run(workload, _named("base_close"), num_accesses=num_accesses)
        table[workload] = {
            name: (
                _run(workload, _named(name), num_accesses=num_accesses).throughput_ipc
                / max(reference.throughput_ipc, 1e-12)
                - 1.0
            )
            for name in systems
        }
    return table


# --------------------------------------------------------------------- #
# Figure 11 -- design space exploration (region size x density threshold)
# --------------------------------------------------------------------- #
#: Figure 11's region sizes (bytes) and high-density thresholds (fractions).
REGION_SIZES = (512, 1024, 2048)
THRESHOLDS = (0.25, 0.5, 0.75, 1.0)


def design_space_configs(region_sizes: Iterable[int] = REGION_SIZES,
                         threshold_fractions: Iterable[float] = THRESHOLDS
                         ) -> Dict[Tuple[int, float], SystemConfig]:
    """The Figure 11 BuMP configurations, keyed by (region size, threshold)."""
    fractions = list(threshold_fractions)
    return {
        (region_size, fraction): bump_system(
            bump=BuMPConfig().with_region_size(region_size, fraction))
        for region_size in region_sizes
        for fraction in fractions
    }


def figure11_design_space(workloads: Optional[Iterable[str]] = None,
                          region_sizes: Iterable[int] = REGION_SIZES,
                          threshold_fractions: Iterable[float] = THRESHOLDS,
                          num_accesses: Optional[int] = None) -> Dict[Tuple[int, float], float]:
    """Average memory-energy-per-access improvement over the open-row baseline
    for every (region size, density threshold) BuMP configuration."""
    selected = _workloads(workloads)
    improvements: Dict[Tuple[int, float], float] = {}
    configs = design_space_configs(region_sizes, threshold_fractions)
    for point, config in configs.items():
        per_workload = []
        for workload in selected:
            baseline = _run(workload, _named("base_open"), num_accesses=num_accesses)
            result = _run(workload, config, num_accesses=num_accesses)
            base_epa = max(baseline.memory_energy_per_access_nj, 1e-9)
            per_workload.append(1.0 - result.memory_energy_per_access_nj / base_epa)
        improvements[point] = sum(per_workload) / len(per_workload)
    return improvements


# --------------------------------------------------------------------- #
# Figure 12 -- on-chip (LLC / NOC) overheads of BuMP
# --------------------------------------------------------------------- #
def figure12_onchip_overheads(workloads: Optional[Iterable[str]] = None,
                              num_accesses: Optional[int] = None) -> Dict[str, Dict[str, float]]:
    """LLC and NOC traffic and energy of BuMP normalised to the baseline."""
    table = {}
    for workload in _workloads(workloads):
        baseline = _run(workload, _named("base_open"), num_accesses=num_accesses)
        bump = _run(workload, _named("bump"), num_accesses=num_accesses)

        def _ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator > 0 else 1.0

        llc_traffic = _ratio(bump.llc["traffic_ops"], baseline.llc["traffic_ops"])
        noc_traffic = _ratio(bump.noc["bytes"], baseline.noc["bytes"])
        llc_energy = _ratio(
            bump.energy.chip.llc_nj if bump.energy else 0.0,
            baseline.energy.chip.llc_nj if baseline.energy else 1.0,
        )
        noc_energy = _ratio(
            bump.energy.chip.noc_nj if bump.energy else 0.0,
            baseline.energy.chip.noc_nj if baseline.energy else 1.0,
        )
        table[workload] = {
            "llc_traffic": llc_traffic,
            "llc_energy": llc_energy,
            "noc_traffic": noc_traffic,
            "noc_energy": noc_energy,
        }
    return table


# --------------------------------------------------------------------- #
# Figure 13 / Table IV -- cross-system summary
# --------------------------------------------------------------------- #
def figure13_summary(workloads: Optional[Iterable[str]] = None,
                     num_accesses: Optional[int] = None) -> Dict[str, Dict[str, float]]:
    """Workload-averaged row-buffer hit ratio and normalised memory energy per
    access for every evaluated system (Figure 13)."""
    systems = ["base_close", "base_open", "sms", "vwq", "sms_vwq", "bump", "ideal"]
    selected = _workloads(workloads)
    summary: Dict[str, Dict[str, float]] = {}
    reference_energy = None
    for name in systems:
        hit_ratios = []
        energies = []
        for workload in selected:
            result = _run(workload, _named(name), num_accesses=num_accesses)
            hit_ratios.append(result.row_buffer_hit_ratio)
            energies.append(result.memory_energy_per_access_nj)
        mean_energy = sum(energies) / len(energies)
        if name == "base_close":
            reference_energy = max(mean_energy, 1e-9)
        summary[name] = {
            "row_buffer_hit_ratio": sum(hit_ratios) / len(hit_ratios),
            "energy_per_access_nj": mean_energy,
            "energy_normalized": mean_energy / reference_energy if reference_energy else 0.0,
        }
    return summary


def table4_bump_row_hits(workloads: Optional[Iterable[str]] = None,
                         num_accesses: Optional[int] = None) -> Dict[str, float]:
    """BuMP's DRAM row-buffer hit ratio per workload (Table IV)."""
    return {
        workload: _run(workload, _named("bump"), num_accesses=num_accesses).row_buffer_hit_ratio
        for workload in _workloads(workloads)
    }
