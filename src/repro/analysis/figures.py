"""The registry of every reproduced result: one entry per figure, table or study.

Each :class:`Figure` in :data:`FIGURES` defines one result once:

* its experiment function, which computes the data
  (:mod:`repro.analysis.experiments` for the twelve figures and tables of
  the evaluation, :mod:`repro.analysis.ablations` for the seven studies of
  design choices the paper argues in prose, and
  :mod:`repro.analysis.scalability` for the Section VI storage tables);
* the system configurations that experiment reads, and the workloads it
  runs on;
* the text tables it prints (rendered through
  :mod:`repro.analysis.reporting`);
* its shape checks, written with
  :class:`repro.analysis.validation.ValidationSuite`;
* what the paper reports for it, and the reproduction's known limits.

:func:`precompute` runs the configurations a set of entries reads as one
campaign per trace length.  The benchmark harness
(``benchmarks/bench_paper_figures.py``),
``examples/run_all_experiments.py`` and ``repro experiment`` all loop over
the registry.  The checks hold at the harness's default trace length
(240,000 accesses); shorter traces leave the 4 MB LLC cold, and some checks
fail there.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis import ablations, experiments, paper_data, scalability
from repro.analysis.reporting import format_comparison, format_nested_mapping, format_table
from repro.analysis.validation import ValidationSuite
from repro.core.bump import BuMPPredictor
from repro.exec.campaign import CampaignResult, run_campaign
from repro.exec.jobs import JobSpec
from repro.exec.progress import CampaignProgress
from repro.exec.store import ArtifactStore, default_store
from repro.sim.config import SystemConfig, base_open, named_configs
from repro.workloads.catalog import workload_names

__all__ = ["FIGURES", "Figure", "precompute"]


def _same_length(num_accesses: Optional[int]) -> Optional[int]:
    return num_accesses


@dataclass(frozen=True)
class Figure:
    """One result of the paper: its data, its runs, its tables, its checks."""

    #: Registry key, e.g. ``"figure9"`` (the ``repro experiment`` name).
    name: str
    #: ``experiment(workloads, num_accesses=...)`` computes the data.
    experiment: Callable[..., Any]
    #: Builds every system configuration the experiment runs on each of its
    #: workloads (none for an entry that simulates nothing).
    configs: Callable[[], Iterable[SystemConfig]]
    #: Renders the computed data as titled text tables.
    tables: Callable[[Any], List[str]]
    #: Records one verdict per shape check on the computed data.
    checks: Callable[[Any, ValidationSuite], None]
    #: What the paper reports for this result.
    paper: str
    #: Where the reproduction is known to depart from the paper.
    limits: str = ""
    #: The trace length this entry runs at, given the harness's.
    trace_length: Callable[[Optional[int]], Optional[int]] = _same_length
    #: The workloads this entry runs on, of those the harness selects (when
    #: the selection holds none of them, or this is empty: all it selects).
    workloads: Tuple[str, ...] = ()

    def select(self, workloads: Optional[Sequence[str]] = None) -> List[str]:
        """The workloads this entry runs on, given the harness's selection."""
        selected = list(workloads) if workloads is not None else workload_names()
        return [name for name in selected if name in self.workloads] or selected

    def run(self, workloads: Optional[Sequence[str]] = None,
            num_accesses: Optional[int] = None) -> Any:
        """Compute the entry's data at the harness trace length."""
        return self.experiment(self.select(workloads),
                               num_accesses=self.trace_length(num_accesses))

    def render(self, result: Any) -> str:
        """The entry's tables, then the paper's values and known limits."""
        notes = [f"Paper: {self.paper}"]
        if self.limits:
            notes.append(f"Known limits: {self.limits}")
        return "\n\n".join(self.tables(result)
                           + [textwrap.fill(note, width=79, break_on_hyphens=False)
                              for note in notes])

    def validate(self, result: Any) -> ValidationSuite:
        """Run every shape check on ``result``."""
        suite = ValidationSuite(f"{self.name} shape checks")
        self.checks(result, suite)
        return suite


def precompute(entries: Iterable[Figure],
               workloads: Optional[Sequence[str]] = None,
               num_accesses: Optional[int] = None,
               workers: int = 1,
               store: Optional[ArtifactStore] = None,
               progress: Optional[CampaignProgress] = None
               ) -> Dict[int, CampaignResult]:
    """Simulate every run the entries read, as one campaign per trace length.

    Each entry reads its declared configurations on its workloads (out of
    ``workloads``, all six when None) at its trace length (given the
    harness's ``num_accesses``).  A run several entries read is simulated
    once, and a run already in the experiments' result memo not at all.
    Every result lands in that memo, and in ``store`` (default: the
    ``REPRO_ARTIFACT_DIR`` store, if set), so the entries then run without
    simulating.  Returns the campaigns keyed by trace length.
    """
    grids: Dict[int, Dict[str, JobSpec]] = {}
    for entry in entries:
        length = entry.trace_length(num_accesses)
        for config in entry.configs():
            for workload in entry.select(workloads):
                job = experiments.job_spec(workload, config, length)
                key = job.result_fingerprint()
                if key not in experiments._RESULT_CACHE:
                    grids.setdefault(job.num_accesses, {})[key] = job
    campaigns: Dict[int, CampaignResult] = {}
    for length, jobs in grids.items():
        campaign = run_campaign(list(jobs.values()),
                                store=store if store is not None else default_store(),
                                workers=workers, progress=progress)
        for outcome in campaign.outcomes:
            experiments._RESULT_CACHE[outcome.job.result_fingerprint()] = outcome.result
        campaigns[length] = campaign
    return campaigns


# --------------------------------------------------------------------- #
# Check helpers
# --------------------------------------------------------------------- #
def _above(suite: ValidationSuite, name: str, value: float, floor: float) -> None:
    suite.check_predicate(name, value, lambda v: v > floor, f"> {floor:g}")


def _below(suite: ValidationSuite, name: str, value: float, ceiling: float) -> None:
    suite.check_predicate(name, value, lambda v: v < ceiling, f"< {ceiling:g}")


def _between(suite: ValidationSuite, name: str, value: float, low: float,
             high: float) -> None:
    suite.check_predicate(name, value, lambda v: low < v < high,
                          f"between {low:g} and {high:g} (exclusive)")


def _at_least(suite: ValidationSuite, name: str, value: float, floor: float,
              rule: str) -> None:
    """``value >= floor``, where ``rule`` says how the floor is derived."""
    suite.check_predicate(name, value, lambda v: v >= floor,
                          f">= {rule} = {floor:.3g}")


def _nonnegative(suite: ValidationSuite, name: str, value: float) -> None:
    suite.check_predicate(name, value, lambda v: v >= 0.0, ">= 0")


def _sums_to_one(suite: ValidationSuite, name: str, total: float) -> None:
    suite.check_predicate(name, total, lambda v: abs(v - 1.0) < 1e-6,
                          "1 within 1e-6")


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def _table(title: str, row_header: str, columns: List[str],
           value_format: str = "{:.2f}"):
    """``tables`` of an entry whose data is one ``{row: {column: value}}``."""
    return lambda table: [format_nested_mapping(
        table, row_header, value_format=value_format, title=title,
        columns=columns)]


def _systems(*names: str) -> Callable[[], Iterable[SystemConfig]]:
    """``configs`` of an entry that reads the named systems."""
    return lambda: named_configs(list(names)).values()


def _figure1_checks(shares, suite: ValidationSuite) -> None:
    for workload, breakdown in shares.items():
        memory_share = (breakdown["memory_activation"] + breakdown["memory_burst_io"]
                        + breakdown["memory_background"])
        _above(suite, f"memory share > 0.25 ({workload})", memory_share, 0.25)
        _below(suite, f"memory share < 0.9 ({workload})", memory_share, 0.9)


def _figure2_checks(table, suite: ValidationSuite) -> None:
    averages = {name: _mean(row[name] for row in table.values())
                for name in ("base_open", "sms", "vwq", "ideal")}
    _below(suite, "average hit ratio of base_open", averages["base_open"], 0.40)
    for order in (["base_open", "sms"], ["base_open", "vwq"], ["vwq", "ideal"]):
        suite.check_ordering(f"average hit ratio: {' < '.join(order)}", averages,
                             order, strict=True)
    _above(suite, "average hit ratio of ideal", averages["ideal"], 0.45)


def _figure3_checks(table, suite: ValidationSuite) -> None:
    _low, high = paper_data.WRITE_TRAFFIC_SHARE_RANGE
    for workload, mix in table.items():
        _sums_to_one(suite, f"access shares sum to 1 ({workload})", sum(mix.values()))
        _above(suite, f"write share > 0.12 ({workload})", mix["writes"], 0.12)
        _below(suite, f"write share < 0.50 ({workload})", mix["writes"], high + 0.12)
        _above(suite, f"store-triggered read share ({workload})",
               mix["store_reads"], 0.05)


def _figure5_tables(table) -> List[str]:
    return [
        format_nested_mapping(
            {workload: entry[kind] for workload, entry in table.items()},
            "workload", value_format="{:.2f}",
            title=f"Figure 5 ({kind}): region access density shares",
            columns=["low", "medium", "high"])
        for kind in ("reads", "writes")
    ]


def _figure5_checks(table, suite: ValidationSuite) -> None:
    for workload, entry in table.items():
        _sums_to_one(suite, f"read density shares sum to 1 ({workload})",
                     sum(entry["reads"].values()))
        _sums_to_one(suite, f"write density shares sum to 1 ({workload})",
                     sum(entry["writes"].values()))
        _above(suite, f"high-density read share ({workload})",
               entry["reads"]["high"], 0.40)
        _above(suite, f"high-density write share ({workload})",
               entry["writes"]["high"], 0.50)
        _above(suite, f"low-density read share ({workload})",
               entry["reads"]["low"], 0.05)
    low, high = paper_data.READ_HIGH_DENSITY_RANGE
    suite.check_range("average high-density read share (paper: 57-75%)",
                      _mean(entry["reads"]["high"] for entry in table.values()),
                      low - 0.15, high + 0.10)


def _table1_tables(measured) -> List[str]:
    return [format_comparison(
        measured,
        {k: paper_data.TABLE1_LATE_WRITES.get(k, float("nan")) for k in measured},
        title="Table I: fraction of a high-density region's blocks modified "
              "after its first dirty LLC eviction",
        value_format="{:.3f}")]


def _table1_checks(measured, suite: ValidationSuite) -> None:
    for workload, fraction in measured.items():
        suite.check_range(f"late-write fraction ({workload})", fraction, 0.0, 0.25)


def _figure8_tables(table) -> List[str]:
    return [
        format_nested_mapping(
            {workload: entry[scheme] for workload, entry in table.items()},
            "workload", value_format="{:.2f}",
            title=f"Figure 8 ({label}): coverage and waste",
            columns=["read_coverage", "read_overfetch", "write_coverage",
                     "extra_writebacks"])
        for scheme, label in (("bump", "BuMP"), ("full_region", "Full-region"))
    ]


def _figure8_checks(table, suite: ValidationSuite) -> None:
    for workload, entry in table.items():
        bump = entry["bump"]
        full = entry["full_region"]
        _above(suite, f"BuMP read coverage ({workload})", bump["read_coverage"], 0.25)
        _above(suite, f"BuMP write coverage ({workload})", bump["write_coverage"], 0.25)
        _below(suite, f"BuMP read overfetch ({workload})", bump["read_overfetch"], 0.6)
        _at_least(suite, f"Full-region read coverage ({workload})",
                  full["read_coverage"], bump["read_coverage"] - 0.10,
                  "BuMP's - 0.10")
        floor = 3 * bump["read_overfetch"]
        suite.check_predicate(
            f"Full-region read overfetch vs BuMP's ({workload})",
            full["read_overfetch"], lambda v: v > floor,
            f"> 3x BuMP's = {floor:.3g}")
        _above(suite, f"Full-region read overfetch ({workload})",
               full["read_overfetch"], 1.0)
    low, _high = paper_data.BUMP_READ_COVERAGE_RANGE
    _above(suite, "average BuMP read coverage (paper: 28-55%)",
           _mean(entry["bump"]["read_coverage"] for entry in table.values()), low)


def _figure9_tables(table) -> List[str]:
    return [format_nested_mapping(
        {workload: {name: entry["normalized"] for name, entry in row.items()}
         for workload, row in table.items()},
        "workload", value_format="{:.2f}",
        title="Figure 9: memory energy per access normalised to Base-close",
        columns=["base_close", "base_open", "full_region", "bump"])]


def _figure9_checks(table, suite: ValidationSuite) -> None:
    for workload, row in table.items():
        normalized = {name: entry["normalized"] for name, entry in row.items()}
        suite.check_predicate(f"base_close normalises to 1 ({workload})",
                              normalized["base_close"], lambda v: v == 1.0, "== 1")
        _below(suite, f"energy of base_open vs base_close ({workload})",
               normalized["base_open"], 1.0)
        for order in (["bump", "base_open"], ["bump", "full_region"]):
            suite.check_ordering(f"energy: {' < '.join(order)} ({workload})",
                                 normalized, order, strict=True)
    reduction = 1.0 - (sum(row["bump"]["total_nj"] for row in table.values())
                       / sum(row["base_open"]["total_nj"] for row in table.values()))
    _between(suite, "BuMP energy reduction vs Base-open (paper: 23%)",
             reduction, 0.10, 0.45)


def _figure10_checks(table, suite: ValidationSuite) -> None:
    for workload, row in table.items():
        _below(suite, f"Full-region speedup ({workload})", row["full_region"], -0.25)
    _below(suite, "average Full-region speedup (paper: -67%)",
           _mean(row["full_region"] for row in table.values()),
           paper_data.FULL_REGION_SLOWDOWN + 0.35)
    for workload, row in table.items():
        suite.check_predicate(f"Base-open speedup ({workload})", row["base_open"],
                              lambda v: abs(v) < 0.12, "within ±0.12")
        _above(suite, f"BuMP speedup ({workload})", row["bump"], -0.20)
    _above(suite, "average BuMP speedup over Base-open",
           _mean(row["bump"] - row["base_open"] for row in table.values()), 0.0)


def _figure11_tables(sweep) -> List[str]:
    sizes = sorted({size for size, _ in sweep})
    thresholds = sorted({threshold for _, threshold in sweep})
    rows = [[str(size)] + [f"{sweep[(size, threshold)]:+.1%}"
                           for threshold in thresholds]
            for size in sizes]
    return ["Figure 11: memory energy per access improvement over Base-open\n"
            + format_table(rows, headers=["region size (B)"]
                           + [f"thr {int(t * 100)}%" for t in thresholds])]


def _figure11_checks(sweep, suite: ValidationSuite) -> None:
    for (size, threshold), value in sweep.items():
        if threshold >= 0.75:
            _above(suite, f"energy saving at {size} B, {threshold:.0%}", value, 0.0)
    _above(suite, "energy saving at 1024 B, 50%", sweep[(1024, 0.5)], 0.0)
    chosen = sweep[(paper_data.BEST_REGION_SIZE, paper_data.BEST_DENSITY_THRESHOLD)]
    best = max(sweep, key=sweep.get)
    _at_least(suite, "paper's design point (1024 B, 50%) vs the best", chosen,
              sweep[best] - 0.05, f"best {best} - 0.05")
    _at_least(suite, "paper's design point vs (512 B, 100%)", chosen,
              sweep[(512, 1.0)] - 0.02, "(512 B, 100%) - 0.02")


def _figure12_checks(table, suite: ValidationSuite) -> None:
    for workload, row in table.items():
        for column in ("llc_traffic", "noc_traffic"):
            suite.check_predicate(f"{column} ({workload})", row[column],
                                  lambda v: 1.0 <= v < 1.8, "in [1, 1.8)")
        _below(suite, f"llc_energy ({workload})", row["llc_energy"], 1.8)
        _below(suite, f"noc_energy ({workload})", row["noc_energy"], 1.9)
    storage_kb = BuMPPredictor().storage_bits() / 8 / 1024
    suite.check_predicate(
        "BuMP storage in KB (paper: 14)", storage_kb,
        lambda v: abs(v - paper_data.BUMP_STORAGE_KB) < 3.0,
        f"within 3 of {paper_data.BUMP_STORAGE_KB}")


_FIGURE13_SYSTEMS = ["base_close", "base_open", "sms", "vwq", "sms_vwq", "bump", "ideal"]


def _figure13_tables(summary) -> List[str]:
    return [
        format_nested_mapping(
            {name: summary[name] for name in _FIGURE13_SYSTEMS},
            "system", value_format="{:.3f}",
            title="Figure 13: workload-averaged row-buffer hit ratio and memory energy",
            columns=["row_buffer_hit_ratio", "energy_per_access_nj",
                     "energy_normalized"]),
        format_comparison(
            {name: summary[name]["row_buffer_hit_ratio"]
             for name in _FIGURE13_SYSTEMS if name != "base_close"},
            paper_data.ROW_BUFFER_HIT_RATIO_AVG,
            title="Row-buffer hit ratio vs. paper (averaged across workloads)"),
    ]


def _figure13_checks(summary, suite: ValidationSuite) -> None:
    hits = {name: summary[name]["row_buffer_hit_ratio"] for name in _FIGURE13_SYSTEMS}
    energy = {name: summary[name]["energy_per_access_nj"] for name in _FIGURE13_SYSTEMS}
    # Row-buffer locality ordering (Figs. 2 and 13).
    for order, strict in ((["base_open", "sms", "bump"], True),
                          (["base_open", "vwq"], True),
                          (["sms", "sms_vwq"], False),
                          (["sms", "vwq"], False),
                          (["vwq", "sms_vwq"], False),
                          (["sms_vwq", "bump"], True),
                          (["bump", "ideal"], False)):
        relation = " < " if strict else " <= "
        suite.check_ordering(f"hit ratio: {relation.join(order)}", hits, order,
                             strict=strict)
    # Energy follows locality: BuMP beats every realisable baseline.
    for baseline in ("sms", "vwq", "sms_vwq"):
        suite.check_ordering(f"energy: bump < {baseline}", energy,
                             ["bump", baseline], strict=True)
    ceiling = energy["bump"] + 0.5
    suite.check_predicate("energy: ideal vs bump (nJ)", energy["ideal"],
                          lambda v: v <= ceiling, f"<= bump + 0.5 = {ceiling:.3g}")
    suite.check_ordering("energy: base_open < base_close", energy,
                         ["base_open", "base_close"], strict=True)
    base_energy = summary["base_open"]["energy_normalized"]
    reduction = (1.0 - summary["bump"]["energy_normalized"] / base_energy
                 if base_energy else 0.0)
    _above(suite, "BuMP energy reduction vs Base-open", reduction, 0.05)
    suite.check_relative("BuMP energy reduction vs Base-open (paper: 23%)",
                         reduction, paper_data.BUMP_ENERGY_REDUCTION_VS_OPEN,
                         tolerance=1.0)


def _table4_tables(measured) -> List[str]:
    return [format_comparison(
        measured,
        {k: paper_data.TABLE4_BUMP_ROW_HITS.get(k, float("nan")) for k in measured},
        title="Table IV: BuMP DRAM row-buffer hit ratio")]


def _table4_checks(measured, suite: ValidationSuite) -> None:
    for workload, value in measured.items():
        _between(suite, f"BuMP hit ratio ({workload})", value, 0.30, 0.85)
    _between(suite, "average BuMP hit ratio (paper: 55%)",
             _mean(measured.values()), 0.40, 0.75)
    if {"media_streaming", "software_testing"} <= set(measured):
        suite.check_ordering("hit ratio: software_testing < media_streaming",
                             measured, ["software_testing", "media_streaming"],
                             strict=True)


def _rdtt_checks(table, suite: ValidationSuite) -> None:
    best = max(row["read_coverage"] for row in table.values())
    _at_least(suite, "256-entry read coverage vs the best size's",
              table[256]["read_coverage"], 0.7 * best, "0.7x the best")
    for entries, row in table.items():
        suite.check_range(f"read coverage ({entries} entries)",
                          row["read_coverage"], 0.0, 1.0)
        _nonnegative(suite, f"read overfetch ({entries} entries)",
                     row["read_overfetch"])


def _table_sizing_checks(table, suite: ValidationSuite) -> None:
    _at_least(suite, "1024-entry write coverage vs 128-entry",
              table[1024]["write_coverage"], table[128]["write_coverage"] - 0.02,
              "128 entries' - 0.02")
    for entries, row in table.items():
        _nonnegative(suite, f"extra writebacks ({entries} entries)",
                     row["extra_writebacks"])
        suite.check_range(f"read coverage ({entries} entries)",
                          row["read_coverage"], 0.0, 1.0)


def _interleaving_checks(table, suite: ValidationSuite) -> None:
    hits = {name: row["row_buffer_hit_ratio"] for name, row in table.items()}
    energy = {name: row["energy_per_access_nj"] for name, row in table.items()}
    suite.check_ordering("hit ratio: block < region", hits, ["block", "region"],
                         strict=True)
    suite.check_ordering("energy: region < block", energy, ["region", "block"],
                         strict=True)


def _scheduling_checks(table, suite: ValidationSuite) -> None:
    hits = {name: row["row_buffer_hit_ratio"] for name, row in table.items()}
    _at_least(suite, "FR-FCFS hit ratio vs FCFS's", hits["frfcfs"],
              hits["fcfs"] - 0.02, "FCFS's - 0.02")
    _at_least(suite, "FR-FCFS hit ratio vs bank round robin's", hits["frfcfs"],
              hits["bank_round_robin"] - 0.02, "bank round robin's - 0.02")
    _at_least(suite, "bank round robin hit ratio vs FR-FCFS's",
              hits["bank_round_robin"], 0.5 * hits["frfcfs"], "0.5x FR-FCFS's")


def _writeback_checks(table, suite: ValidationSuite) -> None:
    coverage = {name: row["write_coverage"] for name, row in table.items()}
    suite.check_predicate("Base-open write coverage", coverage["base_open"],
                          lambda v: v == 0.0, "== 0")
    _above(suite, "VWQ write coverage", coverage["vwq"], 0.0)
    _above(suite, "BuMP write coverage", coverage["bump"], 0.0)
    _at_least(suite, "BuMP+VWQ write coverage vs BuMP's", coverage["bump_vwq"],
              coverage["bump"] - 0.02, "BuMP's - 0.02")
    suite.check_ordering("hit ratio: base_open < vwq < bump",
                         {name: row["row_buffer_hit_ratio"]
                          for name, row in table.items()},
                         ["base_open", "vwq", "bump"], strict=True)


def _prefetcher_checks(table, suite: ValidationSuite) -> None:
    bump = table["bump"]
    for name in ("nextline", "stride", "stealth", "sms"):
        _at_least(suite, f"BuMP hit ratio vs {name}'s", bump["row_buffer_hit_ratio"],
                  table[name]["row_buffer_hit_ratio"] - 0.02, f"{name}'s - 0.02")
    _at_least(suite, "BuMP read coverage vs SMS's", bump["read_coverage"],
              table["sms"]["read_coverage"] - 0.05, "SMS's - 0.05")
    for name, row in table.items():
        _nonnegative(suite, f"read overfetch ({name})", row["read_overfetch"])


def _timing_checks(table, suite: ValidationSuite) -> None:
    for model, row in table.items():
        _above(suite, f"BuMP speedup over Base-open ({model})",
               row["bump_speedup_over_base_open"], -0.05)


def _storage(workloads=None, num_accesses=None) -> Dict[str, Any]:
    """The Section VI storage tables; nothing is simulated, so the harness's
    workloads and trace length do not apply."""
    return {"cores": scalability.storage_scaling_table(),
            "virtualization": scalability.virtualization_storage_table(),
            "summary": scalability.scaling_summary()}


def _storage_tables(storage) -> List[str]:
    cores = [[str(e.cores), f"{e.llc_mib:.0f}", f"{e.rdtt_kib:.1f}",
              f"{e.bht_kib:.1f}", f"{e.drt_kib:.1f}", f"{e.total_kib:.1f}",
              f"{e.per_core_kib:.2f}"] for e in storage["cores"]]
    shared = [[str(e.workloads_sharing), f"{e.bht_kib:.1f}", f"{e.total_kib:.1f}",
               f"{e.per_core_kib:.2f}"] for e in storage["virtualization"]]
    return [
        "Section VI: BuMP storage vs CMP size (LLC scaled with cores)\n"
        + format_table(cores, headers=["cores", "LLC MiB", "RDTT KiB", "BHT KiB",
                                       "DRT KiB", "total KiB", "KiB/core"]),
        "Section VI: BuMP storage vs consolidated workloads (virtualization)\n"
        + format_table(shared, headers=["workloads", "BHT KiB", "total KiB",
                                        "KiB/core"]),
    ]


def _storage_checks(storage, suite: ValidationSuite) -> None:
    totals = {f"{e.cores} cores": e.total_kib for e in storage["cores"]}
    suite.check_ordering("total storage grows with the core count", totals,
                         list(totals))
    _below(suite, "largest storage per core in KiB (cores sweep)",
           max(e.per_core_kib for e in storage["cores"]), 3.0)
    summary = storage["summary"]
    _between(suite, "native total in KiB (paper: 14)",
             summary["native_total_kib"], 10.0, 20.0)
    _between(suite, "virtualized BHT in KiB (paper: 72)",
             summary["virtualized_bht_kib"], 50.0, 95.0)
    _between(suite, "virtualized storage per core in KiB (paper: ~5)",
             summary["virtualized_per_core_kib"], 3.0, 8.0)


# --------------------------------------------------------------------- #
# The registry
# --------------------------------------------------------------------- #
_FIGURE_LIST = [
    Figure(
        name="figure1",
        experiment=experiments.figure1_energy_breakdown,
        configs=_systems("base_open"),
        tables=_table(
            "Figure 1: server energy shares by component (Base-open)", "workload",
            ["cores", "llc", "noc", "memory_controller", "memory_activation",
             "memory_burst_io", "memory_background"]),
        checks=_figure1_checks,
        paper="Main memory consumes 48-62% of server energy on the baseline "
              "system, with page activations a major part of its dynamic "
              "energy. Each workload's bar splits server energy across cores, "
              "LLC, NOC, memory controllers and memory (activation, burst & "
              "I/O, background).",
        limits="Memory takes 64-69% of server energy at 240,000 accesses, above "
               "the paper's band; the checks ask only that it be a first-order "
               "consumer (25-90%).",
    ),
    Figure(
        name="figure2",
        experiment=experiments.figure2_row_buffer_hit,
        configs=_systems("base_open", "sms", "vwq", "ideal"),
        tables=_table(
            "Figure 2: DRAM row-buffer hit ratio (Base-open, SMS, VWQ, Ideal)",
            "workload", ["base_open", "sms", "vwq", "ideal"]),
        checks=_figure2_checks,
        paper="The open-row baseline exploits a small fraction of the "
              "row-buffer locality in the access stream (21% hit ratio on "
              "average). SMS and VWQ recover some of it (30% and 36%), and an "
              "ideal system that serves every access a region receives during "
              "one LLC lifetime from a single activation reaches 77%.",
    ),
    Figure(
        name="figure3",
        experiment=experiments.figure3_traffic_breakdown,
        configs=_systems("base_open"),
        tables=_table(
            "Figure 3: DRAM access mix (load reads / store reads / writes)",
            "workload", ["load_reads", "store_reads", "writes"]),
        checks=_figure3_checks,
        paper="DRAM writes (LLC writebacks) are 21-38% of memory traffic, so a "
              "mechanism that only improves the locality of load-triggered "
              "reads (like SMS) leaves much of the opportunity unexploited. "
              "Traffic splits into load-triggered reads, store-triggered reads "
              "and writes, measured on the open-row baseline.",
        limits="At 60,000 accesses the 4 MB LLC is still filling, so few dirty "
               "blocks have been written back: the write share reads 0.6-3.6% "
               "across the six workloads, under the 12% floor.",
    ),
    Figure(
        name="figure5",
        experiment=experiments.figure5_region_density,
        configs=_systems("ideal"),
        tables=_figure5_tables,
        checks=_figure5_checks,
        paper="For 1 KB regions, most DRAM reads (57-75%) and writes (62-86%) "
              "fall into high-density regions: regions in which at least half "
              "of the sixteen blocks are touched between the region's first "
              "access and its first LLC eviction.",
    ),
    Figure(
        name="table1",
        experiment=experiments.table1_late_writes,
        configs=_systems("ideal"),
        tables=_table1_tables,
        checks=_table1_checks,
        paper="Once the first dirty block of a high-density modified region "
              "leaves the LLC, few of the region's blocks are modified again "
              "(3-11% across workloads), which makes the bulk-writeback trigger "
              "safe.",
    ),
    Figure(
        name="figure8",
        experiment=experiments.figure8_prediction_accuracy,
        configs=_systems("base_open", "bump", "full_region"),
        tables=_figure8_tables,
        checks=_figure8_checks,
        paper="BuMP predicts 45-55% of DRAM reads (28% for Software Testing) "
              "with 5-22% overfetch, while Full-region streaming gains little "
              "coverage but multiplies read traffic (4.3x overfetch on "
              "average). BuMP streams about 63% of DRAM writes with under 10% "
              "extra writeback traffic; Full-region adds about 22%.",
    ),
    Figure(
        name="figure9",
        experiment=experiments.figure9_energy_per_access,
        configs=_systems("base_close", "base_open", "full_region", "bump"),
        tables=_figure9_tables,
        checks=_figure9_checks,
        paper="BuMP reduces dynamic memory energy per access by 23% versus the "
              "open-row baseline and 34% versus the close-row baseline, while "
              "Full-region streaming is the worst system on several workloads: "
              "its overfetch multiplies activations and transfers.",
    ),
    Figure(
        name="figure10",
        experiment=experiments.figure10_performance,
        configs=_systems("base_close", "base_open", "full_region", "bump"),
        tables=_table(
            "Figure 10: throughput improvement over Base-close", "workload",
            ["base_open", "full_region", "bump"], value_format="{:+.2%}"),
        checks=_figure10_checks,
        paper="Base-open is 1-2% slower than Base-close (it delays "
              "precharges). BuMP outperforms Base-close by 9% and Base-open by "
              "11% (bulk transfers act as prefetches), and Full-region "
              "streaming loses 67% on average (up to ~4x on Data Serving) "
              "because it oversaturates memory bandwidth.",
        limits="The analytic timing model reproduces the ordering and the "
               "Full-region collapse, but BuMP's gain over Base-close (-0.6% to "
               "+1.9% at 240,000 accesses) is far below the paper's 9%: the "
               "synthetic traces leave the cores less stall-bound than "
               "CloudSuite on the authors' testbed.",
    ),
    Figure(
        name="figure11",
        experiment=experiments.figure11_design_space,
        configs=lambda: [base_open(), *experiments.design_space_configs().values()],
        tables=_figure11_tables,
        checks=_figure11_checks,
        paper="Sweeping the region size (512 B, 1 KB, 2 KB) and the "
              "high-density threshold (25-100% of a region's blocks), a 1 KB "
              "region with a 50% threshold maximises the memory energy saved "
              "per access: smaller regions amortise fewer activations, larger "
              "regions and lower thresholds overfetch, and a 100% threshold "
              "leaves too little traffic eligible for bulk streaming.",
        limits="The sweep simulates 12 BuMP configurations per workload, so "
               "the benchmark harness and the report script run it at half "
               "their trace length (at least 60,000 accesses); the orderings "
               "are stable at that length.",
        trace_length=experiments.design_space_accesses,
    ),
    Figure(
        name="figure12",
        experiment=experiments.figure12_onchip_overheads,
        configs=_systems("base_open", "bump"),
        tables=_table(
            "Figure 12: BuMP LLC/NOC traffic and energy (normalised to Base-open)",
            "workload", ["llc_traffic", "llc_energy", "noc_traffic", "noc_energy"]),
        checks=_figure12_checks,
        paper="Bulk requests, overfetched data, eager writebacks, PC-extended "
              "requests and table notifications cost about 10% extra LLC "
              "traffic, 11% extra NOC traffic and single-digit-percent on-chip "
              "energy, negligible next to the memory energy saved. BuMP's four "
              "tables take about 14 KB (Sections IV.D and V.F).",
    ),
    Figure(
        name="figure13",
        experiment=experiments.figure13_summary,
        configs=_systems(*_FIGURE13_SYSTEMS),
        tables=_figure13_tables,
        checks=_figure13_checks,
        paper="Averaged across workloads, the row-buffer hit ratio is 21% for "
              "Base-open, 30% for SMS, 36% for VWQ, 44% for SMS+VWQ, 55% for "
              "BuMP and 77% for the ideal system, and memory energy per access "
              "falls accordingly: BuMP saves 23% over Base-open.",
        limits="At 60,000 accesses the 4 MB LLC is not yet in steady state: "
               "SMS's average hit ratio (0.33) exceeds VWQ's (0.21) and BuMP's "
               "(0.63) the ideal system's (0.59), so those orderings fail.",
    ),
    Figure(
        name="table4",
        experiment=experiments.table4_bump_row_hits,
        configs=_systems("bump"),
        tables=_table4_tables,
        checks=_table4_checks,
        paper="BuMP's per-workload row-buffer hit ratio ranges from 34% "
              "(Software Testing, whose many simultaneously active regions "
              "overwhelm the RDTT) to 64% (Media Streaming, the most "
              "sequential workload), averaging 55%.",
        limits="Software Testing reads 0.54 at 240,000 accesses against the "
               "paper's 0.34; only its place below Media Streaming is checked.",
    ),
    # Design choices the paper argues in prose, by section.
    Figure(
        name="rdtt_sizing",
        experiment=ablations.rdtt_sizing,
        configs=lambda: ablations.rdtt_configs().values(),
        tables=_table("Section V.B: BuMP read coverage vs RDTT trigger/density "
                      "table size", "RDTT entries",
                      ["read_coverage", "read_overfetch"], value_format="{:.3f}"),
        checks=_rdtt_checks,
        paper="Software Testing's many simultaneously active regions overwhelm "
              "the RDTT and cap its read coverage (Section V.B); a larger RDTT "
              "recovers most of it. The 256-entry trigger and density tables "
              "of Section IV.D behave close to an unbounded table.",
        workloads=("software_testing", "web_search"),
    ),
    Figure(
        name="bht_drt_sizing",
        experiment=ablations.predictor_table_sizing,
        configs=lambda: [*ablations.table_configs().values(), base_open()],
        tables=_table("Section IV.D: BuMP coverage vs BHT/DRT size",
                      "BHT/DRT entries",
                      ["read_coverage", "write_coverage", "extra_writebacks"],
                      value_format="{:.3f}"),
        checks=_table_sizing_checks,
        paper="Section IV.D sizes the bulk history table and the dirty region "
              "table at 1,024 entries each; at that size BuMP's bulk writebacks "
              "add under 10% extra write traffic (Fig. 8).",
        limits="The extra-writeback column is reported, not checked: its "
               "denominator, Base-open's demand writebacks, is very sensitive "
               "to trace length.",
        workloads=("software_testing", "web_search"),
    ),
    Figure(
        name="interleaving",
        experiment=ablations.interleaving_sensitivity,
        configs=lambda: ablations.interleaving_configs().values(),
        tables=_table("Section IV.D: BuMP with region-level vs block-level "
                      "address interleaving", "interleaving",
                      ["row_buffer_hit_ratio", "energy_per_access_nj"],
                      value_format="{:.3f}"),
        checks=_interleaving_checks,
        paper="BuMP maps each 1 KB region onto one DRAM row (Section IV.D), so "
              "a bulk transfer costs one activation. Block-level interleaving "
              "spreads the same region over sixteen banks and forfeits that, "
              "although the predictor behaves identically.",
        workloads=("data_serving", "web_search", "web_serving"),
    ),
    Figure(
        name="scheduling",
        experiment=ablations.scheduler_policy_study,
        configs=lambda: ablations.scheduler_configs().values(),
        tables=_table("Section VI: BuMP under different transaction scheduling "
                      "policies", "scheduler",
                      ["row_buffer_hit_ratio", "energy_per_access_nj"],
                      value_format="{:.3f}"),
        checks=_scheduling_checks,
        paper="The memory controller schedules FR-FCFS. Section VI argues that "
              "BuMP composes with fairness-oriented scheduling: server cores run "
              "near-identical instruction streams, so bulk transfers still "
              "reach the controller back to back and keep most of their row "
              "hits.",
        workloads=("data_serving", "web_search", "web_serving"),
    ),
    Figure(
        name="section6",
        experiment=_storage,
        configs=lambda: (),
        tables=_storage_tables,
        checks=_storage_checks,
        paper="The RDTT grows linearly with the core count and the DRT with the "
              "LLC capacity, so BuMP's storage per core stays small as the CMP "
              "scales (Section VI). Consolidating one workload per core on a "
              "16-core CMP needs a 72 KB BHT, about 5 KB of BuMP storage per "
              "core; the native design takes about 14 KB (Section IV.D).",
    ),
    Figure(
        name="writeback",
        experiment=ablations.writeback_mechanism_study,
        configs=lambda: ablations.writeback_configs().values(),
        tables=_table("Section V.G, footnote 1: write-side mechanisms",
                      "mechanism",
                      ["write_coverage", "row_buffer_hit_ratio", "dram_writes"],
                      value_format="{:.3f}"),
        checks=_writeback_checks,
        paper="Demand-only writeback streams nothing, and VWQ coalesces only a "
              "few adjacent blocks, while BuMP streams whole regions: its row "
              "locality tops VWQ's, as in Fig. 13. Footnote 1 notes that BuMP "
              "combines with VWQ (bump_vwq here), which picks up writeback "
              "locality outside high-density regions. Age-based eager "
              "writeback is the other eager scheme compared.",
        workloads=("data_serving", "media_streaming", "web_search"),
    ),
    Figure(
        name="prefetchers",
        experiment=ablations.prefetcher_comparison,
        configs=lambda: ablations.prefetcher_configs().values(),
        tables=_table("Section VII: read-side mechanisms", "mechanism",
                      ["read_coverage", "read_overfetch", "row_buffer_hit_ratio"],
                      value_format="{:.3f}"),
        checks=_prefetcher_checks,
        paper="Section VII sets BuMP's code-correlated bulk streaming against "
              "next-line, stride and Stealth-style region prefetching and SMS. "
              "Bulk streaming turns whole-region fetches into row-buffer hits, "
              "and BuMP reaches at least SMS's read coverage, to which the "
              "paper credits its performance edge over SMS.",
        workloads=("data_serving", "media_streaming", "web_search"),
    ),
    Figure(
        name="timing_model",
        experiment=ablations.timing_model_sensitivity,
        configs=lambda: [config for pair in ablations.timing_configs().values()
                         for config in pair],
        tables=_table("Ablation: BuMP speedup over Base-open under both core "
                      "timing models", "timing model",
                      ["bump_speedup_over_base_open"], value_format="{:+.3f}"),
        checks=_timing_checks,
        paper="Not a result of the paper, whose speedups (Fig. 10) come from its "
              "own simulator. The reproduction's analytic core model assumes a "
              "fixed memory-level parallelism; this study recomputes BuMP's "
              "speedup under the interval (ROB/MSHR-derived) model, so the "
              "speedup claim does not hinge on that assumption.",
        workloads=("data_serving", "media_streaming", "web_search"),
    ),
]

#: Every reproduced result, keyed by name: the figures and tables of the
#: evaluation in paper order, then the design choices argued in prose.
FIGURES: Dict[str, Figure] = {figure.name: figure for figure in _FIGURE_LIST}
