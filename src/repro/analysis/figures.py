"""The registry of the paper's figures and tables: one entry per figure.

Each :class:`Figure` in :data:`FIGURES` defines one of the twelve figures and
tables of the evaluation once:

* its experiment function (:mod:`repro.analysis.experiments` computes the
  data);
* the text tables it prints (rendered through
  :mod:`repro.analysis.reporting`);
* its shape checks, written with
  :class:`repro.analysis.validation.ValidationSuite`;
* what the paper reports for it, and the reproduction's known limits.

The benchmark harness (``benchmarks/bench_paper_figures.py``),
``examples/run_all_experiments.py`` and ``repro experiment`` all loop over
the registry.  The checks hold at the harness's default trace length
(240,000 accesses); shorter traces leave the 4 MB LLC cold, and some checks
fail there.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.analysis import experiments, paper_data
from repro.analysis.reporting import format_comparison, format_nested_mapping, format_table
from repro.analysis.validation import ValidationSuite
from repro.core.bump import BuMPPredictor

__all__ = ["FIGURES", "Figure"]


def _same_length(num_accesses: Optional[int]) -> Optional[int]:
    return num_accesses


@dataclass(frozen=True)
class Figure:
    """One figure or table of the paper: its data, its tables, its checks."""

    #: Registry key, e.g. ``"figure9"`` (the ``repro experiment`` name).
    name: str
    #: ``experiment(workloads, num_accesses=...)`` computes the data.
    experiment: Callable[..., Any]
    #: Renders the computed data as titled text tables.
    tables: Callable[[Any], List[str]]
    #: Records one verdict per shape check on the computed data.
    checks: Callable[[Any, ValidationSuite], None]
    #: What the paper reports for this figure.
    paper: str
    #: Where the reproduction is known to depart from the paper.
    limits: str = ""
    #: The trace length this figure runs at, given the harness's.
    trace_length: Callable[[Optional[int]], Optional[int]] = _same_length

    def run(self, workloads: Optional[Sequence[str]] = None,
            num_accesses: Optional[int] = None) -> Any:
        """Compute the figure's data at the harness trace length."""
        return self.experiment(workloads,
                               num_accesses=self.trace_length(num_accesses))

    def render(self, result: Any) -> str:
        """The figure's tables, then the paper's values and known limits."""
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


# --------------------------------------------------------------------- #
# Check helpers
# --------------------------------------------------------------------- #
def _above(suite: ValidationSuite, name: str, value: float, floor: float) -> None:
    suite.check_predicate(name, value, lambda v: v > floor, f"> {floor:g}")


def _below(suite: ValidationSuite, name: str, value: float, ceiling: float) -> None:
    suite.check_predicate(name, value, lambda v: v < ceiling, f"< {ceiling:g}")


def _sums_to_one(suite: ValidationSuite, name: str, total: float) -> None:
    suite.check_predicate(name, total, lambda v: abs(v - 1.0) < 1e-6,
                          "1 within 1e-6")


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def _workload_table(title: str, columns: List[str], value_format: str = "{:.2f}"):
    """``tables`` of a figure whose data is one ``{workload: {column: value}}``."""
    return lambda table: [format_nested_mapping(
        table, value_format=value_format, title=title, columns=columns)]


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
            value_format="{:.2f}",
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
            value_format="{:.2f}",
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
        floor = bump["read_coverage"] - 0.10
        suite.check_predicate(
            f"Full-region read coverage ({workload})", full["read_coverage"],
            lambda v: v >= floor, f">= BuMP's - 0.10 = {floor:.3g}")
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
        value_format="{:.2f}",
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
    suite.check_predicate("BuMP energy reduction vs Base-open (paper: 23%)",
                          reduction, lambda v: 0.10 < v < 0.45,
                          "between 0.1 and 0.45 (exclusive)")


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
    floor = sweep[best] - 0.05
    suite.check_predicate("paper's design point (1024 B, 50%) vs the best",
                          chosen, lambda v: v >= floor,
                          f">= best {best} - 0.05 = {floor:.3g}")
    floor = sweep[(512, 1.0)] - 0.02
    suite.check_predicate("paper's design point vs (512 B, 100%)",
                          chosen, lambda v: v >= floor,
                          f">= (512 B, 100%) - 0.02 = {floor:.3g}")


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
            value_format="{:.3f}",
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
        suite.check_predicate(f"BuMP hit ratio ({workload})", value,
                              lambda v: 0.30 < v < 0.85,
                              "between 0.3 and 0.85 (exclusive)")
    suite.check_predicate("average BuMP hit ratio (paper: 55%)",
                          _mean(measured.values()), lambda v: 0.40 < v < 0.75,
                          "between 0.4 and 0.75 (exclusive)")
    if {"media_streaming", "software_testing"} <= set(measured):
        suite.check_ordering("hit ratio: software_testing < media_streaming",
                             measured, ["software_testing", "media_streaming"],
                             strict=True)


# --------------------------------------------------------------------- #
# The registry, in the paper's order
# --------------------------------------------------------------------- #
_FIGURE_LIST = [
    Figure(
        name="figure1",
        experiment=experiments.figure1_energy_breakdown,
        tables=_workload_table(
            "Figure 1: server energy shares by component (Base-open)",
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
        tables=_workload_table(
            "Figure 2: DRAM row-buffer hit ratio (Base-open, SMS, VWQ, Ideal)",
            ["base_open", "sms", "vwq", "ideal"]),
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
        tables=_workload_table(
            "Figure 3: DRAM access mix (load reads / store reads / writes)",
            ["load_reads", "store_reads", "writes"]),
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
        tables=_workload_table(
            "Figure 10: throughput improvement over Base-close",
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
        tables=_workload_table(
            "Figure 12: BuMP LLC/NOC traffic and energy (normalised to Base-open)",
            ["llc_traffic", "llc_energy", "noc_traffic", "noc_energy"]),
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
        tables=_table4_tables,
        checks=_table4_checks,
        paper="BuMP's per-workload row-buffer hit ratio ranges from 34% "
              "(Software Testing, whose many simultaneously active regions "
              "overwhelm the RDTT) to 64% (Media Streaming, the most "
              "sequential workload), averaging 55%.",
        limits="Software Testing reads 0.54 at 240,000 accesses against the "
               "paper's 0.34; only its place below Media Streaming is checked.",
    ),
]

#: Every figure and table of the evaluation, keyed by name, in paper order.
FIGURES: Dict[str, Figure] = {figure.name: figure for figure in _FIGURE_LIST}
