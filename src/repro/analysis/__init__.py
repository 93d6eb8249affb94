"""Experiment harness: one function per figure/table of the paper.

:mod:`repro.analysis.experiments` contains the experiment functions the
benchmark suite (``benchmarks/``) and the examples call; each returns plain
dictionaries shaped like the corresponding figure's data series.
:mod:`repro.analysis.paper_data` records the values the paper reports, so
reports and EXPERIMENTS.md can show paper-vs-measured side by side, and
:mod:`repro.analysis.reporting` renders both as plain-text tables.

:mod:`repro.analysis.ablations` adds the ablation/extension experiments
DESIGN.md calls out, :mod:`repro.analysis.scalability` reproduces the
Section VI storage-scaling numbers, and
:mod:`repro.analysis.validation` checks measured results against the
paper's values under explicit shape-preservation rules.
"""

from repro.analysis import (
    ablations,
    experiments,
    paper_data,
    reporting,
    scalability,
    validation,
)
from repro.analysis.experiments import (
    figure1_energy_breakdown,
    figure2_row_buffer_hit,
    figure3_traffic_breakdown,
    figure5_region_density,
    figure8_prediction_accuracy,
    figure9_energy_per_access,
    figure10_performance,
    figure11_design_space,
    figure12_onchip_overheads,
    figure13_summary,
    table1_late_writes,
    table4_bump_row_hits,
)

__all__ = [
    "ablations",
    "experiments",
    "paper_data",
    "reporting",
    "scalability",
    "validation",
    "figure1_energy_breakdown",
    "figure2_row_buffer_hit",
    "figure3_traffic_breakdown",
    "figure5_region_density",
    "figure8_prediction_accuracy",
    "figure9_energy_per_access",
    "figure10_performance",
    "figure11_design_space",
    "figure12_onchip_overheads",
    "figure13_summary",
    "table1_late_writes",
    "table4_bump_row_hits",
]
