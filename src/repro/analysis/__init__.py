"""Experiment harness: one function per figure/table of the paper.

:mod:`repro.analysis.experiments` contains the experiment functions; each
returns plain dictionaries shaped like the corresponding figure's data
series.  :mod:`repro.analysis.figures` registers every figure and table once,
with the tables that render it (through :mod:`repro.analysis.reporting`) and
its shape checks (a :mod:`repro.analysis.validation` suite);
:mod:`repro.analysis.paper_data` records the values the paper reports, so the
tables show paper-vs-measured side by side.

:mod:`repro.analysis.ablations` adds ablation and extension experiments for
design choices the paper does not sweep, and
:mod:`repro.analysis.scalability` reproduces the Section VI storage-scaling
numbers.
"""

from repro.analysis import (
    ablations,
    experiments,
    figures,
    paper_data,
    reporting,
    scalability,
    validation,
)

__all__ = [
    "ablations",
    "experiments",
    "figures",
    "paper_data",
    "reporting",
    "scalability",
    "validation",
]
