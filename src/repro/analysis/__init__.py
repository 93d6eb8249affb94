"""Experiment harness: one registry entry per reproduced result.

:mod:`repro.analysis.experiments` contains one experiment function per
figure/table of the paper; each returns plain dictionaries shaped like the
corresponding figure's data series.  :mod:`repro.analysis.ablations` adds
the studies of design choices the paper argues without sweeping them, and
:mod:`repro.analysis.scalability` reproduces the Section VI storage-scaling
numbers.  :mod:`repro.analysis.figures` registers every one of those results
once, with the configurations it reads, the tables that render it (through
:mod:`repro.analysis.reporting`) and its shape checks (a
:mod:`repro.analysis.validation` suite), and its ``precompute`` runs the
configurations a set of entries reads; :mod:`repro.analysis.paper_data`
records the values the paper reports, so the tables show paper-vs-measured
side by side.
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
