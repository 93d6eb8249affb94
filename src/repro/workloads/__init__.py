"""Synthetic server workload generators.

The paper evaluates BuMP with full-system traces of CloudSuite 2.0 plus a
TPC-H mix on a commercial database.  Those workloads (and their datasets) are
not redistributable, so this package provides parameterised synthetic
generators that reproduce the *memory-system-visible* behaviour the paper
characterises in Section III:

* bimodal access granularity: coarse-grained software objects (database rows,
  index pages, media buffers, cached web pages) scanned with a small set of
  functions, interleaved with fine-grained pointer-chasing (hash-table walks,
  key lookups, tree traversals);
* a significant store/writeback share of memory traffic (21-38%, Figure 3);
* region access density that is strongly bimodal, with most reads and writes
  falling into high-density 1KB regions (Figure 5, Table I);
* heavy inter-core interleaving of requests at the LLC and memory controller,
  which is what destroys row-buffer locality in the baseline (Section II.C).

Each of the six evaluated workloads has its own module documenting how its
parameters map onto the application behaviour the paper describes; the
shared machinery lives in :mod:`repro.workloads.spec` (the parameter set),
:mod:`repro.workloads.generator` (the per-core job engine) and
:mod:`repro.workloads.density` (the region-density characterisation used for
Figure 5, Table I and the Ideal system).
"""

from repro.workloads.catalog import WORKLOADS, get_workload, workload_names
from repro.workloads.density import DensityReport, RegionDensityProfiler
from repro.workloads.generator import generate_trace_buffer, iter_trace_chunks
from repro.workloads.spec import WorkloadSpec

__all__ = [
    "WORKLOADS",
    "get_workload",
    "workload_names",
    "DensityReport",
    "RegionDensityProfiler",
    "generate_trace_buffer",
    "iter_trace_chunks",
    "WorkloadSpec",
]
