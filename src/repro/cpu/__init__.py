"""Core (CPU) microarchitecture models.

The paper's cores are 3-way out-of-order with 48-entry ROB/LSQ (Table II) and
are simulated cycle-accurately in Flexus.  The reproduction's default timing
model (:mod:`repro.sim.timing`) treats the core analytically with a *fixed*
memory-level-parallelism factor; this package provides the first-order
microarchitectural models needed to derive that factor instead of assuming
it:

* :mod:`repro.cpu.rob` -- a first-order ROB-occupancy model (in the spirit of
  Karkhanis & Smith's interval analysis): how many independent misses a
  48-entry-ROB core can expose under a given miss density and latency,
  capped by the number of L1 MSHRs (an ``mshr_entries`` count).
* :mod:`repro.cpu.interval` -- an alternative timing model with the same
  interface as :class:`repro.sim.timing.TimingModel`, selectable through
  ``SystemConfig.timing_model = "interval"``, that derives the exposed-stall
  divisor from the ROB/MSHR models rather than a fixed constant.
"""

from repro.cpu.interval import IntervalTimingModel
from repro.cpu.rob import ROBModel

__all__ = ["IntervalTimingModel", "ROBModel"]
