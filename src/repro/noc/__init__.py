"""Network-on-chip substrate.

The simulated CMP connects its sixteen cores to the eight LLC banks and two
memory controllers through a 16x8 crossbar (Table II).  For the purposes of
the paper's evaluation the NOC matters only as a bandwidth/energy accounting
point (Figure 12): BuMP adds traffic because L1-to-LLC requests carry the
triggering PC, because LLC access/eviction streams are forwarded to BuMP's
tables, and because bulk requests and overfetched data cross the crossbar.

:mod:`repro.noc.crossbar` sizes each message kind and turns message counts
into bytes moved and link utilisation.
"""

from repro.noc.crossbar import MESSAGE_BYTES, traffic_stats, utilization

__all__ = ["MESSAGE_BYTES", "traffic_stats", "utilization"]
