"""Reference values reported by the paper, for side-by-side comparison.

These numbers are transcribed from the text, tables and (approximately) the
figures of the MICRO 2014 paper.  :mod:`repro.analysis.figures` prints them
next to the measured values and uses them in the shape checks (orderings and
rough magnitudes), never for exact equality -- the reproduction runs
synthetic traces on an analytic simulator, so absolute values are not
expected to match.
"""

from __future__ import annotations

#: Canonical workload order used by every figure.
WORKLOAD_ORDER = [
    "data_serving",
    "media_streaming",
    "online_analytics",
    "software_testing",
    "web_search",
    "web_serving",
]

#: Figure 2 / 13 -- row-buffer hit ratio averaged across workloads.
ROW_BUFFER_HIT_RATIO_AVG = {
    "base_open": 0.21,
    "sms": 0.30,
    "vwq": 0.36,
    "sms_vwq": 0.44,
    "bump": 0.55,
    "ideal": 0.77,
}

#: Table IV -- BuMP's row-buffer hit ratio per workload.
TABLE4_BUMP_ROW_HITS = {
    "data_serving": 0.54,
    "media_streaming": 0.64,
    "online_analytics": 0.57,
    "software_testing": 0.34,
    "web_search": 0.62,
    "web_serving": 0.56,
}

#: Table I -- fraction of a high-density region's blocks modified after its
#: first dirty LLC eviction.
TABLE1_LATE_WRITES = {
    "data_serving": 0.08,
    "media_streaming": 0.11,
    "online_analytics": 0.06,
    "software_testing": 0.03,
    "web_search": 0.06,
    "web_serving": 0.09,
}

#: Section III -- memory traffic characterisation ranges (min, max).
WRITE_TRAFFIC_SHARE_RANGE = (0.21, 0.38)
READ_HIGH_DENSITY_RANGE = (0.57, 0.75)
WRITE_HIGH_DENSITY_RANGE = (0.62, 0.86)
HIGH_DENSITY_ACCESS_RANGE = (0.59, 0.79)

#: Figure 8 -- BuMP prediction accuracy (text of Section V.B).
BUMP_READ_COVERAGE_RANGE = (0.28, 0.55)
BUMP_READ_OVERFETCH_RANGE = (0.05, 0.22)
BUMP_WRITE_COVERAGE_AVG = 0.63
FULL_REGION_READ_OVERFETCH_AVG = 4.3
FULL_REGION_WRITE_COVERAGE_AVG = 0.73

#: Figure 9 / Section V.C -- memory energy per access improvements.
BUMP_ENERGY_REDUCTION_VS_OPEN = 0.23
BUMP_ENERGY_REDUCTION_VS_CLOSE = 0.34
OPEN_VS_CLOSE_ENERGY_REDUCTION = 0.14
BUMP_ENERGY_REDUCTION_VS_SMS = 0.20
BUMP_ENERGY_REDUCTION_VS_VWQ = 0.13
BUMP_ENERGY_REDUCTION_VS_SMS_VWQ = 0.10

#: Figure 10 / Section V.D -- throughput improvements over Base-close.
BUMP_SPEEDUP_OVER_CLOSE = 0.09
BUMP_SPEEDUP_OVER_OPEN = 0.11
FULL_REGION_SLOWDOWN = -0.67

#: Figure 1 -- memory share of total server energy.
MEMORY_ENERGY_SHARE_RANGE = (0.48, 0.62)

#: Figure 11 -- chosen design point.
BEST_REGION_SIZE = 1024
BEST_DENSITY_THRESHOLD = 0.5

#: Figure 12 / Section V.F -- on-chip overheads of BuMP.
LLC_TRAFFIC_OVERHEAD_AVG = 0.10
NOC_TRAFFIC_OVERHEAD_AVG = 0.11
LLC_ENERGY_OVERHEAD_AVG = 0.07
NOC_ENERGY_OVERHEAD_AVG = 0.13
BUMP_STORAGE_KB = 14
BUMP_POWER_MW = 50
