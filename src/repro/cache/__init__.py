"""Cache hierarchy substrate.

The trace-driven system models two cache levels, matching Table II of the
paper:

* per-core 32KB 2-way L1 data caches (:class:`repro.cache.l1.StackedL1`,
  every core's L1 as one set of stacked planes run a chunk at a time) that
  filter the processor reference stream before it reaches the shared LLC;
* a shared 4MB 16-way last-level cache (:class:`repro.cache.flat.CacheArray`)
  whose access, miss and eviction streams feed the prefetchers, the
  eager-writeback engine and BuMP.

Both levels are LRU caches -- the L1s NumPy planes with per-set recency
stamps, the LLC one recency-ordered dict per set -- and neither counts
anything: the system that drives them owns every cache counter.  Their
specification is a reference LRU of one ordered dict per set
(:mod:`repro.fuzz.reference_lru`), which the tests and the fuzz
oracle's ``lru`` check run beside them.  Components that want to observe or
inject LLC traffic implement the :class:`repro.cache.agent.LLCAgent`
interface.
"""

from repro.cache.agent import LLCAgent
from repro.cache.flat import CacheArray
from repro.cache.l1 import StackedL1

__all__ = [
    "CacheArray",
    "LLCAgent",
    "StackedL1",
]
