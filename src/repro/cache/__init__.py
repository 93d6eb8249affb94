"""Cache hierarchy substrate.

The trace-driven system models two cache levels, matching Table II of the
paper:

* per-core 32KB 2-way L1 data caches (:class:`repro.cache.l1.L1DataCache`)
  that filter the processor reference stream before it reaches the shared
  LLC;
* a shared 4MB 16-way last-level cache (:class:`repro.cache.llc.LastLevelCache`)
  whose access, miss and eviction streams feed the prefetchers, the
  eager-writeback engine and BuMP.

Both levels are built on one of two interchangeable, result-identical cache
array engines (see :mod:`repro.cache.engine`): the flat-array engine
(:class:`repro.cache.flat.FlatSetAssociativeCache`, the default -- state in
preallocated NumPy parallel arrays, allocation-free hot path) and the
original dict-of-lines model
(:class:`repro.cache.set_assoc.SetAssociativeCache`, selectable with
``REPRO_CACHE_ENGINE=dict`` as the benchmark baseline).  Components that
want to observe or inject LLC traffic implement the
:class:`repro.cache.agent.LLCAgent` interface.
"""

from repro.cache.agent import LLCAgent
from repro.cache.engine import cache_engine_name, make_cache_array
from repro.cache.flat import FlatLineView, FlatSetAssociativeCache
from repro.cache.l1 import L1DataCache
from repro.cache.llc import LastLevelCache
from repro.cache.replacement import LRUPolicy, RandomPolicy, ReplacementPolicy
from repro.cache.set_assoc import CacheLine, EvictedLine, SetAssociativeCache

__all__ = [
    "LLCAgent",
    "L1DataCache",
    "LastLevelCache",
    "LRUPolicy",
    "RandomPolicy",
    "ReplacementPolicy",
    "CacheLine",
    "EvictedLine",
    "SetAssociativeCache",
    "FlatLineView",
    "FlatSetAssociativeCache",
    "cache_engine_name",
    "make_cache_array",
]
