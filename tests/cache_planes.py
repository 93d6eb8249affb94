"""Read a cache's lines from its state (test helper).

The caches expose only the calls the simulator makes; tests inspect lines
through their state instead: the LLC array's per-set dicts
(:attr:`repro.cache.flat.CacheArray.sets`, least recently used first, each
line word's low bits the flag byte) and the L1 stage's ``tags`` and
``flags`` planes.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.cache.agent import FLAG_DIRTY, FLAG_PREFETCHED, FLAG_USED
from repro.cache.flat import CacheArray
from repro.common.addressing import BLOCK_BITS

_FLAGS = FLAG_DIRTY | FLAG_PREFETCHED | FLAG_USED


def line_flags(cache, block: int) -> Optional[int]:
    """The flag byte of ``block``'s line, or ``None`` when it is not resident."""
    if isinstance(cache, CacheArray):
        word = cache.sets[(block >> BLOCK_BITS) % cache.num_sets].get(block)
        return None if word is None else word & _FLAGS
    sets, ways = np.nonzero(cache.tags == block)
    return int(cache.flags[sets[0], ways[0]]) if len(sets) else None


def resident(cache: CacheArray) -> int:
    """Number of resident lines of an LLC array."""
    return sum(len(lines) for lines in cache.sets)


def recency_order(cache: CacheArray, set_index: int) -> List[int]:
    """One LLC set's resident blocks, least recently used first."""
    return list(cache.sets[set_index])
