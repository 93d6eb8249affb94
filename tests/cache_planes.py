"""Read a flat cache array's state from its planes (test helper).

:class:`repro.cache.flat.CacheArray` exposes only the calls the
simulator makes; tests inspect lines through the ``tags``, ``flags`` and
``stamps`` planes instead.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np


def line_flags(cache, block: int) -> Optional[int]:
    """The flag byte of ``block``'s line, or ``None`` when it is not resident."""
    sets, ways = np.nonzero(cache.tags == block)
    return int(cache.flags[sets[0], ways[0]]) if len(sets) else None


def resident(cache) -> int:
    """Number of resident lines."""
    return int(np.count_nonzero(cache.tags != -1))


def recency_order(cache, set_index: int) -> List[int]:
    """One set's resident blocks, least recently used first (oldest stamp)."""
    tags, stamps = cache.tags[set_index], cache.stamps[set_index]
    filled = tags != -1
    return tags[filled][np.argsort(stamps[filled])].tolist()
