"""Per-core L1 data caches used as a filter in front of the shared LLC.

The L1 model is intentionally simple: it captures the short-term temporal and
spatial reuse that never reaches the LLC, so that the LLC observes a
realistic, filtered reference stream.  Write misses allocate (write-allocate)
and writes mark the block dirty; a dirty L1 eviction is reported to the
caller so it can be forwarded to the LLC as a write (this is how store
traffic eventually becomes dirty LLC blocks and, later, DRAM writes).
:class:`StackedL1` runs every core's L1 a chunk at a time.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.common.addressing import BLOCK_BITS
from repro.common.params import CacheParams
from repro.cache.flat import FLAG_DIRTY, FLAG_USED

#: The state planes :class:`StackedL1` keeps.
_PLANES = ("tags", "flags", "pcs", "stamps", "ticks")


def _lockstep_order(lanes: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """Rows ordered by (position within their lane, lane), and step bounds.

    Two stable argsorts: by lane, then by the position each row takes
    within its lane.  Rows ``bounds[p]:bounds[p + 1]`` of the order are
    every lane's ``p``-th row, each lane at most once.
    """
    order = np.argsort(lanes, kind="stable")
    sorted_lanes = lanes[order]
    # A row's position in its lane: its index in lane order minus the index
    # of its lane's first row.
    position = np.arange(len(lanes), dtype=np.int32)
    first = np.where(np.concatenate(([True], sorted_lanes[1:] != sorted_lanes[:-1])),
                     position, 0)
    position -= np.maximum.accumulate(first, out=first)
    by_position = np.argsort(position, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(position)))).tolist()
    return order[by_position], bounds


class StackedL1:
    """Every core's L1 data cache as one set of stacked LRU planes.

    Core ``c``'s set ``s`` is *lane* ``c * num_sets + s``.  Four planes,
    each ``[lanes, ways]``, hold every line: ``tags`` (``-1`` when never
    filled), ``flags`` (the LLC's ``FLAG_DIRTY`` and ``FLAG_USED`` bits),
    ``pcs`` and the LRU ``stamps``; ``ticks`` holds each lane's running
    stamp.  Unlike the LLC's one dict per set
    (:class:`~repro.cache.flat.CacheArray`), planes let a chunk's lanes
    step together in NumPy.
    """

    def __init__(self, params: CacheParams, num_cores: int) -> None:
        self.num_cores = num_cores
        self.num_sets = params.num_sets
        self._set_mask = self.num_sets - 1
        if self.num_sets & self._set_mask:
            raise ValueError("number of sets must be a power of two")
        self.ways = params.associativity
        lanes = num_cores * self.num_sets
        self.tags = np.full((lanes, self.ways), -1, dtype=np.int64)
        self.flags = np.zeros((lanes, self.ways), dtype=np.uint8)
        self.pcs = np.zeros((lanes, self.ways), dtype=np.int64)
        self.stamps = np.zeros((lanes, self.ways), dtype=np.int64)
        self.ticks = np.zeros(lanes, dtype=np.int64)

    def access_chunk(self, cores: np.ndarray, blocks: np.ndarray,
                     stores: np.ndarray, pcs: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run one chunk (``int64`` blocks and PCs) through the L1s in order.

        Returns per row ``(hits, victims, victim_pcs)``: whether it hit and,
        for a miss that displaced a dirty line, that line's block (else
        ``-1``) and PC.  Lanes are independent LRU sequences, so rows are
        ordered by (position within lane, lane) with two stable argsorts
        and each position is one vector step over all its lanes.  A hit
        promotes its way (a store dirties it); a miss fills the way with the
        lowest stamp: the LRU line, or in a set not yet full the first
        never-filled way (stamp 0; filled ways hold ticks >= 1), where a
        sequential fill puts it.  That holds only because L1 lines are never
        invalidated: an invalidated way would keep its stale stamp.
        """
        n = len(blocks)
        lanes = (cores * self.num_sets
                 + ((blocks >> BLOCK_BITS) & self._set_mask).astype(np.int32))
        rows, bounds = _lockstep_order(lanes)
        step_lanes = lanes[rows]
        step_slots = step_lanes * self.ways
        step_blocks, step_pcs = blocks[rows], pcs[rows]
        step_stores = stores[rows].view(np.uint8)
        hit = np.empty(n, dtype=bool)
        old_tags, old_pcs = np.empty(n, np.int64), np.empty(n, np.int64)
        old_flags = np.empty(n, dtype=np.uint8)
        tag_rows, stamp_rows, ticks = self.tags, self.stamps, self.ticks
        tags, flags = tag_rows.reshape(-1), self.flags.reshape(-1)
        pc_plane, stamps = self.pcs.reshape(-1), stamp_rows.reshape(-1)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            lane = step_lanes[lo:hi]
            block = step_blocks[lo:hi]
            match = tag_rows[lane] == block[:, None]
            step_hit = np.any(match, axis=1, out=hit[lo:hi])
            slot = step_slots[lo:hi] + np.where(
                step_hit, match.argmax(axis=1),
                self._victim_ways(stamp_rows[lane]))
            tick = ticks[lane] + 1
            ticks[lane] = tick
            stamps[slot] = tick
            prior_flags = np.take(flags, slot, out=old_flags[lo:hi])
            np.take(tags, slot, out=old_tags[lo:hi])
            prior_pcs = np.take(pc_plane, slot, out=old_pcs[lo:hi])
            flags[slot] = (np.where(step_hit, prior_flags, FLAG_USED)
                           | step_stores[lo:hi])
            tags[slot] = block
            pc_plane[slot] = np.where(step_hit, prior_pcs, step_pcs[lo:hi])

        # Free the step-ordered inputs before building the outputs.
        del step_lanes, step_slots, step_blocks, step_pcs, step_stores
        old_tags[((old_flags & FLAG_DIRTY) == 0) | hit] = -1
        hits, victims, victim_pcs = (np.empty(n, bool), np.empty(n, np.int64),
                                     np.empty(n, np.int64))
        hits[rows] = hit
        victims[rows] = old_tags
        victim_pcs[rows] = old_pcs
        return hits, victims, victim_pcs

    def _victim_ways(self, stamps: np.ndarray) -> np.ndarray:
        """The way a miss fills in each row of ``stamps``: the lowest stamp."""
        return stamps.argmin(axis=1)

    def core_planes(self) -> Dict[str, np.ndarray]:
        """Copies of the planes, keyed by name, with a leading core axis.

        Planes are ``[cores, sets, ways]`` and ``ticks`` is ``[cores,
        sets]``.
        """
        shape = (self.num_cores, self.num_sets)
        return {plane: getattr(self, plane).reshape(
                    shape + getattr(self, plane).shape[1:]).copy()
                for plane in _PLANES}

    def load_core_planes(self, planes: Dict[str, np.ndarray]) -> None:
        """Copy planes in the :meth:`core_planes` layout back in place."""
        for plane in _PLANES:
            target = getattr(self, plane)
            np.copyto(target, planes[plane].reshape(target.shape))
