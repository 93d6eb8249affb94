"""A reference LRU: the cache layer's specification.

The simulator's LLC (:class:`repro.cache.flat.CacheArray`) is a plain
dict per set of packed line words, popped and re-inserted on every touch;
every core's L1 (:class:`repro.cache.l1.StackedL1`) is NumPy planes with
recency stamps.  This module states what they must compute in the plainest
form LRU has: one ``OrderedDict`` per set, least recently used first, a
touch is ``move_to_end``, a victim is the first key and a line is a
``[flags, pc, core]`` list.  Both LLCs keep an ordered dict per set, but
they share no code -- only the flag constants of :mod:`repro.cache.agent`:
``move_to_end`` checks the array's pop/re-insert and the per-line lists its
word packing, so a bug there, or in the L1's stamps, cannot hide in both.

* :class:`ReferenceLRU` mirrors the five calls the simulator makes on the
  LLC array: ``demand_access``, ``fill``, ``clean``, ``contains`` and
  ``touch_set_dirty``.  Its ``fill`` states the array's precondition: it
  raises on a block that is already resident;
* :class:`ReferenceL1` mirrors :meth:`StackedL1.access_chunk`;
* :class:`LRUShadow` runs both beside a live
  :class:`~repro.sim.system.ServerSystem` and compares every call's result.
  The fuzz oracle's ``lru`` check and the tests use it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

import numpy as np

from repro.cache.agent import FLAG_DIRTY, FLAG_PREFETCHED, FLAG_USED
from repro.common.addressing import BLOCK_BITS

__all__ = [
    "LRUShadow",
    "ReferenceL1",
    "ReferenceLRU",
]


class ReferenceLRU:
    """One set-associative LRU cache: an ordered dict per set, LRU first.

    Each line is ``[flags, pc, core]`` with the agents' flag bits.  Like
    the array, :meth:`fill` returns the victim's block (or -1) and leaves
    its flag byte, PC and core in ``victim_flags``, ``victim_pc`` and
    ``victim_core``.
    """

    def __init__(self, num_sets: int, ways: int) -> None:
        self.ways = ways
        self._mask = num_sets - 1
        self.sets: List[OrderedDict] = [OrderedDict() for _ in range(num_sets)]
        self.victim_flags = self.victim_pc = self.victim_core = 0

    def _set(self, block: int) -> OrderedDict:
        return self.sets[(block >> BLOCK_BITS) & self._mask]

    def demand_access(self, block: int, is_write: bool) -> int:
        """Touch a resident block: its flags before the access, or -1."""
        lines = self._set(block)
        line = lines.get(block)
        if line is None:
            return -1
        lines.move_to_end(block)
        prior = line[0]
        line[0] = prior | FLAG_USED | (FLAG_DIRTY if is_write else 0)
        return prior

    def fill(self, block: int, dirty: bool = False, prefetched: bool = False,
             pc: int = 0, core: int = 0) -> int:
        """Allocate absent ``block`` as most recently used; return the victim or -1."""
        lines = self._set(block)
        if block in lines:
            raise ValueError(f"fill of resident block 0x{block:x}")
        victim = -1
        if len(lines) == self.ways:
            victim, (self.victim_flags, self.victim_pc,
                     self.victim_core) = lines.popitem(last=False)
        flags = (FLAG_DIRTY if dirty else 0) | (
            FLAG_PREFETCHED if prefetched else FLAG_USED)
        lines[block] = [flags, pc, core]
        return victim

    def clean(self, block: int) -> bool:
        """Clear a resident block's dirty bit; True when it was dirty."""
        line = self._set(block).get(block)
        if line is None or not line[0] & FLAG_DIRTY:
            return False
        line[0] &= ~FLAG_DIRTY
        return True

    def contains(self, block: int) -> bool:
        return block in self._set(block)

    def touch_set_dirty(self, block: int) -> bool:
        """Touch a resident block and mark it dirty; False when absent."""
        lines = self._set(block)
        line = lines.get(block)
        if line is None:
            return False
        lines.move_to_end(block)
        line[0] |= FLAG_DIRTY
        return True


class ReferenceL1:
    """Every core's L1 as one ordered dict per (core, set) lane."""

    def __init__(self, num_cores: int, num_sets: int, ways: int) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self._mask = num_sets - 1
        #: Lane ``core * num_sets + set``: block -> ``[dirty, pc]``.
        self.lanes: List[OrderedDict] = [OrderedDict()
                                         for _ in range(num_cores * num_sets)]

    def access_chunk(self, cores, blocks, stores, pcs
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run rows in trace order: per row ``(hit, dirty victim, its PC)``.

        A miss that displaces no dirty line reports victim ``-1`` and PC 0.
        """
        hits, victims, victim_pcs = [], [], []
        lanes, mask, num_sets, ways = self.lanes, self._mask, self.num_sets, self.ways
        for core, block, store, pc in zip(np.asarray(cores).tolist(),
                                          np.asarray(blocks).tolist(),
                                          np.asarray(stores).tolist(),
                                          np.asarray(pcs).tolist()):
            lines = lanes[core * num_sets + ((block >> BLOCK_BITS) & mask)]
            line = lines.get(block)
            victim, victim_pc = -1, 0
            if line is not None:
                lines.move_to_end(block)
                line[0] = line[0] or store
            else:
                if len(lines) == ways:
                    old, (dirty, old_pc) = lines.popitem(last=False)
                    if dirty:
                        victim, victim_pc = old, old_pc
                lines[block] = [store, pc]
            hits.append(line is not None)
            victims.append(victim)
            victim_pcs.append(victim_pc)
        return (np.array(hits, dtype=bool), np.array(victims, dtype=np.int64),
                np.array(victim_pcs, dtype=np.int64))


class LRUShadow:
    """Run the reference LRU beside a system's L1 stage and LLC array.

    Wraps ``system.l1.access_chunk`` and the five calls on ``system.llc``
    on the instances, so the system runs exactly as it would unshadowed.
    Every call is also made on the reference and the results compared; the
    L1's victim PCs only where a victim exists (the L1 planes keep stale
    PCs in other rows, which the system never reads), and an LLC victim's
    flag byte, PC and core whenever a fill evicts.  A fill of a resident
    block, which the reference refuses, is a mismatch too.  The first
    mismatch is kept in :attr:`mismatch` and checking stops there: past it
    the two states have diverged.  Attach to a freshly built system only.
    """

    _LLC_CALLS = ("demand_access", "fill", "clean", "contains",
                  "touch_set_dirty")

    def __init__(self, system) -> None:
        params = system.config.system
        self.l1 = ReferenceL1(params.num_cores, params.l1d.num_sets,
                              params.l1d.associativity)
        self.llc = ReferenceLRU(params.llc.num_sets, params.llc.associativity)
        #: Calls compared so far.
        self.calls = 0
        #: Description of the first mismatching call, or ``None``.
        self.mismatch: Optional[str] = None
        self._wrap_l1(system.l1)
        for name in self._LLC_CALLS:
            self._wrap_llc(system.llc, name)

    def _diverged(self, description: str) -> None:
        self.mismatch = f"call {self.calls}: {description}"

    def _wrap_l1(self, l1) -> None:
        real = l1.access_chunk

        def access_chunk(cores, blocks, stores, pcs):
            result = real(cores, blocks, stores, pcs)
            if self.mismatch is None:
                self.calls += 1
                hits, victims, victim_pcs = result
                want_hits, want_victims, want_pcs = self.l1.access_chunk(
                    cores, blocks, stores, pcs)
                bad = ((hits != want_hits) | (victims != want_victims)
                       | ((want_victims >= 0) & (victim_pcs != want_pcs)))
                if bad.any():
                    row = int(np.argmax(bad))
                    self._diverged(
                        f"L1 access_chunk row {row}: (hit, victim, pc) = "
                        f"({bool(hits[row])}, {int(victims[row])}, "
                        f"{int(victim_pcs[row])}), reference "
                        f"({bool(want_hits[row])}, {int(want_victims[row])}, "
                        f"{int(want_pcs[row])})")
            return result

        l1.access_chunk = access_chunk

    def _wrap_llc(self, array, name: str) -> None:
        real = getattr(array, name)
        reference = getattr(self.llc, name)
        is_fill = name == "fill"

        def call(*args, **kwargs):
            result = real(*args, **kwargs)
            if self.mismatch is None:
                self.calls += 1
                try:
                    want = reference(*args, **kwargs)
                except ValueError as exc:
                    self._diverged(f"LLC {name}{args}: {exc}")
                    return result
                got = result
                if is_fill and want >= 0:
                    got = (result, array.victim_flags, array.victim_pc,
                           array.victim_core)
                    want = (want, self.llc.victim_flags, self.llc.victim_pc,
                            self.llc.victim_core)
                if got != want:
                    self._diverged(f"LLC {name}{args}: {got!r}, "
                                   f"reference {want!r}")
            return result

        setattr(array, name, call)
