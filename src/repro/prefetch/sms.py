"""Spatial Memory Streaming (SMS) prefetcher baseline.

SMS [Somogyi et al., ISCA 2006; Kumar & Wilkerson, ISCA 1998] learns, per
*(trigger PC, offset-in-region)*, the exact *footprint* -- the bit-vector of
blocks touched -- of spatial regions, and on a later trigger access that hits
in the pattern history prefetches precisely that footprint.

Two structures:

* the **active generation table** (AGT) records the footprint of regions that
  currently have blocks live on chip; a generation starts at the first
  (trigger) access to the region and ends at the first eviction of one of its
  blocks or at an AGT conflict, at which point the footprint is copied into
  the pattern history table;
* the **pattern history table** (PHT), indexed by (trigger PC, trigger
  offset), holds the most recent footprint observed for that code point.

Per the paper's configuration (Section V.A), SMS is placed next to the LLC so
its metadata is shared by all cores, and -- crucially for the comparison with
BuMP -- it observes and predicts only *load-triggered* traffic: store misses
and LLC writebacks pass it by, which caps the row-buffer locality it can
recover (Figure 2).
"""

from __future__ import annotations

from repro.common.addressing import (
    BLOCK_SIZE,
    BLOCKS_PER_REGION,
    REGION_SIZE,
    block_index_in_region,
    region_address,
)
from repro.common.assoc_table import AssociativeTable
from repro.common.stats import StatGroup, fold_pending
from repro.cache.agent import LLCAgent


class _Generation:
    """Footprint of one active spatial region generation."""

    __slots__ = ("trigger_pc", "trigger_offset", "pattern")

    def __init__(self, trigger_pc: int, trigger_offset: int, pattern: int) -> None:
        self.trigger_pc = trigger_pc
        self.trigger_offset = trigger_offset
        self.pattern = pattern


class SpatialMemoryStreaming(LLCAgent):
    """SMS spatial footprint prefetcher attached to the LLC.

    The AGT is consulted on every load that reaches the LLC, so both tables
    are operated on directly (set ``hash(key) % num_sets``, LRU per set, as
    :class:`~repro.common.assoc_table.AssociativeTable` lays them out) with
    counters held as plain ints folded into the :class:`StatGroup` on read.
    """

    name = "sms"

    #: (pending attribute, StatGroup key) pairs folded by ``stats``.
    _PENDING_COUNTERS = (
        ("_n_pht_hits", "pht_hits"),
        ("_n_pht_misses", "pht_misses"),
        ("_n_prefetches_issued", "prefetches_issued"),
        ("_n_generations_trained", "generations_trained"),
        ("_n_generations_single_block", "generations_single_block"),
    )

    def __init__(self, agt_entries: int = 1024, pht_entries: int = 16384,
                 associativity: int = 16, region_size: int = REGION_SIZE) -> None:
        self.region_size = region_size
        self.blocks_per_region = region_size // BLOCK_SIZE
        self.agt: AssociativeTable[int, _Generation] = AssociativeTable(
            agt_entries, associativity, name="sms_agt"
        )
        self.pht: AssociativeTable[tuple, int] = AssociativeTable(
            pht_entries, associativity, name="sms_pht"
        )
        self._ways = associativity
        self._agt_sets = self.agt.sets
        self._agt_num_sets = self.agt.num_sets
        self._pht_sets = self.pht.sets
        self._pht_num_sets = self.pht.num_sets
        self._stats = StatGroup("sms")
        for attr, _key in self._PENDING_COUNTERS:
            setattr(self, attr, 0)

    @property
    def stats(self) -> StatGroup:
        """Counters (pending hot increments folded in)."""
        return fold_pending(self, self._stats, self._PENDING_COUNTERS)

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def on_access(self, core: int, pc: int, block: int, is_store: bool,
                  hit: bool) -> None:
        """Track load footprints of active regions; trigger predictions on new ones."""
        if is_store:
            return

        region_size = self.region_size
        region = block // region_size
        offset = (block % region_size) // BLOCK_SIZE
        agt_set = self._agt_sets[hash(region) % self._agt_num_sets]
        generation = agt_set.get(region)
        if generation is not None:
            del agt_set[region]  # promote to most-recently used
            agt_set[region] = generation
            generation.pattern |= 1 << offset
            return

        # First (trigger) access of a new generation: consult the PHT and
        # start tracking the footprint.
        key = (pc, offset)
        pht_set = self._pht_sets[hash(key) % self._pht_num_sets]
        prediction = pht_set.get(key)
        if prediction is not None:
            del pht_set[key]  # promote to most-recently used
            pht_set[key] = prediction
            self._n_pht_hits += 1
            fetches = self.fetches
            requested = len(fetches)
            base = region * region_size
            for index in range(self.blocks_per_region):
                if index != offset and (prediction >> index) & 1:
                    fetches.append(base + index * BLOCK_SIZE)
            self._n_prefetches_issued += len(fetches) - requested
        else:
            self._n_pht_misses += 1

        victim = None
        if len(agt_set) >= self._ways:
            victim = agt_set.pop(next(iter(agt_set)))
        agt_set[region] = _Generation(pc, offset, 1 << offset)
        if victim is not None:
            self._end_generation(victim)

    def on_eviction(self, block: int, flags: int) -> None:
        """The first eviction of a block of an active region ends its generation."""
        region = block // self.region_size
        generation = self._agt_sets[hash(region) % self._agt_num_sets].pop(
            region, None)
        if generation is not None:
            self._end_generation(generation)

    def _end_generation(self, generation: _Generation) -> None:
        """Commit a finished generation's footprint into the pattern history."""
        if bin(generation.pattern).count("1") > 1:
            key = (generation.trigger_pc, generation.trigger_offset)
            pht_set = self._pht_sets[hash(key) % self._pht_num_sets]
            if key in pht_set:
                del pht_set[key]  # re-insert as most-recently used
            elif len(pht_set) >= self._ways:
                del pht_set[next(iter(pht_set))]
            pht_set[key] = generation.pattern
            self._n_generations_trained += 1
        else:
            self._n_generations_single_block += 1

    # ------------------------------------------------------------------ #
    # Overheads
    # ------------------------------------------------------------------ #
    def storage_bits(self) -> int:
        """Approximate storage: PHT footprints dominate (the paper cites ~60KB/core
        for the original per-core design; sharing it at the LLC divides that cost)."""
        pht_bits = self.pht.entries * (32 + self.blocks_per_region)
        agt_bits = self.agt.entries * (32 + 4 + self.blocks_per_region)
        return pht_bits + agt_bits


def footprint_to_blocks(region: int, pattern: int,
                        region_size: int = REGION_SIZE) -> list:
    """Expand a footprint bit-vector into the block addresses it covers."""
    blocks_per_region = region_size // BLOCK_SIZE
    base = region * region_size
    return [
        base + index * BLOCK_SIZE
        for index in range(blocks_per_region)
        if (pattern >> index) & 1
    ]


def pattern_from_offsets(offsets, blocks_per_region: int = BLOCKS_PER_REGION) -> int:
    """Build a footprint bit-vector from a list of block offsets (test helper)."""
    pattern = 0
    for offset in offsets:
        if not 0 <= offset < blocks_per_region:
            raise ValueError(f"offset {offset} outside region")
        pattern |= 1 << offset
    return pattern


def region_of(address: int) -> int:
    """Region number of a byte address at the default 1KB region size."""
    return region_address(address)


def offset_of(address: int) -> int:
    """Block offset of a byte address inside its default-size region."""
    return block_index_in_region(address)
