"""Per-core trace generation.

Each simulated core runs a small pool of concurrent *operations* (jobs) and
round-robins among them, which is how a server thread interleaves work on
several requests and how accesses to one coarse object end up separated by
unrelated accesses -- the behaviour that defeats the memory controller's
scheduling window in the baseline system (Section II.C of the paper).

Two kinds of jobs exist:

* **coarse scans** -- walk a coarse software object (a database row, an index
  page, a media buffer) block by block with a single function (PC).  Read
  scans issue loads; write scans issue stores to every touched block.  A
  configurable fraction of blocks is skipped so density is high but not
  always 100%.
* **pointer chases** -- a chain of dependent accesses to effectively random
  locations of a huge index structure (hash buckets, tree nodes), touching
  one block per hop; these produce the low-density accesses of Figure 5.

The multi-core trace is the deterministic round-robin interleaving of the
per-core streams, which models how requests from many cores mingle at the
shared LLC and memory controllers.

The engine (:func:`iter_trace_chunks`, :func:`generate_trace_buffer`) is
columnar.  Every job draws all of its randomness in batched
``np.random.Generator`` calls and lands directly in
:class:`repro.trace.buffer.TraceBuffer` column arrays; the round-robin
interleave is pure strided array assignment.  Because the global stream
position ``g`` belongs to core ``g % C`` and job slot ``(g // C) % J``, each
(core, slot) pair owns the arithmetic progression ``g ≡ core + C·slot (mod
C·J)`` of positions, and each pair draws from its own named RNG stream -- so
the emitted trace is bit-identical for every chunk size.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, List, Tuple

import numpy as np

from repro.common.addressing import BLOCK_SIZE, REGION_SIZE
from repro.common.rng import seeded_generator, zipf_weights
from repro.trace.buffer import DEFAULT_CHUNK_SIZE, TraceBuffer
from repro.workloads.spec import WorkloadSpec

#: Base virtual PC values for the three code families; spread far apart so
#: different families never collide in predictor tables.
_COARSE_READ_PC_BASE = 0x400000
_COARSE_WRITE_PC_BASE = 0x500000
_FINE_PC_BASE = 0x600000
#: Pool of "cold" PCs used to model scans reached through rarely-executed
#: code paths (see ``WorkloadSpec.coarse_pc_noise``).
_COLD_PC_BASE = 0x700000
_COLD_PC_POOL = 4096
#: The fine-grained index space starts above the coarse heap.
_FINE_SPACE_OFFSET_ALIGN = REGION_SIZE

_OFFSET_CHOICES = BLOCK_SIZE // 8


# --------------------------------------------------------------------- #
# Shared dataset layout
# --------------------------------------------------------------------- #
class _CoreLayout:
    """Per-core dataset layout: coarse-object pool, popularity and PC sets.

    Drawn from a per-core RNG stream (``.../core{c}`` for the workload
    generator) in a fixed order, so every job slot of a core sees the
    identical coarse-object pool and popularity distribution for a seed.
    """

    __slots__ = ("object_bases", "object_cdf", "coarse_read_pcs",
                 "coarse_write_pcs", "fine_pcs", "fine_base")

    def __init__(self, spec: WorkloadSpec, rng: np.random.Generator) -> None:
        self.object_bases = _allocate_objects(spec, rng)
        #: Cumulative popularity distribution; sampled with searchsorted so a
        #: job creation costs O(log n) instead of O(n).  Read-only, and
        #: shared by every layout with the same object count and skew.
        self.object_cdf = _popularity_cdf(len(self.object_bases),
                                          spec.popularity_skew)
        self.coarse_read_pcs = np.array(
            [_COARSE_READ_PC_BASE + 16 * i for i in range(spec.coarse_read_pcs)],
            dtype=np.int64)
        self.coarse_write_pcs = np.array(
            [_COARSE_WRITE_PC_BASE + 16 * i for i in range(spec.coarse_write_pcs)],
            dtype=np.int64)
        self.fine_pcs = np.array(
            [_FINE_PC_BASE + 16 * i for i in range(spec.fine_pcs)], dtype=np.int64)
        self.fine_base = _fine_space_base(spec)


# Eight entries cover the six catalog workloads plus two variants.
@lru_cache(maxsize=8)
def _popularity_cdf(count: int, skew: float) -> np.ndarray:
    """The cumulative Zipf popularity of ``count`` objects, read-only.

    It depends only on its two arguments, so a 16-core stream holds one
    copy instead of one per core.
    """
    cdf = np.cumsum(zipf_weights(count, skew))
    cdf.setflags(write=False)
    return cdf


def _allocate_objects(spec: WorkloadSpec, rng: np.random.Generator) -> np.ndarray:
    """Pick the base address of every coarse object in the pool.

    Objects are spread uniformly through the coarse heap; a configurable
    fraction starts misaligned with respect to region boundaries.
    """
    max_object = max(spec.coarse_object_bytes)
    usable = max(spec.coarse_heap_bytes - max_object, REGION_SIZE)
    bases = rng.integers(0, usable // REGION_SIZE,
                         size=spec.coarse_object_count) * REGION_SIZE
    misaligned = rng.random(spec.coarse_object_count) < spec.unaligned_fraction
    shift = (rng.integers(1, REGION_SIZE // BLOCK_SIZE,
                          size=spec.coarse_object_count) * BLOCK_SIZE)
    return bases + np.where(misaligned, shift, 0)


def _fine_space_base(spec: WorkloadSpec) -> int:
    base = spec.coarse_heap_bytes
    remainder = base % _FINE_SPACE_OFFSET_ALIGN
    if remainder:
        base += _FINE_SPACE_OFFSET_ALIGN - remainder
    return base


def _core_layout(spec: WorkloadSpec, core: int, seed: int) -> _CoreLayout:
    rng = seeded_generator(seed, f"{spec.seed_stream}/core{core}")
    return _CoreLayout(spec, rng)


# --------------------------------------------------------------------- #
# Columnar engine: vectorized per-slot job streams
# --------------------------------------------------------------------- #
class _SlotStream:
    """The access stream of one (core, slot) pair as column arrays.

    Jobs are drawn sequentially from the slot's own RNG stream; each job's
    randomness is drawn in one batch of vectorized calls, so producing a
    job's accesses costs a handful of NumPy calls regardless of its length.
    The queue decouples job generation from chunk emission: :meth:`take`
    hands out exactly ``n`` rows no matter how job boundaries fall.
    """

    __slots__ = ("spec", "layout", "rng", "_pending", "_head", "_available")

    def __init__(self, spec: WorkloadSpec, layout: _CoreLayout,
                 rng: np.random.Generator) -> None:
        self.spec = spec
        self.layout = layout
        self.rng = rng
        #: FIFO of (pc, address, is_store, instructions) column tuples.
        self._pending: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self._head = 0  # consumed rows of the front tuple
        self._available = 0

    # -- job materialization ------------------------------------------- #
    def _next_job_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        if self.rng.random() < self.spec.coarse_job_fraction:
            return self._coarse_job_columns()
        return self._fine_job_columns()

    def _coarse_job_columns(self):
        spec, layout, rng = self.spec, self.layout, self.rng
        index = int(np.searchsorted(layout.object_cdf, rng.random()))
        index = min(index, len(layout.object_bases) - 1)
        base = int(layout.object_bases[index])
        low, high = spec.coarse_object_bytes
        size = int(rng.integers(low // BLOCK_SIZE, high // BLOCK_SIZE + 1))
        blocks = base + np.arange(size, dtype=np.int64) * BLOCK_SIZE
        if spec.coarse_touch_fraction < 1.0:
            blocks = blocks[rng.random(len(blocks)) < spec.coarse_touch_fraction]
            if len(blocks) == 0:
                blocks = np.array([base], dtype=np.int64)
        is_write = rng.random() < spec.coarse_write_fraction
        if rng.random() >= spec.coarse_sequential_fraction:
            # Data-dependent walk: same footprint, shuffled visiting order.
            blocks = blocks[rng.permutation(len(blocks))]
        if rng.random() < spec.coarse_pc_noise:
            # A cold code path touches this object: the PC is effectively
            # unique, so PC-indexed predictors cannot anticipate the scan.
            pc = _COLD_PC_BASE + 16 * int(rng.integers(0, _COLD_PC_POOL))
        else:
            pcs = layout.coarse_write_pcs if is_write else layout.coarse_read_pcs
            pc = int(pcs[int(rng.integers(0, len(pcs)))])
        extra = spec.accesses_per_block - 1.0
        if extra > 0:
            # Same-block repeat accesses (absorbed by the L1): each touched
            # block is immediately revisited with probability ``extra``.
            repeats = (rng.random(len(blocks)) < extra).astype(np.int64)
            emitted = np.repeat(blocks, 1 + repeats)
        else:
            emitted = blocks
        count = len(emitted)
        offsets = rng.integers(0, _OFFSET_CHOICES, size=count) * 8
        instructions = np.maximum(
            1, rng.poisson(spec.instructions_per_access, size=count))
        return (np.full(count, pc, dtype=np.int64), emitted + offsets,
                np.full(count, is_write, dtype=np.bool_), instructions)

    def _fine_job_columns(self):
        spec, layout, rng = self.spec, self.layout, self.rng
        low, high = spec.fine_chain_hops
        hops = int(rng.integers(low, high + 1))
        blocks = (layout.fine_base
                  + rng.integers(0, spec.fine_space_bytes // BLOCK_SIZE,
                                 size=hops) * BLOCK_SIZE)
        pcs = layout.fine_pcs[rng.integers(0, len(layout.fine_pcs), size=hops)]
        stores = rng.random(hops) < spec.fine_store_fraction
        offsets = rng.integers(0, _OFFSET_CHOICES, size=hops) * 8
        instructions = np.maximum(
            1, rng.poisson(spec.instructions_per_access, size=hops))
        return pcs, blocks + offsets, stores, instructions

    # -- emission ------------------------------------------------------ #
    def take(self, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Pop exactly ``n`` rows, generating further jobs as needed."""
        while self._available < n:
            columns = self._next_job_columns()
            self._pending.append(columns)
            self._available += len(columns[0])
        pieces: List[Tuple[np.ndarray, ...]] = []
        remaining = n
        while remaining > 0:
            front = self._pending[0]
            front_len = len(front[0]) - self._head
            if front_len <= remaining:
                pieces.append(tuple(col[self._head:] for col in front))
                self._pending.pop(0)
                self._head = 0
                remaining -= front_len
            else:
                stop = self._head + remaining
                pieces.append(tuple(col[self._head:stop] for col in front))
                self._head = stop
                remaining = 0
        self._available -= n
        if len(pieces) == 1:
            return pieces[0]
        return tuple(np.concatenate([piece[i] for piece in pieces])
                     for i in range(4))


#: Public names of the per-core building blocks.  The scenario compiler
#: (:mod:`repro.scenario.compiler`) composes tenants from exactly these
#: pieces -- a dataset layout drawn from a caller-supplied RNG stream plus
#: per-slot job streams -- so they are part of this module's contract, not
#: private implementation detail: changing ``CoreLayout.__init__`` or
#: ``SlotStream.take`` is an API change for the scenario engine too.
CoreLayout = _CoreLayout
SlotStream = _SlotStream


def iter_trace_chunks(spec: WorkloadSpec, num_accesses: int, num_cores: int = 16,
                      seed: int = 42,
                      chunk_size: int = DEFAULT_CHUNK_SIZE
                      ) -> Iterator[TraceBuffer]:
    """Stream the canonical multi-core trace as :class:`TraceBuffer` chunks.

    The concatenation of the yielded chunks is bit-identical for every
    ``chunk_size``: each (core, slot) pair draws from its own RNG stream, so
    how emission is windowed cannot reorder any pair's job sequence.
    Memory stays bounded by the chunk size plus at most one in-flight job
    per (core, slot) pair.
    """
    if num_accesses < 0:
        raise ValueError("num_accesses must be non-negative")
    if num_cores < 1:
        raise ValueError("num_cores must be positive")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    jobs_per_core = spec.jobs_per_core
    period = num_cores * jobs_per_core
    slots: List[List[_SlotStream]] = []
    for core in range(num_cores):
        layout = _core_layout(spec, core, seed)
        slots.append([
            _SlotStream(spec, layout,
                        seeded_generator(seed, f"{spec.seed_stream}/core{core}/slot{s}"))
            for s in range(jobs_per_core)
        ])

    position = 0
    while position < num_accesses:
        count = min(chunk_size, num_accesses - position)
        out_core = np.empty(count, dtype=np.int32)
        out_pc = np.empty(count, dtype=np.uint64)
        out_address = np.empty(count, dtype=np.uint64)
        out_store = np.empty(count, dtype=np.bool_)
        out_instr = np.empty(count, dtype=np.int32)
        for core in range(num_cores):
            for slot in range(jobs_per_core):
                # Global positions of this pair: g ≡ core + C·slot (mod C·J).
                first = (core + num_cores * slot - position) % period
                rows = len(range(first, count, period))
                if rows == 0:
                    continue
                pc, address, is_store, instructions = slots[core][slot].take(rows)
                out_core[first::period] = core
                out_pc[first::period] = pc.astype(np.uint64, copy=False)
                out_address[first::period] = address.astype(np.uint64, copy=False)
                out_store[first::period] = is_store
                out_instr[first::period] = instructions
        yield TraceBuffer(out_core, out_pc, out_address, out_store, out_instr)
        position += count


def generate_trace_buffer(spec: WorkloadSpec, num_accesses: int,
                          num_cores: int = 16, seed: int = 42,
                          chunk_size: int = DEFAULT_CHUNK_SIZE) -> TraceBuffer:
    """Generate the full canonical trace as one columnar buffer."""
    return TraceBuffer.concat(
        list(iter_trace_chunks(spec, num_accesses, num_cores=num_cores,
                               seed=seed, chunk_size=chunk_size)))
