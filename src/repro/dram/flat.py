"""The DDR3 memory system: every channel, flat arrays, batched intake.

:class:`FlatMemorySystem` models the simulated server's main memory: DDR3
bank timing, a bounded transaction window per channel, open-row or
close-row pages, and one of three schedulers:

``frfcfs``
    First-Ready FCFS [Rixner et al., ISCA 2000], the policy of every system
    the paper evaluates: the oldest row hit in the window, else the oldest
    demand request in the window, else the oldest request.
``fcfs``
    Strict arrival order, the lower bound on row-buffer locality.
``bank_round_robin``
    A fairness-oriented scheduler for the Section VI discussion: it rotates
    over the cores that have pending requests and serves the chosen core's
    oldest row hit among its first ``window`` requests, else its oldest.

The per-transfer cost is a handful of scalar operations.  Three structural
choices carry it:

1. **Batched intake.**  ``enqueue_block_batch`` accepts whole per-chunk
   arrays of (block address, kind code, arrival cycle, core) rows.  Channel
   routing and the decode to rank/bank/row plus a packed row-state key
   ``(row << 12) | (rank << 6) | bank`` run as a few NumPy vector
   operations over the batch.  Each channel then absorbs its rows in order
   and serves a window's worth whenever twice the window is pending, so the
   serve order does not depend on where batches begin and end.

2. **Flat ring-buffer queues.**  Each channel's transaction queue is a pair
   of parallel Python lists (entry tuples and their arrival sequence
   numbers) with a head cursor.  A pick at the queue's front advances the
   cursor in O(1), and the dead prefix is compacted away periodically; any
   other pick pays a ``bisect`` and a list ``pop``.  Front picks are not
   the common case: FR-FCFS serves open-row hits and demand requests past
   older prefetch, bulk and eager requests, which collect at the head.  At
   the operating point (``web_search``, 240k accesses) the share of picks
   that are not the front was measured at 97.5% on ``base_open``, 92.0% on
   ``sms_vwq`` and 29.7% on ``bump``.  On top of the ring sit per-row FIFO
   buckets, a ready view holding exactly the buckets whose row is open, and
   a FIFO of demand entries, so the FR-FCFS choice inspects a handful of
   buckets instead of the window.  Buckets store a bare ``int`` seq while
   they hold a single entry and are promoted to a list only on the second
   same-row arrival, so the common push allocates nothing.  Round robin
   adds one list of entries per core.

3. **Preallocated NumPy state, scalar hot loop, one tally.**  Open-row ids,
   per-bank ready/activate timestamps and per-channel bus/completion cycles
   live in preallocated NumPy arrays (``open_row[channels, banks]``,
   ``bank_ready[channels, banks]``, ...).  The serve loop hoists one
   channel's state into plain Python scalars and lists, runs the bank
   timing arithmetic and writes the state back once per drain burst.  It
   counts each served transfer once, in its channel's ``tally`` (a plain
   list indexed ``kind * 3 + outcome``, the outcome being a row hit, miss
   or conflict), and adds each demand read's latency to one sum.

Every other figure is derived from the tally when it is read
(:meth:`FlatMemorySystem.channel_stats`); no request is retained.
:mod:`repro.fuzz.reference_dram` states the same rules one request at a
time, counting each figure on its own, and is this engine's specification.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from enum import Enum
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.addressing import BLOCK_BITS
from repro.common.params import DDR3Timing, DRAMOrganization
from repro.common.request import DRAMRequestKind, KIND_IS_DEMAND, KIND_IS_READ
from repro.common.stats import StatGroup
from repro.dram.address_mapping import AddressMapping

__all__ = ["FlatMemorySystem", "PagePolicy", "SCHEDULERS"]


class PagePolicy(Enum):
    """Row-buffer management policy of the memory controller.

    *Open-row* pages stay open after an access; *close-row* pages are
    precharged right after an access unless another request the scheduler
    can see targets the same row.
    """

    OPEN = "open"
    CLOSE = "close"


#: Transaction schedulers :class:`FlatMemorySystem` serves.
SCHEDULERS = ("frfcfs", "fcfs", "bank_round_robin")

#: Kinds in ``code`` order (mirrors the fast tables of repro.common.request).
_KINDS_BY_CODE = tuple(DRAMRequestKind)
_NUM_KINDS = len(_KINDS_BY_CODE)
_DEMAND_READ_CODE = DRAMRequestKind.DEMAND_READ.code
#: ``KIND_IS_DEMAND`` as an int64 vector for batched demand classification.
_IS_DEMAND_VEC = np.array(KIND_IS_DEMAND, dtype=np.int64)

#: Row-buffer outcomes of a served transfer, in tally order: a tally cell
#: is ``kind * 3 + outcome``.
_OUTCOMES = ("row_hits", "row_misses", "row_conflicts")

#: Dead ring-buffer prefix length that triggers compaction.  Large enough
#: that the amortized cost per pop is a fraction of a list append, small
#: enough that the dead prefix never holds more than a few KB of tuples.
_COMPACT_THRESHOLD = 512

#: Mutable state of a :class:`FlatMemorySystem`: the NumPy arrays, then the
#: queues, their cursors, the open-key map and the round-robin state.
_STATE = ("open_row", "bank_ready", "last_activate", "bus_free",
          "last_completion", "tally", "demand_read_latency", "_pending",
          "_seqs", "_head", "_next_seq", "_by_key", "_ready",
          "_demand", "_open_key_of_bank", "_core_buckets", "_rotation",
          "_rotation_index")

#: Rank/bank bound of the packed row-state key, whose rank and bank fields
#: are six bits wide.
PACK_LIMIT = 64


class FlatMemorySystem:
    """All DDR3 channels of the simulated server.

    ``scheduler`` names one of :data:`SCHEDULERS`; ``window`` is the number
    of oldest pending requests per channel a choice may look at.
    Organisations with more than :data:`PACK_LIMIT` ranks per channel or
    banks per rank do not fit the packed row-state key and are rejected.
    """

    def __init__(self, timing: DDR3Timing, org: DRAMOrganization,
                 mapping: AddressMapping,
                 page_policy: PagePolicy = PagePolicy.OPEN,
                 window: int = 64, scheduler: str = "frfcfs") -> None:
        if window < 1:
            raise ValueError("scheduling window must hold at least one request")
        for field in ("ranks_per_channel", "banks_per_rank"):
            count = getattr(org, field)
            if count > PACK_LIMIT:
                raise ValueError(
                    f"DRAM organisation has {field}={count}; the memory "
                    f"system packs rank and bank into six bits each, so "
                    f"{field} must not exceed {PACK_LIMIT}")
        if scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {scheduler!r}; known schedulers: "
                + ", ".join(SCHEDULERS))
        self.timing = timing
        self.org = org
        self.mapping = mapping
        self.page_policy = page_policy
        self.scheduler = scheduler
        self.window = window
        self._frfcfs = scheduler == "frfcfs"
        self._round_robin = scheduler == "bank_round_robin"
        self._close_policy = page_policy is PagePolicy.CLOSE
        self._drain_threshold = 2 * window

        channels = org.channels
        self._channels = channels
        self._banks_per_rank = org.banks_per_rank
        self._num_banks = org.ranks_per_channel * org.banks_per_rank

        # Decode geometry (one shift/mask pipeline, vectorized per batch).
        self._cl_bits = mapping.column_low_bits
        self._ch_bits = mapping.channel_bits
        self._bank_bits = mapping.bank_bits
        self._rank_bits = mapping.rank_bits
        self._chigh_bits = mapping.column_high_bits
        self._channel_mask = channels - 1

        # ---------------- preallocated NumPy state ---------------------- #
        #: Open row id per (channel, bank); -1 = precharged (no open row).
        self.open_row = np.full((channels, self._num_banks), -1, dtype=np.int64)
        #: Earliest bus cycle each bank accepts the next column command.
        self.bank_ready = np.zeros((channels, self._num_banks))
        #: Cycle of each bank's last activation (tRRD/tRAS/tRC spacing).
        self.last_activate = np.full((channels, self._num_banks), -1.0e18)
        #: Cycle at which each channel's shared data bus becomes free.
        self.bus_free = np.zeros(channels)
        #: Cycle of the last completed transfer per channel.
        self.last_completion = np.zeros(channels)
        self.reset_counters()

        # ---------------- per-channel flat queues ----------------------- #
        # Ring buffers: parallel entry/seq lists plus a head cursor; the
        # dead prefix below the cursor is compacted away periodically.
        self._pending: List[list] = [[] for _ in range(channels)]
        self._seqs: List[list] = [[] for _ in range(channels)]
        self._head = [0] * channels
        self._next_seq = [0] * channels
        #: row-state key -> pending seq (int) or FIFO list of seqs.
        self._by_key: List[dict] = [{} for _ in range(channels)]
        #: Subset of ``_by_key`` whose row is currently open.
        self._ready: List[dict] = [{} for _ in range(channels)]
        #: FIFO of demand (latency-critical) seqs per channel.
        self._demand: List[deque] = [deque() for _ in range(channels)]
        #: Open row-state key per (channel, bank); ``None`` = precharged.  A
        #: key names its bank, so ``okob[fbank] == key`` is "key's row is open".
        self._open_key_of_bank: List[list] = [
            [None] * self._num_banks for _ in range(channels)
        ]
        # Round robin: per channel, each core's pending entries oldest first,
        # keyed in the order the cores' buckets were created (an emptied
        # bucket is dropped, so the core's next entry re-creates it last);
        # the core list the cursor last rotated over, and the cursor.
        self._core_buckets: List[dict] = [{} for _ in range(channels)]
        self._rotation: List[list] = [[] for _ in range(channels)]
        self._rotation_index = [0] * channels

    # ------------------------------------------------------------------ #
    # Request intake
    # ------------------------------------------------------------------ #
    def enqueue_block_batch(self, block_addresses, kind_codes,
                            arrival_cycles, cores) -> None:
        """Queue a whole batch of block transfers, in arrival order.

        ``block_addresses`` are block-aligned physical addresses,
        ``kind_codes`` the :class:`DRAMRequestKind` ``code`` integers,
        ``arrival_cycles`` the arrival timestamps in memory-bus cycles and
        ``cores`` the issuing cores; the sequences (lists or NumPy arrays)
        are parallel, and only round robin reads ``cores``.  Channel
        routing, coordinate decode and row-state-key packing run vectorized
        over the batch; each channel then absorbs its requests in order,
        serving a window's worth whenever twice the scheduling window is
        pending.
        """
        blocks = np.asarray(block_addresses, dtype=np.int64)
        if not len(blocks):
            return
        kinds = np.asarray(kind_codes, dtype=np.int64)
        arrivals = np.asarray(arrival_cycles, dtype=np.float64)
        round_robin = self._round_robin
        if round_robin:
            issuers = np.asarray(cores, dtype=np.int64)

        bits = blocks >> (BLOCK_BITS + self._cl_bits)
        channel = bits & self._channel_mask
        bits = bits >> self._ch_bits
        bank = bits & ((1 << self._bank_bits) - 1)
        bits = bits >> self._bank_bits
        rank = bits & ((1 << self._rank_bits) - 1)
        row = bits >> (self._rank_bits + self._chigh_bits)
        key_vec = (row << 12) | (rank << 6) | bank
        fbank_vec = rank * self._banks_per_rank + bank
        demand_vec = _IS_DEMAND_VEC[kinds]

        threshold = self._drain_threshold
        window = self.window
        if self._channels == 1:
            bounds = (0, len(blocks))
        else:
            # Stable channel split: one argsort + one gather per column
            # instead of per-channel boolean masks; stability preserves each
            # channel's arrival order, which scheduling depends on.
            order = np.argsort(channel, kind="stable")
            channel_sorted = channel[order]
            bounds = np.searchsorted(
                channel_sorted, np.arange(self._channels + 1)).tolist()
            kinds = kinds[order]
            arrivals = arrivals[order]
            fbank_vec = fbank_vec[order]
            row = row[order]
            key_vec = key_vec[order]
            demand_vec = demand_vec[order]
            if round_robin:
                issuers = issuers[order]
        cores_c = issuers.tolist() if round_robin else None
        kinds_c = kinds.tolist()
        arrivals_c = arrivals.tolist()
        fbank_c = fbank_vec.tolist()
        row_c = row.tolist()
        key_c = key_vec.tolist()
        demand_c = demand_vec.tolist()

        for ci in range(self._channels):
            lo = bounds[ci]
            hi = bounds[ci + 1]
            if lo == hi:
                continue
            pending = self._pending[ci]
            seqs = self._seqs[ci]
            by_key = self._by_key[ci]
            ready = self._ready[ci]
            demand = self._demand[ci]
            okob = self._open_key_of_bank[ci]
            head = self._head[ci]
            seq = self._next_seq[ci]
            core_buckets = self._core_buckets[ci] if round_robin else None
            pending_append = pending.append
            seqs_append = seqs.append
            by_key_get = by_key.get
            demand_append = demand.append
            for i in range(lo, hi):
                key = key_c[i]
                fbank = fbank_c[i]
                is_demand = demand_c[i]
                entry = (seq, kinds_c[i], arrivals_c[i], fbank, row_c[i], key,
                         is_demand)
                pending_append(entry)
                seqs_append(seq)
                if core_buckets is not None:
                    core_buckets.setdefault(cores_c[i], []).append(entry)
                bucket = by_key_get(key)
                if bucket is None:
                    by_key[key] = seq
                    if okob[fbank] == key:
                        ready[key] = seq
                else:
                    if type(bucket) is int:
                        bucket = by_key[key] = [bucket, seq]
                    else:
                        bucket.append(seq)
                    if okob[fbank] == key:
                        ready[key] = bucket
                if is_demand:
                    demand_append(seq)
                seq += 1
                if len(pending) - head >= threshold:
                    self._next_seq[ci] = seq
                    self._drain_channel(ci, window)
                    head = self._head[ci]
            self._next_seq[ci] = seq

    # ------------------------------------------------------------------ #
    # Scheduling and serving
    # ------------------------------------------------------------------ #
    def _live(self, channel: int) -> int:
        return len(self._pending[channel]) - self._head[channel]

    def _drain_channel(self, ci: int, count: int) -> None:
        """Serve up to ``count`` requests on channel ``ci``.

        One fused loop covers the scheduler's choice, the close-row check,
        bank timing and the count: one tally cell per served transfer, plus
        the latency sum for a demand read.  FR-FCFS chooses from the
        bucket scheme inline; round robin delegates its choice and its
        close-row check to :meth:`_round_robin_pick` and
        :meth:`_round_robin_wants`.
        """
        if count <= 0:
            return
        pending = self._pending[ci]
        seqs = self._seqs[ci]
        head = self._head[ci]
        if len(pending) <= head:
            return
        by_key = self._by_key[ci]
        ready = self._ready[ci]
        demand = self._demand[ci]
        okob = self._open_key_of_bank[ci]
        window = self.window
        close_policy = self._close_policy
        frfcfs = self._frfcfs
        round_robin = self._round_robin

        # Hoist this channel's NumPy state into scalars/lists for the loop.
        open_row = self.open_row[ci].tolist()
        bank_ready = self.bank_ready[ci].tolist()
        last_activate = self.last_activate[ci].tolist()
        bus_free = float(self.bus_free[ci])
        last_completion = float(self.last_completion[ci])
        tally = self.tally[ci]
        dr_latency = self.demand_read_latency[ci]

        timing = self.timing
        burst = timing.burst_cycles
        tCAS = timing.tCAS
        tRCD = timing.tRCD
        tRP = timing.tRP
        tRAS = timing.tRAS
        tRC = timing.tRC
        tRRD = timing.tRRD
        tWR = timing.tWR
        tRTP = timing.tRTP
        is_read_tab = KIND_IS_READ
        by_key_get = by_key.get

        for _ in range(count):
            live = len(pending) - head
            if not live:
                break
            if frfcfs:
                # ---- FR-FCFS choice: oldest row hit in the window, else the
                # oldest demand in the window, else the oldest request.  Window
                # membership of a seq s reduces to ``s <= seqs[head+limit-1]``
                # because seqs is sorted and duplicate-free.
                limit = window if window < live else live
                fence = seqs[head + limit - 1]
                s0 = seqs[head]
                chosen = -1
                if ready:
                    best = -1
                    for bucket in ready.values():
                        s = bucket if type(bucket) is int else bucket[0]
                        if best < 0 or s < best:
                            best = s
                    if best == s0:
                        chosen = head
                    elif best <= fence:
                        chosen = bisect_left(seqs, best, head)
                if chosen < 0:
                    if demand:
                        d0 = demand[0]
                        if d0 == s0:
                            chosen = head
                        elif d0 <= fence:
                            chosen = bisect_left(seqs, d0, head)
                    if chosen < 0:
                        chosen = head
            elif round_robin:
                s = self._round_robin_pick(ci, okob)
                chosen = head if s == seqs[head] else bisect_left(seqs, s, head)
            else:
                chosen = head
            if chosen == head:
                # Front pop: advance the ring cursor over both parallel
                # lists (the dead prefix stays in place -- its seqs are all
                # smaller than any live one, so bisect with lo=head never
                # sees it -- and is compacted away periodically).
                entry = pending[head]
                pending[head] = None
                head += 1
                if head >= _COMPACT_THRESHOLD:
                    del pending[:head]
                    del seqs[:head]
                    head = 0
            else:
                entry = pending.pop(chosen)
                del seqs[chosen]
            seq, kind, arrival, fbank, req_row, key, is_demand = entry

            # ---- retire from buckets / demand FIFO.
            bucket = by_key[key]
            if type(bucket) is int:
                del by_key[key]
                if key in ready:
                    del ready[key]
            else:
                if bucket[0] == seq:
                    del bucket[0]
                else:
                    bucket.remove(seq)
                if len(bucket) == 1:
                    lone = bucket[0]
                    by_key[key] = lone
                    if key in ready:
                        ready[key] = lone
            if is_demand:
                if demand[0] == seq:
                    demand.popleft()
                else:
                    demand.remove(seq)

            # ---- close-row policy: keep the row open only when another
            # queued request the scheduler can see targets it (checked after
            # this entry's removal).
            close_after = False
            if close_policy:
                if round_robin:
                    close_after = not self._round_robin_wants(ci, key)
                else:
                    other = by_key_get(key)
                    if other is None:
                        close_after = True
                    else:
                        other_head = other if type(other) is int else other[0]
                        live_now = len(pending) - head
                        if live_now:
                            limit_now = (window if window < live_now
                                         else live_now)
                            close_after = (other_head
                                           > seqs[head + limit_now - 1])
                        else:
                            close_after = True

            # ---- bank timing.
            bready = bank_ready[fbank]
            start = arrival if arrival > bready else bready
            orow = open_row[fbank]
            if orow == req_row:
                outcome = 0
                issue = start
            elif orow < 0:
                outcome = 1
                floor = last_activate[fbank] + tRRD
                activate = start if start > floor else floor
                issue = activate + tRCD
                last_activate[fbank] = activate
            else:
                outcome = 2
                last = last_activate[fbank]
                ras_done = last + tRAS
                precharge_start = start if start > ras_done else ras_done
                a1 = precharge_start + tRP
                a2 = last + tRC
                activate = a1 if a1 > a2 else a2
                issue = activate + tRCD
                last_activate[fbank] = activate
            data_ready = issue + tCAS
            if close_after:
                recovery = tRTP if is_read_tab[kind] else tWR
                open_row[fbank] = -1
                bank_ready[fbank] = data_ready + burst + recovery + tRP
                new_key = None
            else:
                open_row[fbank] = req_row
                bank_ready[fbank] = issue + burst
                new_key = key

            # ---- open-key maintenance.
            old_key = okob[fbank]
            if new_key != old_key:
                if old_key is not None and old_key in ready:
                    del ready[old_key]
                if new_key is not None:
                    other = by_key_get(new_key)
                    if other is not None:
                        ready[new_key] = other
                okob[fbank] = new_key

            # ---- shared data bus and the count.
            data_start = data_ready if data_ready > bus_free else bus_free
            completion = data_start + burst
            bus_free = completion
            if completion > last_completion:
                last_completion = completion
            tally[kind * 3 + outcome] += 1
            if kind == _DEMAND_READ_CODE:
                dr_latency += completion - arrival

        # Write the hoisted state back.
        self._head[ci] = head
        self.open_row[ci] = open_row
        self.bank_ready[ci] = bank_ready
        self.last_activate[ci] = last_activate
        self.bus_free[ci] = bus_free
        self.last_completion[ci] = last_completion
        self.demand_read_latency[ci] = dr_latency

    def _round_robin_pick(self, ci: int, okob: list) -> int:
        """Take round robin's next entry off its core bucket; return its seq.

        The cursor rotates over the cores with pending entries in bucket
        order.  When that list differs from the one it last rotated over,
        the cursor keeps its position modulo the new length.  Within the
        chosen core's first ``window`` entries the oldest row hit wins, else
        the core's oldest entry.
        """
        buckets = self._core_buckets[ci]
        cores = list(buckets)
        rotation = self._rotation[ci]
        index = self._rotation_index[ci]
        if rotation != cores:
            rotation = self._rotation[ci] = cores
            index %= len(cores)
        core = rotation[index]
        self._rotation_index[ci] = (index + 1) % len(rotation)
        bucket = buckets[core]
        pick = 0
        for j in range(min(self.window, len(bucket))):
            entry = bucket[j]
            if okob[entry[3]] == entry[5]:
                pick = j
                break
        entry = bucket.pop(pick)
        if not bucket:
            del buckets[core]
        return entry[0]

    def _round_robin_wants(self, ci: int, key: int) -> bool:
        """Whether one of the first ``window`` entries, in core-bucket order,
        targets ``key``'s row."""
        seen = 0
        for bucket in self._core_buckets[ci].values():
            for entry in bucket:
                if seen >= self.window:
                    return False
                seen += 1
                if entry[5] == key:
                    return True
        return False

    def drain(self) -> None:
        """Complete all outstanding transfers on every channel."""
        for ci in range(self._channels):
            self._drain_channel(ci, self._live(ci))

    def pending_count(self, channel: Optional[int] = None) -> int:
        """Queued-but-unserved transfers on ``channel``, or on all channels."""
        if channel is not None:
            return self._live(channel)
        return sum(self._live(ci) for ci in range(self._channels))

    def row_outcomes(self) -> Tuple[int, int, int, int]:
        """``(accesses, row_hits, row_misses, row_conflicts)`` across channels."""
        hits, misses, conflicts = (
            sum(sum(tally[outcome::3]) for tally in self.tally)
            for outcome in range(len(_OUTCOMES)))
        return hits + misses + conflicts, hits, misses, conflicts

    # ------------------------------------------------------------------ #
    # State transfer (the pipelined run loop's DRAM stage)
    # ------------------------------------------------------------------ #
    def export_state(self) -> Dict[str, object]:
        """Every piece of mutable state, by attribute name.

        Plain arrays, lists, dicts and deques -- never the object itself,
        whose methods a caller may have wrapped in closures that do not
        pickle.  :meth:`load_state` adopts it into another instance built
        with the same geometry.
        """
        return {name: getattr(self, name) for name in _STATE}

    def load_state(self, state: Dict[str, object]) -> None:
        """Adopt :meth:`export_state` output; arrays are written in place."""
        for name in _STATE:
            value = state[name]
            if isinstance(value, np.ndarray):
                np.copyto(getattr(self, name), value)
            else:
                setattr(self, name, value)

    # ------------------------------------------------------------------ #
    # Aggregated metrics
    # ------------------------------------------------------------------ #
    def reset_counters(self) -> None:
        """Zero every measurement counter (architectural state is preserved)."""
        #: Per channel, transfers served by ``kind * 3 + outcome``.
        self.tally: List[List[int]] = [
            [0] * (_NUM_KINDS * len(_OUTCOMES)) for _ in range(self._channels)]
        #: Per channel, the demand reads' summed latency in bus cycles.
        self.demand_read_latency: List[float] = [0.0] * self._channels

    def channel_stats(self, channel: int) -> StatGroup:
        """One channel's counters as a :class:`StatGroup`, derived from its tally.

        Counts are ints, cycle sums floats.  Bus-busy and service cycles are
        exact products, because the timing parameters are whole cycles.
        """
        tally = self.tally[channel]
        by_kind = [sum(tally[3 * code:3 * code + 3])
                   for code in range(_NUM_KINDS)]
        hits, misses, conflicts = (sum(tally[outcome::3])
                                   for outcome in range(len(_OUTCOMES)))
        accesses = hits + misses + conflicts
        reads = sum(count for count, is_read in zip(by_kind, KIND_IS_READ)
                    if is_read)
        timing = self.timing
        first = 3 * _DEMAND_READ_CODE
        read_hits, read_misses, read_conflicts = tally[first:first + 3]
        group = StatGroup(f"mc{channel}")
        for key, value in (
                ("accesses", accesses),
                ("row_hits", hits),
                ("row_misses", misses),
                ("row_conflicts", conflicts),
                ("activations", misses + conflicts),
                ("reads", reads),
                ("writes", accesses - reads),
                ("demand_reads", by_kind[_DEMAND_READ_CODE]),
                ("bus_busy_cycles", float(accesses * timing.burst_cycles)),
                ("demand_read_latency_cycles",
                 self.demand_read_latency[channel]),
                ("demand_read_service_cycles", float(
                    read_hits * timing.row_hit_latency
                    + read_misses * timing.row_miss_latency
                    + read_conflicts * timing.row_conflict_latency))):
            group.set(key, value)
        for kind, count in zip(_KINDS_BY_CODE, by_kind):
            group.set(f"kind_{kind.value}", count)
        return group

    def aggregate_stats(self) -> StatGroup:
        """Merge the per-channel statistics into one group.

        Channels are merged in index order, so the float sums are added in
        a fixed sequence.
        """
        merged = StatGroup("dram")
        for channel in range(self._channels):
            merged.merge(self.channel_stats(channel))
        return merged

    def _bus_busy_cycles(self) -> List[float]:
        """Data-bus busy cycles per channel."""
        return [self.channel_stats(channel)["bus_busy_cycles"]
                for channel in range(self._channels)]

    @property
    def bandwidth_bound_cycles(self) -> float:
        """Bus cycles the busiest channel needs just to move all its data."""
        if not self._channels:
            return 0.0
        return max(self._bus_busy_cycles())

    @property
    def elapsed_cycles(self) -> float:
        """Cycle of the last completed transfer on the busiest channel."""
        if not self._channels:
            return 0.0
        return float(self.last_completion.max())

    def channel_utilization(self, total_bus_cycles: float) -> float:
        """Average fraction of data-bus cycles in use over ``total_bus_cycles``."""
        if total_bus_cycles <= 0 or not self._channels:
            return 0.0
        per_channel = [busy / total_bus_cycles
                       for busy in self._bus_busy_cycles()]
        return sum(per_channel) / len(per_channel)
