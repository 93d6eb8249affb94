"""The DDR3 memory system: every channel, plain lists, batched intake.

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

The per-transfer cost is a handful of scalar operations over plain Python
lists.  Three structural choices carry it:

1. **Batched intake.**  ``enqueue_block_batch`` accepts whole per-chunk
   arrays of (block address, kind code, arrival cycle, core) rows.  Channel
   routing and the decode to rank/bank/row plus a packed row-state key
   ``(row << 12) | (rank << 6) | bank`` run as a few NumPy vector
   operations over the batch.  Each channel then absorbs its rows in order
   and serves a window's worth whenever twice the window is pending, so the
   serve order does not depend on where batches begin and end.

2. **One queue list, indexed by row.**  Each channel's transaction queue is
   one list of entry tuples, oldest first, beside the list of their arrival
   sequence numbers; every pick removes index ``i`` from both, and the
   queue never holds more than twice the window.  Most picks are not the
   front: FR-FCFS serves open-row hits and demand requests past older
   prefetch, bulk and eager requests, which collect at the head.  On top of
   the queue sit per-row FIFO buckets of seqs, a ready view holding exactly
   the buckets whose row is open, and a FIFO of demand seqs, so the FR-FCFS
   choice inspects a handful of buckets instead of the window and finds the
   chosen entry by ``bisect``.  Round robin adds one list of entries per
   core.

3. **One record per fact, one tally.**  Each bank's open row is recorded
   once, as its open row-state key (``None`` while precharged), so a row hit
   is ``open_key[bank] == key``.  Bank ready/activate timestamps and
   per-channel bus/completion cycles are plain lists kept between drains.
   The serve loop counts each served transfer once, in its channel's
   ``tally`` (a plain list indexed ``kind * 3 + outcome``, the outcome
   being a row hit, miss or conflict), and adds each demand read's latency
   to one sum.

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

#: Mutable state of a :class:`FlatMemorySystem`, every entry a plain list
#: indexed by channel: the bank and bus state, the counts, then the queues,
#: their sequence counters, the row buckets, the open keys and the
#: round-robin state.
_STATE = ("bank_ready", "last_activate", "bus_free", "last_completion",
          "tally", "demand_read_latency", "_pending", "_seqs", "_next_seq",
          "_by_key", "_ready", "_demand", "_open_key_of_bank",
          "_core_buckets", "_rotation", "_rotation_index")

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
        num_banks = org.ranks_per_channel * org.banks_per_rank

        # Decode geometry (one shift/mask pipeline, vectorized per batch).
        self._cl_bits = mapping.column_low_bits
        self._ch_bits = mapping.channel_bits
        self._bank_bits = mapping.bank_bits
        self._rank_bits = mapping.rank_bits
        self._chigh_bits = mapping.column_high_bits
        self._channel_mask = channels - 1

        # ---------------- bank and bus state ---------------------------- #
        #: Earliest bus cycle each bank accepts the next column command.
        self.bank_ready = [[0.0] * num_banks for _ in range(channels)]
        #: Cycle of each bank's last activation (tRRD/tRAS/tRC spacing).
        self.last_activate = [[-1.0e18] * num_banks for _ in range(channels)]
        #: Cycle at which each channel's shared data bus becomes free.
        self.bus_free = [0.0] * channels
        #: Cycle of the last completed transfer per channel.
        self.last_completion = [0.0] * channels
        self.reset_counters()

        # ---------------- per-channel queues ---------------------------- #
        # Parallel entry/seq lists, oldest first.
        self._pending: List[list] = [[] for _ in range(channels)]
        self._seqs: List[list] = [[] for _ in range(channels)]
        self._next_seq = [0] * channels
        #: row-state key -> FIFO list of its pending seqs.
        self._by_key: List[dict] = [{} for _ in range(channels)]
        #: Subset of ``_by_key`` whose row is currently open.
        self._ready: List[dict] = [{} for _ in range(channels)]
        #: FIFO of demand (latency-critical) seqs per channel.
        self._demand: List[deque] = [deque() for _ in range(channels)]
        #: Open row-state key per (channel, bank); ``None`` = precharged.  A
        #: key names its bank and row, so ``okob[fbank] == key`` is "key's
        #: row is open"; this is the only record of the open rows.
        self._open_key_of_bank: List[list] = [
            [None] * num_banks for _ in range(channels)
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
            key_vec = key_vec[order]
            demand_vec = demand_vec[order]
            if round_robin:
                issuers = issuers[order]
        cores_c = issuers.tolist() if round_robin else None
        kinds_c = kinds.tolist()
        arrivals_c = arrivals.tolist()
        fbank_c = fbank_vec.tolist()
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
                entry = (seq, kinds_c[i], arrivals_c[i], fbank, key, is_demand)
                pending_append(entry)
                seqs_append(seq)
                if core_buckets is not None:
                    core_buckets.setdefault(cores_c[i], []).append(entry)
                bucket = by_key_get(key)
                if bucket is None:
                    bucket = by_key[key] = [seq]
                    if okob[fbank] == key:
                        ready[key] = bucket
                else:
                    bucket.append(seq)
                if is_demand:
                    demand_append(seq)
                seq += 1
                if len(pending) >= threshold:
                    self._next_seq[ci] = seq
                    self._drain_channel(ci, window)
            self._next_seq[ci] = seq

    # ------------------------------------------------------------------ #
    # Scheduling and serving
    # ------------------------------------------------------------------ #
    def _drain_channel(self, ci: int, count: int) -> None:
        """Serve up to ``count`` requests on channel ``ci``.

        One fused loop covers the scheduler's choice, the close-row check,
        bank timing and the count: one tally cell per served transfer, plus
        the latency sum for a demand read.  FR-FCFS chooses from the
        bucket scheme inline; round robin delegates its choice and its
        close-row check to :meth:`_round_robin_pick` and
        :meth:`_round_robin_wants`.
        """
        pending = self._pending[ci]
        seqs = self._seqs[ci]
        by_key = self._by_key[ci]
        ready = self._ready[ci]
        demand = self._demand[ci]
        okob = self._open_key_of_bank[ci]
        bank_ready = self.bank_ready[ci]
        last_activate = self.last_activate[ci]
        bus_free = self.bus_free[ci]
        last_completion = self.last_completion[ci]
        tally = self.tally[ci]
        dr_latency = self.demand_read_latency[ci]
        window = self.window
        close_policy = self._close_policy
        frfcfs = self._frfcfs
        round_robin = self._round_robin

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
            if not pending:
                break
            if frfcfs:
                # ---- FR-FCFS choice: oldest row hit in the window, else the
                # oldest demand in the window, else the oldest request.  Seqs
                # are sorted and duplicate-free, so window membership of a
                # seq reduces to ``seq <= fence``; no two buckets share a
                # seq, so ``min`` over the ready buckets, which compares
                # their first seqs, finds the oldest row hit.
                fence = seqs[window - 1] if window < len(seqs) else seqs[-1]
                best = min(ready.values())[0] if ready else fence + 1
                if best <= fence:
                    chosen = bisect_left(seqs, best)
                elif demand and demand[0] <= fence:
                    chosen = bisect_left(seqs, demand[0])
                else:
                    chosen = 0
            elif round_robin:
                chosen = bisect_left(seqs, self._round_robin_pick(ci, okob))
            else:
                chosen = 0
            seq, kind, arrival, fbank, key, is_demand = pending.pop(chosen)
            del seqs[chosen]

            # ---- retire from its bucket and the demand FIFO.
            bucket = by_key[key]
            if len(bucket) == 1:
                del by_key[key]
                ready.pop(key, None)
            elif bucket[0] == seq:
                del bucket[0]
            else:
                bucket.remove(seq)
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
                    close_after = other is None or other[0] > (
                        seqs[window - 1] if window < len(seqs) else seqs[-1])

            # ---- bank timing.
            bready = bank_ready[fbank]
            start = arrival if arrival > bready else bready
            old_key = okob[fbank]
            if old_key == key:
                outcome = 0
                issue = start
            elif old_key is None:
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
                bank_ready[fbank] = data_ready + burst + recovery + tRP
                new_key = None
            else:
                bank_ready[fbank] = issue + burst
                new_key = key

            # ---- open-key maintenance.
            if new_key != old_key:
                ready.pop(old_key, None)
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
            if okob[entry[3]] == entry[4]:
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
                if entry[4] == key:
                    return True
        return False

    def drain(self) -> None:
        """Complete all outstanding transfers on every channel."""
        for ci in range(self._channels):
            self._drain_channel(ci, len(self._pending[ci]))

    def pending_count(self, channel: Optional[int] = None) -> int:
        """Queued-but-unserved transfers on ``channel``, or on all channels."""
        if channel is not None:
            return len(self._pending[channel])
        return sum(map(len, self._pending))

    def open_rows(self, channel: int) -> List[int]:
        """Each bank's open row on ``channel``, -1 where it is precharged."""
        return [-1 if key is None else key >> 12
                for key in self._open_key_of_bank[channel]]

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

        Plain lists, dicts and deques -- never the object itself, whose
        methods a caller may have wrapped in closures that do not pickle.
        Pickle the dict in one call, so that each ready-view bucket stays
        the same list as its row bucket.  :meth:`load_state` adopts it into
        another instance built with the same geometry.
        """
        return {name: getattr(self, name) for name in _STATE}

    def load_state(self, state: Dict[str, object]) -> None:
        """Adopt :meth:`export_state` output."""
        for name in _STATE:
            setattr(self, name, state[name])

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
        """Data-bus busy cycles per channel: one burst per served transfer."""
        burst = self.timing.burst_cycles
        return [float(sum(tally) * burst) for tally in self.tally]

    @property
    def bandwidth_bound_cycles(self) -> float:
        """Bus cycles the busiest channel needs just to move all its data."""
        return max(self._bus_busy_cycles())

    @property
    def elapsed_cycles(self) -> float:
        """Cycle of the last completed transfer on the busiest channel."""
        return max(self.last_completion)

    def channel_utilization(self, total_bus_cycles: float) -> float:
        """Average fraction of data-bus cycles in use over ``total_bus_cycles``."""
        if total_bus_cycles <= 0:
            return 0.0
        per_channel = [busy / total_bus_cycles
                       for busy in self._bus_busy_cycles()]
        return sum(per_channel) / len(per_channel)
