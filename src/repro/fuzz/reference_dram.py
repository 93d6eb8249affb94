"""A reference DRAM model: the memory layer's specification.

The simulator's memory system (:class:`repro.dram.flat.FlatMemorySystem`)
indexes each channel's queue with per-row buckets, a ready view and a
demand FIFO, records each bank's open row as a packed row-state key, and
fuses scheduling, bank timing and accounting into one loop.  This module
states what that loop must compute in the plainest form the rules have:

* every channel keeps one list of pending requests, oldest first, and each
  choice scans its first ``window`` entries:

  - ``frfcfs``: the oldest request whose row is open, else the oldest
    demand request, else the oldest request;
  - ``fcfs``: the oldest request;
  - ``bank_round_robin``: the next core in rotation, then that core's
    oldest open-row request among its first ``window``, else its oldest
    (see :meth:`ReferenceDRAM._choose`);

* under close-row pages a bank stays open after an access only when one of
  the first ``window`` requests still pending (in core order for round
  robin) targets the same row;
* every bank keeps its open row, the cycle it accepts the next column
  command and the cycle of its last activation;
* a channel serves ``window`` requests whenever twice that many are
  pending, and everything at :meth:`ReferenceDRAM.drain`.

The rules are the model's own, not textbook DDR3: tRRD spaces one bank's
own activations, and tFAW and tWTR are not modelled.  The module shares no
code with the engine -- it imports only the request-kind tables,
``PagePolicy`` and the address mapping -- so a bug in the buckets, the
open keys or the fused timing cannot hide in both.

:class:`DRAMShadow` runs the model beside a live
:class:`~repro.sim.system.ServerSystem` and compares the two states after
every memory-system call.  The fuzz oracle's ``dram`` check and the tests
use it.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.request import KIND_IS_DEMAND, KIND_IS_READ, DRAMRequestKind
from repro.dram.address_mapping import (
    make_block_interleaving,
    make_region_interleaving,
)
from repro.dram.flat import PagePolicy

__all__ = [
    "DRAMShadow",
    "ReferenceDRAM",
    "engine_state",
    "first_difference",
]

#: Integer counters of a channel, in the order the state lists them.
COUNTERS = ("accesses", "row_hits", "row_misses", "row_conflicts",
            "activations", "reads", "writes", "demand_reads")
#: Float accumulators of a channel, in the order the state lists them.
LATENCIES = ("bus_busy_cycles", "demand_read_latency_cycles",
             "demand_read_service_cycles")

_DEMAND_READ = DRAMRequestKind.DEMAND_READ.code


class _Request:
    __slots__ = ("kind", "arrival", "core", "bank", "row")

    def __init__(self, kind: int, arrival: float, core: int, bank: int,
                 row: int) -> None:
        self.kind = kind
        self.arrival = arrival
        self.core = core
        #: Bank index within the channel: ``rank * banks_per_rank + bank``.
        self.bank = bank
        self.row = row


class _Bank:
    __slots__ = ("open_row", "ready", "last_activate")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.ready = 0.0
        self.last_activate = -1.0e18


class _Channel:
    def __init__(self, num_banks: int) -> None:
        self.banks = [_Bank() for _ in range(num_banks)]
        #: Pending requests, oldest first.
        self.pending: List[_Request] = []
        self.bus_free = 0.0
        self.last_completion = 0.0
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.latencies = dict.fromkeys(LATENCIES, 0.0)
        self.kind_counts = [0] * len(DRAMRequestKind)
        #: Round robin: the cores with pending requests, in the order each
        #: got its first one since it last had none.
        self.cores: List[int] = []
        #: Round robin: the core list the cursor last rotated over.
        self.rotation: List[int] = []
        self.rotation_index = 0


def _values(column, cast) -> list:
    """A batch column (list or NumPy array) as a list of Python scalars."""
    tolist = getattr(column, "tolist", None)
    return [cast(value) for value in (tolist() if tolist else column)]


class ReferenceDRAM:
    """Every channel of the memory system, one request at a time."""

    def __init__(self, timing, org, mapping,
                 page_policy: PagePolicy = PagePolicy.OPEN,
                 window: int = 64, scheduler: str = "frfcfs") -> None:
        if scheduler not in ("frfcfs", "fcfs", "bank_round_robin"):
            raise ValueError(f"unknown scheduler {scheduler!r}")
        self.timing = timing
        self.mapping = mapping
        self.window = window
        self.scheduler = scheduler
        self.close_rows = page_policy is PagePolicy.CLOSE
        self.banks_per_rank = org.banks_per_rank
        self.channels = [
            _Channel(org.ranks_per_channel * org.banks_per_rank)
            for _ in range(org.channels)
        ]

    # ------------------------------------------------------------------ #
    # The three calls the simulator makes
    # ------------------------------------------------------------------ #
    def enqueue_block_batch(self, block_addresses, kind_codes,
                            arrival_cycles, cores) -> None:
        """Queue each transfer in order, serving as the queues fill."""
        round_robin = self.scheduler == "bank_round_robin"
        for block, kind, arrival, core in zip(
                _values(block_addresses, int), _values(kind_codes, int),
                _values(arrival_cycles, float), _values(cores, int)):
            coords = self.mapping.map(block)
            channel = self.channels[coords.channel]
            if round_robin and core not in channel.cores:
                channel.cores.append(core)
            channel.pending.append(_Request(
                kind, arrival, core,
                coords.rank * self.banks_per_rank + coords.bank, coords.row))
            if len(channel.pending) >= 2 * self.window:
                self._serve(channel, self.window)

    def drain(self) -> None:
        """Serve everything pending on every channel."""
        for channel in self.channels:
            self._serve(channel, len(channel.pending))

    def reset_counters(self) -> None:
        """Zero the counters; queues and banks keep their state."""
        for channel in self.channels:
            channel.counts = dict.fromkeys(COUNTERS, 0)
            channel.latencies = dict.fromkeys(LATENCIES, 0.0)
            channel.kind_counts = [0] * len(DRAMRequestKind)

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def _serve(self, channel: _Channel, count: int) -> None:
        for _ in range(count):
            if not channel.pending:
                return
            request = channel.pending.pop(self._choose(channel))
            if (request.core in channel.cores
                    and not any(other.core == request.core
                                for other in channel.pending)):
                channel.cores.remove(request.core)
            close = self.close_rows and not self._row_wanted(channel, request)
            self._access(channel, request, close)

    def _is_open(self, channel: _Channel, request: _Request) -> bool:
        return channel.banks[request.bank].open_row == request.row

    def _choose(self, channel: _Channel) -> int:
        """Index in ``channel.pending`` of the request to serve next.

        Round robin rotates a cursor over the cores with pending requests.
        When that list differs from the one the cursor last rotated over,
        the cursor keeps its position modulo the new length.
        """
        window = channel.pending[:self.window]
        if self.scheduler == "fcfs":
            return 0
        if self.scheduler == "frfcfs":
            for index, request in enumerate(window):
                if self._is_open(channel, request):
                    return index
            for index, request in enumerate(window):
                if KIND_IS_DEMAND[request.kind]:
                    return index
            return 0
        cores = list(channel.cores)
        if channel.rotation != cores:
            channel.rotation = cores
            channel.rotation_index %= len(cores)
        core = channel.rotation[channel.rotation_index]
        channel.rotation_index = (channel.rotation_index + 1) % len(cores)
        mine = [index for index, request in enumerate(channel.pending)
                if request.core == core][:self.window]
        for index in mine:
            if self._is_open(channel, channel.pending[index]):
                return index
        return mine[0]

    def _row_wanted(self, channel: _Channel, served: _Request) -> bool:
        """Whether a request the scheduler can see targets ``served``'s row."""
        visible = channel.pending
        if self.scheduler == "bank_round_robin":
            # Core by core, in bucket order; a stable sort keeps each
            # core's requests oldest first.
            order = {core: index for index, core in enumerate(channel.cores)}
            visible = sorted(visible, key=lambda request: order[request.core])
        return any(request.bank == served.bank and request.row == served.row
                   for request in visible[:self.window])

    # ------------------------------------------------------------------ #
    # Bank timing and accounting
    # ------------------------------------------------------------------ #
    def _access(self, channel: _Channel, request: _Request,
                close: bool) -> None:
        timing = self.timing
        bank = channel.banks[request.bank]
        counts = channel.counts
        start = max(request.arrival, bank.ready)
        if bank.open_row == request.row:
            outcome = "row_hits"
            issue = start
        elif bank.open_row is None:
            outcome = "row_misses"
            activate = max(start, bank.last_activate + timing.tRRD)
            issue = activate + timing.tRCD
            bank.last_activate = activate
        else:
            # The open row closes no earlier than tRAS after its activation,
            # and the next activation waits tRP for the precharge and tRC
            # after the previous activation.
            outcome = "row_conflicts"
            precharge = max(start, bank.last_activate + timing.tRAS)
            activate = max(precharge + timing.tRP,
                           bank.last_activate + timing.tRC)
            issue = activate + timing.tRCD
            bank.last_activate = activate
        data_ready = issue + timing.tCAS
        is_read = KIND_IS_READ[request.kind]
        if close:
            recovery = timing.tRTP if is_read else timing.tWR
            bank.open_row = None
            bank.ready = data_ready + timing.burst_cycles + recovery + timing.tRP
        else:
            bank.open_row = request.row
            bank.ready = issue + timing.burst_cycles

        completion = max(data_ready, channel.bus_free) + timing.burst_cycles
        channel.bus_free = completion
        channel.last_completion = max(channel.last_completion, completion)

        counts["accesses"] += 1
        counts[outcome] += 1
        if outcome != "row_hits":
            counts["activations"] += 1
        counts["reads" if is_read else "writes"] += 1
        channel.kind_counts[request.kind] += 1
        latencies = channel.latencies
        latencies["bus_busy_cycles"] += timing.burst_cycles
        if request.kind == _DEMAND_READ:
            counts["demand_reads"] += 1
            latencies["demand_read_latency_cycles"] += (
                completion - request.arrival)
            latencies["demand_read_service_cycles"] += {
                "row_hits": timing.row_hit_latency,
                "row_misses": timing.row_miss_latency,
                "row_conflicts": timing.row_conflict_latency,
            }[outcome]

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    def state(self) -> List[tuple]:
        """Per channel, the state :func:`engine_state` reads from an engine."""
        return [
            (tuple(channel.counts[key] for key in COUNTERS),
             tuple(channel.latencies[key] for key in LATENCIES),
             tuple(channel.kind_counts),
             channel.bus_free, channel.last_completion, len(channel.pending),
             tuple((-1 if bank.open_row is None else bank.open_row,
                    bank.ready, bank.last_activate)
                   for bank in channel.banks))
            for channel in self.channels
        ]


def engine_state(memory) -> List[tuple]:
    """A :class:`~repro.dram.flat.FlatMemorySystem`'s state, per channel.

    Each channel is ``(counters, latencies, kind counts, bus-free cycle,
    last completion, pending count, banks)``; each bank is ``(open row or
    -1, ready cycle, last activation)``.  The engine counts each transfer
    once, by kind and row outcome, so its counters, latencies and kind
    counts are read through :meth:`~repro.dram.flat.FlatMemorySystem.
    channel_stats`, the derivation every result reads, and it records each
    open row once, as a key, so the rows are read through
    :meth:`~repro.dram.flat.FlatMemorySystem.open_rows`.
    """
    return [
        (tuple(stats[key] for key in COUNTERS),
         tuple(stats[key] for key in LATENCIES),
         tuple(stats[f"kind_{kind.value}"] for kind in DRAMRequestKind),
         memory.bus_free[channel],
         memory.last_completion[channel],
         memory.pending_count(channel),
         tuple(zip(memory.open_rows(channel),
                   memory.bank_ready[channel],
                   memory.last_activate[channel])))
        for channel, stats in enumerate(
            map(memory.channel_stats, range(len(memory.bus_free))))
    ]


_CHANNEL_FIELDS = ("counters", "latencies", "kind counts", "bus-free cycle",
                   "last completion", "pending")
_BANK_FIELDS = ("open row", "ready cycle", "last activation")


def first_difference(got: List[tuple], want: List[tuple]) -> Optional[str]:
    """The first field where two states differ, named; ``None`` if equal."""
    for channel, (mine, theirs) in enumerate(zip(got, want)):
        for name, left, right in zip(_CHANNEL_FIELDS, mine, theirs):
            if left != right:
                return f"channel {channel} {name}: {left}, reference {right}"
        for bank, (left, right) in enumerate(zip(mine[-1], theirs[-1])):
            for name, a, b in zip(_BANK_FIELDS, left, right):
                if a != b:
                    return (f"channel {channel} bank {bank} {name}: {a}, "
                            f"reference {b}")
    return None


class DRAMShadow:
    """Run the reference DRAM beside a system's memory system.

    Wraps ``enqueue_block_batch``, ``drain`` and ``reset_counters`` on the
    system's memory-system instance, so the system runs exactly as it would
    unshadowed.  Every call is repeated on a :class:`ReferenceDRAM` built
    from the system's configuration, and the two states are compared in
    full after it.  The first mismatch is kept in :attr:`mismatch` and
    checking stops there.

    Attach to a freshly built system, and keep the run below
    :data:`repro.sim.pipeline.ENGAGE_ACCESSES`: a pipelined run serves DRAM
    in a forked helper the shadow cannot see, so a state handed back from
    one is reported as a mismatch instead of passing unchecked.
    """

    _CALLS = ("enqueue_block_batch", "drain", "reset_counters")

    def __init__(self, system) -> None:
        config = system.config
        params = config.system
        org = params.dram_org
        interleave = (make_block_interleaving if config.interleaving == "block"
                      else make_region_interleaving)
        self.reference = ReferenceDRAM(
            params.dram_timing, org, interleave(org, org.row_buffer_bytes),
            config.page_policy, window=org.transaction_queue_entries,
            scheduler=config.scheduler)
        #: Calls compared so far.
        self.calls = 0
        #: Description of the first mismatching call, or ``None``.
        self.mismatch: Optional[str] = None
        memory = system.memory
        for name in self._CALLS:
            self._wrap(memory, name)
        load_state = memory.load_state

        def load(state):
            if self.mismatch is None:
                self._diverged("load_state: the memory state was replaced "
                               "from outside the shadow")
            return load_state(state)

        memory.load_state = load

    def _diverged(self, description: str) -> None:
        self.mismatch = f"call {self.calls}: {description}"

    def _wrap(self, memory, name: str) -> None:
        real = getattr(memory, name)
        reference = getattr(self.reference, name)

        def call(*args, **kwargs):
            result = real(*args, **kwargs)
            if self.mismatch is None:
                self.calls += 1
                reference(*args, **kwargs)
                problem = first_difference(engine_state(memory),
                                           self.reference.state())
                if problem is not None:
                    self._diverged(f"DRAM {name}: {problem}")
            return result

        setattr(memory, name, call)

