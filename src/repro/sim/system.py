"""The full simulated server: cores' L1s, shared LLC, agents, NOC and DRAM.

:class:`ServerSystem` is the trace interpreter.  For every processor access
it walks the hierarchy the same way hardware would:

1. the access probes the issuing core's L1; hits stop there, dirty L1 victims
   are forwarded to the LLC;
2. an L1 miss becomes a demand LLC request (carrying the PC when the
   configuration requires it); every attached agent (stride, SMS, VWQ, BuMP,
   Full-region, density profiler) observes the access;
3. an LLC miss becomes a demand DRAM read and the block is filled; every
   agent observes the miss and may request additional fetches (prefetches /
   bulk reads), which are filled into the LLC as *prefetched* blocks;
4. LLC evictions are observed by the agents as the victim's block and flag
   byte (BuMP terminates region tracking here and may stream bulk
   writebacks); dirty victims become demand DRAM writes; eager/bulk
   writebacks clean resident dirty blocks and become DRAM writes attributed
   to the mechanism that generated them;
5. every DRAM transfer is timestamped with the core-time at which it was
   generated, tagged with the core it was issued for, and handed to the
   memory controllers (FR-FCFS in every system of the paper).

At the end of a run the system assembles a :class:`SimulationResult` with the
traffic decomposition, row-buffer statistics, timing summary and energy
breakdown the experiments consume.

The LLC (:class:`~repro.cache.flat.CacheArray`, ``ServerSystem.llc``) and
the NOC count nothing: this module counts each LLC event once, and
:func:`llc_stats` and :func:`noc_stats` derive ``result.llc`` and
``result.noc`` from those counts.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from repro.cache.agent import FLAG_DIRTY, FLAG_PREFETCHED, FLAG_USED, LLCAgent
from repro.cache.flat import CacheArray
from repro.cache.l1 import StackedL1
from repro.common.addressing import BLOCK_BITS
from repro.common.request import DRAMRequestKind
from repro.common.stats import StatGroup, fold_pending
from repro.core.bump import BuMPPredictor
from repro.core.fullregion import FullRegionStreamer
from repro.dram.address_mapping import make_block_interleaving, make_region_interleaving
from repro.dram.flat import FlatMemorySystem
from repro.energy.accounting import ServerEnergyModel
from repro.noc.crossbar import traffic_stats, utilization
from repro.prefetch.sms import SpatialMemoryStreaming
from repro.prefetch.stride import StridePrefetcher
from repro.sim.config import SystemConfig
from repro.sim.results import SimulationResult
from repro.sim.timing import TimingModel
from repro.telemetry.recorder import resolve_telemetry
from repro.trace.buffer import TraceBuffer
from repro.workloads.density import RegionDensityProfiler


#: System counters hoisted to plain instance ints on the hot path and folded
#: into the ``counters`` StatGroup once per chunk.
_HOT_COUNTERS = (
    ("_h_l1_writebacks", "l1_writebacks"),
    ("_h_llc_hits", "llc_hits"),
    ("_h_llc_load_hits", "llc_load_hits"),
    ("_h_covered_reads", "covered_reads"),
    ("_h_covered_loads", "covered_loads"),
    ("_h_llc_misses", "llc_misses"),
    ("_h_load_triggered_reads", "load_triggered_reads"),
    ("_h_llc_evictions", "llc_evictions"),
    ("_h_demand_writebacks", "demand_writebacks"),
    ("_h_overfetch_evictions", "overfetch_evictions"),
    ("_h_bulk_reads", "bulk_reads"),
    ("_h_prefetch_reads", "prefetch_reads"),
    ("_h_bulk_writebacks", "bulk_writebacks"),
    ("_h_eager_writebacks", "eager_writebacks"),
)

#: DRAM request-kind codes, hoisted for the staged DRAM issue sites.
_DEMAND_READ_CODE = DRAMRequestKind.DEMAND_READ.code
_DEMAND_WRITEBACK_CODE = DRAMRequestKind.DEMAND_WRITEBACK.code

#: Exclusive upper bound on trace addresses and PCs: the chunk decode shifts
#: block numbers back into byte addresses, and the L1 stage keeps PCs, in
#: ``int64``, which wraps at ``2**63``.
_COLUMN_LIMIT = np.uint64(1 << 63)

#: L1 misses per slice of the chunk loop's second stage, whose Python lists
#: are built a slice at a time so their memory does not grow with the chunk.
_MISS_SLICE = 8192


def llc_stats(counters: StatGroup, l1_writeback_fills: int,
              writeback_probes: int) -> StatGroup:
    """The LLC view of a result (``result.llc``), derived from the system's counts.

    ``l1_writeback_fills`` counts the L1 writebacks that allocated in the
    LLC and ``writeback_probes`` the blocks eager or bulk writebacks probed.
    ``traffic_ops`` approximates LLC port use (Figure 12): demand lookups,
    fills, L1 writebacks and writeback probes each take a slot.  A key
    appears only once its value is non-zero.
    """
    hits = counters["llc_hits"]
    misses = counters["llc_misses"]
    demand_fills = misses + l1_writeback_fills
    prefetch_fills = counters["prefetch_reads"] + counters["bulk_reads"]
    fills = demand_fills + prefetch_fills
    overfetched = counters["overfetch_evictions"]
    evictions = counters["llc_evictions"]
    dirty_evictions = counters["demand_writebacks"]
    # Twice the true counts, as the results pinned in perfbench/pins.json
    # report them; ROADMAP item 4 drops this line and regenerates the pins.
    evictions, dirty_evictions = 2 * evictions, 2 * dirty_evictions
    view = {
        "hits": hits,
        "demand_hits": hits,
        "misses": misses,
        "demand_misses": misses,
        "demand_fills": demand_fills,
        "prefetch_fills": prefetch_fills,
        "fills": fills,
        "traffic_ops": (hits + misses + fills + counters["l1_writebacks"]
                        + writeback_probes),
        "overfetched_blocks": overfetched,
        "unused_prefetch_evictions": overfetched,
        "prefetch_hits": counters["covered_reads"],
        "eager_cleaned_blocks": (counters["eager_writebacks"]
                                 + counters["bulk_writebacks"]),
        "evictions": evictions,
        "dirty_evictions": dirty_evictions,
    }
    stats = StatGroup("llc")
    for key, value in view.items():
        if value:
            stats.set(key, float(value))
    return stats


def noc_stats(counters: StatGroup, writeback_probes: int, carries_pc: bool,
              notifies: bool) -> StatGroup:
    """The NOC view of a result (``result.noc``), derived from the system's counts.

    Each LLC demand access is a request (with the PC when ``carries_pc``)
    and, when ``notifies`` (agents are attached), an agent notification;
    each block an agent fetched or probed is a generated request; each
    block moved (L1 writeback, hit, fill, dirty victim, agent fetch or
    clean) is a data message.
    """
    def count(*keys: str) -> int:
        return int(sum(counters[key] for key in keys))

    demand = count("llc_hits", "llc_misses")
    return traffic_stats({
        "request": 0 if carries_pc else demand,
        "request_with_pc": demand if carries_pc else 0,
        "data": count("l1_writebacks", "llc_hits", "llc_misses",
                      "demand_writebacks", "prefetch_reads", "bulk_reads",
                      "eager_writebacks", "bulk_writebacks"),
        "predictor_notify": demand if notifies else 0,
        "generated_request": (count("prefetch_reads", "bulk_reads")
                              + writeback_probes),
    })


class ServerSystem:
    """One configured instance of the simulated 16-core server."""

    def __init__(self, config: SystemConfig, workload_name: str = "workload",
                 telemetry=None) -> None:
        self.config = config
        self.workload_name = workload_name
        #: Observability recorder (``None`` when telemetry is off -- the
        #: run loop tests this once per chunk and otherwise executes the
        #: exact pre-telemetry code path).  Resolution: explicit argument >
        #: ``REPRO_TELEMETRY`` environment variable > off.
        self.telemetry = resolve_telemetry(telemetry)
        params = config.system

        #: The shared LLC, which counts nothing (see :func:`llc_stats`).
        #: Built first: it refuses a core count its line words cannot hold.
        self.llc = CacheArray(params.llc, params.num_cores)
        #: Every core's L1, run a chunk at a time.
        self.l1 = StackedL1(params.l1d, params.num_cores)
        for attr, _key in _HOT_COUNTERS:
            setattr(self, attr, 0)
        #: The two LLC counts kept out of ``counters`` (whose keys every
        #: result fingerprint covers), for :func:`llc_stats` and
        #: :func:`noc_stats`.
        self._l1_writeback_fills = 0
        self._writeback_probes = 0

        if config.interleaving == "block":
            mapping = make_block_interleaving(params.dram_org,
                                              params.dram_org.row_buffer_bytes)
        elif config.interleaving == "region":
            mapping = make_region_interleaving(params.dram_org,
                                               params.dram_org.row_buffer_bytes)
        else:
            raise ValueError(f"unknown interleaving scheme {config.interleaving!r}")
        self.memory = FlatMemorySystem(
            params.dram_timing, params.dram_org, mapping, config.page_policy,
            window=params.dram_org.transaction_queue_entries,
            scheduler=config.scheduler,
        )
        # Staged DRAM transfers: the hot paths append (block, kind code,
        # arrival, issuing core) scalars here and ``_flush_dram`` hands the
        # memory system the whole batch after every miss slice.
        self._dram_blocks: list = []
        self._dram_kinds: list = []
        self._dram_arrivals: list = []
        self._dram_cores: list = []
        #: The forked DRAM stage serving ``memory`` while a pipelined run
        #: holds it (see :mod:`repro.sim.pipeline`); ``None`` otherwise.
        self._dram_stage = None

        self.agents: List[LLCAgent] = []
        self.bump: Optional[BuMPPredictor] = None
        self.profiler: Optional[RegionDensityProfiler] = None
        self._build_agents()
        #: The agents' action sink (see :mod:`repro.cache.agent`): hooks
        #: append block addresses here, and the LLC event whose hooks
        #: appended them takes and applies them before it returns, so both
        #: lists are empty between events.
        self._fetches: List[int] = []
        self._writebacks: List[int] = []
        self._refresh_agent_hooks()

        self.counters = StatGroup("system")
        if config.timing_model == "analytic":
            self.timing = TimingModel(params)
        elif config.timing_model == "interval":
            from repro.cpu.interval import IntervalTimingModel

            self.timing = IntervalTimingModel(params)
        else:
            raise ValueError(f"unknown timing model {config.timing_model!r}")
        self.energy_model = ServerEnergyModel(params)
        self._core_cycle = 0.0
        #: Bus-cycle arrival timestamp of the access being processed
        #: (maintained by the chunk loop for the staged DRAM issue sites).
        self._arrival_bus = 0.0
        self._instructions = 0.0
        self._bus_ratio = params.core_cycles_per_dram_cycle
        self._measurement_start_core_cycle = 0.0
        self._measurement_start_bus_cycle = 0.0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _build_agents(self) -> None:
        config = self.config
        if config.use_stride:
            self.agents.append(StridePrefetcher())
        if config.use_nextline:
            from repro.prefetch.nextline import NextLinePrefetcher

            self.agents.append(NextLinePrefetcher())
        if config.use_stealth:
            from repro.prefetch.stealth import StealthPrefetcher

            self.agents.append(StealthPrefetcher())
        if config.use_sms:
            self.agents.append(SpatialMemoryStreaming())
        if config.use_vwq:
            from repro.writeback.vwq import VirtualWriteQueue

            self.agents.append(VirtualWriteQueue())
        if config.use_eager_writeback:
            from repro.writeback.eager import EagerWriteback

            self.agents.append(EagerWriteback())
        if config.use_bump:
            self.bump = BuMPPredictor(config.bump)
            self.agents.append(self.bump)
        if config.use_full_region:
            self.agents.append(FullRegionStreamer(config.bump))
        if config.attach_profiler or config.ideal_row_locality:
            self.profiler = RegionDensityProfiler(config.bump.region_size_bytes)
            self.agents.append(self.profiler)

    def _refresh_agent_hooks(self) -> None:
        """Bind the action sink to every agent and list each hook's callees.

        Runs at construction and at the start of every run, so agents
        attached after construction (``run_trace``'s ``extra_agents``) are
        bound to *this* system's sink.  A hook an agent leaves at the
        base-class no-op is never called.  Hooks are taken from the
        instance, so instance-level wrappers installed before a run
        (profilers, tracers) are the ones called.
        """
        agents = self.agents
        for agent in agents:
            agent.bind_sink(self._fetches, self._writebacks)
        self._access_hooks = [
            agent.on_access for agent in agents
            if type(agent).on_access is not LLCAgent.on_access
        ]
        self._miss_hooks = [
            agent.on_miss for agent in agents
            if type(agent).on_miss is not LLCAgent.on_miss
        ]
        self._eviction_hooks = [
            agent.on_eviction for agent in agents
            if type(agent).on_eviction is not LLCAgent.on_eviction
        ]

    # ------------------------------------------------------------------ #
    # Trace interpretation
    # ------------------------------------------------------------------ #
    def run(self, trace, warmup_accesses: int = 0) -> SimulationResult:
        """Run a trace to completion and return the collected measurements.

        ``trace`` may be a :class:`repro.trace.buffer.TraceBuffer`, an
        iterable of :class:`TraceBuffer` chunks (the streaming pipeline), a
        :class:`repro.scenario.spec.Scenario` (compiled to a chunk stream on
        the fly, at the compiler's default seed), or any
        :class:`repro.trace.source.TraceSource`; any other shape, or a chunk
        that is not a :class:`TraceBuffer`, raises ``TypeError``.  Every
        shape is interpreted through the same columnar chunk loop, so the
        result is identical regardless of how the trace arrives.

        ``warmup_accesses`` accesses are simulated first to warm the caches,
        the predictor tables and the DRAM row buffers (mirroring the paper's
        SMARTS-style warmed-checkpoint methodology); their events are then
        discarded and only the remainder of the trace is measured.

        Sources are single-use.  Once a run has pulled
        :data:`repro.sim.pipeline.ENGAGE_ACCESSES` accesses from its source
        it may move trace production and DRAM service into forked helper
        processes (:mod:`repro.sim.pipeline`); the source object the caller
        holds then stops advancing, because only its copy in the helper is
        pulled.  Results are identical either way.
        """
        # Imported lazily: repro.scenario sits above repro.sim in the layer
        # order, so a module-level import would be circular.  By the time a
        # Scenario instance reaches us its package is necessarily loaded.
        from repro.scenario.compiler import iter_scenario_chunks
        from repro.scenario.spec import Scenario
        from repro.trace.source import as_trace_source

        if isinstance(trace, Scenario):
            trace = iter_scenario_chunks(trace)
        source = as_trace_source(trace)
        recorder = self.telemetry
        if recorder is not None:
            recorder.on_run_start(self, self.workload_name)
        self._pull(source, warmup_accesses, recorder)
        if recorder is None:
            return self._collect_results()
        with recorder.span("result_assembly"):
            result = self._collect_results()
        recorder.on_run_end(self)
        return result

    def _pull(self, source, warmup_accesses: int, recorder) -> None:
        """The pull loop: service ``source`` chunk by chunk, then drain.

        Telemetry hooks fire only when ``recorder`` is set; the simulation
        call sequence is identical either way.

        Once :data:`repro.sim.pipeline.ENGAGE_ACCESSES` accesses have been
        pulled, the loop may fork the pipeline helpers: a read-ahead of
        ``source`` and the DRAM stage, which hands the memory state back
        before this method returns.
        """
        from repro.sim import pipeline as pipelining

        clock = time.perf_counter
        self._refresh_agent_hooks()
        processed = 0
        pulled = 0
        may_engage = True
        measuring = False
        pipe = None
        try:
            while True:
                if recorder is None:
                    chunk = source.next_chunk()
                else:
                    tick = clock()
                    chunk = source.next_chunk()
                    recorder.add_stage("chunk_generation", clock() - tick)
                if chunk is None:
                    break
                if not len(chunk):
                    continue
                pulled += len(chunk)
                if may_engage and pulled >= pipelining.ENGAGE_ACCESSES:
                    may_engage = False
                    pipe = self._start_pipeline(source, pulled, recorder)
                    if pipe is not None:
                        source = pipe.reader
                self._check_chunk(chunk, processed)
                if warmup_accesses and not measuring:
                    split = warmup_accesses - processed
                    if len(chunk) >= split:
                        # The measurement boundary falls in (or at the end
                        # of) this chunk: warm up on the head window, then
                        # measure whatever remains.
                        chunk = self._cross_warmup_boundary(
                            chunk, split, recorder, clock)
                        processed += split
                        measuring = True
                        if chunk is None:
                            continue
                if recorder is None:
                    self._run_chunk(chunk)
                else:
                    tick = clock()
                    self._run_chunk(chunk)
                    recorder.add_stage("chunk_service", clock() - tick)
                    recorder.on_chunk(self)
                processed += len(chunk)
            if warmup_accesses and processed < warmup_accesses:
                raise ValueError("trace shorter than the requested warmup interval")
            if recorder is None:
                self._drain_memory(pipe, None)
            else:
                with recorder.span("dram_drain"):
                    self._drain_memory(pipe, recorder)
        finally:
            self._dram_stage = None
            if pipe is not None:
                pipe.close()

    def _start_pipeline(self, source, pulled: int, recorder):
        """Fork the helpers that read ``source`` ahead and serve the memory.

        Returns the pipeline (see :mod:`repro.sim.pipeline`), or ``None``
        when the run stays in-process.
        """
        from repro.sim import pipeline

        pipe = pipeline.start_pipeline(source, self.memory,
                                       recorder is not None)
        if pipe is not None:
            self._dram_stage = pipe.dram
            if recorder is not None:
                recorder.on_pipeline_start(pulled, pipe)
        return pipe

    def _drain_memory(self, pipe, recorder) -> None:
        """Serve every outstanding transfer at the end of a run.

        A pipelined run then takes the memory state back from the DRAM
        stage and reports the waits.
        """
        self._flush_dram()
        self._dram_target().drain()
        if pipe is None:
            return
        marks = pipe.dram.finish(self.memory)
        self._dram_stage = None
        if recorder is not None:
            recorder.on_dram_marks(marks)
            seconds, calls = pipe.waited
            recorder.add_stage("pipeline_wait", seconds, calls)

    def _dram_target(self):
        """Where DRAM work goes: the DRAM stage while one runs, else ``memory``."""
        return self.memory if self._dram_stage is None else self._dram_stage

    def _check_chunk(self, chunk: TraceBuffer, first_row: int) -> None:
        """Reject a chunk whose rows this system cannot simulate.

        Cores must lie in ``[0, num_cores)``, instruction gaps must be
        non-negative and addresses and PCs must lie below ``2**63``.
        Otherwise a negative core silently runs as the core Python's
        negative indexing picks, an out-of-range core fails deep inside the
        chunk loop, a negative gap runs backwards in time, and an address or
        PC at or past ``2**63`` wraps to a negative value in the chunk
        loop's ``int64`` arithmetic.  ``first_row`` is the chunk's offset in
        the trace, so the error names the offending row of the whole trace.
        One vectorized pass per column.
        """
        num_cores = self.config.system.num_cores
        cores = chunk.core
        bad = (cores < 0) | (cores >= num_cores)
        if bad.any():
            row = int(np.argmax(bad))
            raise ValueError(
                f"trace row {first_row + row}: column 'core' is "
                f"{int(cores[row])}, outside [0, {num_cores})")
        instructions = chunk.instructions
        bad = instructions < 0
        if bad.any():
            row = int(np.argmax(bad))
            raise ValueError(
                f"trace row {first_row + row}: column 'instructions' is "
                f"{int(instructions[row])}, must be >= 0")
        for column in ("address", "pc"):
            values = getattr(chunk, column)
            bad = values >= _COLUMN_LIMIT
            if bad.any():
                row = int(np.argmax(bad))
                raise ValueError(
                    f"trace row {first_row + row}: column {column!r} is "
                    f"{int(values[row])}, must be < 2**63")

    def _cross_warmup_boundary(self, chunk, split: int, recorder,
                               clock) -> Optional[TraceBuffer]:
        """Service a chunk that crosses the warmup boundary at ``split``.

        Runs the warmup head, discards the warmup statistics
        (:meth:`begin_measurement`) and returns the yet-to-be-serviced tail
        (``None`` when the boundary coincides with the chunk end).  The one
        shared implementation of the split for every run mode -- telemetry
        hooks fire only when a recorder is attached, and the simulation call
        sequence is identical either way.
        """
        head = chunk if split == len(chunk) else chunk[:split]
        if recorder is None:
            self._run_chunk(head)
        else:
            tick = clock()
            self._run_chunk(head)
            recorder.add_stage("chunk_service", clock() - tick)
            recorder.on_chunk(self)
        self.begin_measurement()
        if recorder is not None:
            recorder.on_measurement_start(self)
        return None if split == len(chunk) else chunk[split:]

    def _flush_dram(self) -> None:
        """Hand the staged DRAM transfers to the memory system.

        Every DRAM issue site appends plain (block, kind code, arrival
        cycle, issuing core) scalars to the staging lists; this flush routes
        the whole batch through
        :meth:`repro.dram.flat.FlatMemorySystem.enqueue_block_batch` (or the
        DRAM stage standing in for it) after every miss slice of the chunk
        loop and at chunk boundaries.  The memory system absorbs each
        channel's transfers in order and serves as its queue fills, so where
        a batch ends never changes a result.
        """
        blocks = self._dram_blocks
        if blocks:
            self._dram_target().enqueue_block_batch(
                blocks, self._dram_kinds, self._dram_arrivals,
                self._dram_cores)
            self._dram_blocks = []
            self._dram_kinds = []
            self._dram_arrivals = []
            self._dram_cores = []

    def _run_chunk(self, chunk: TraceBuffer) -> None:
        """Interpret one columnar chunk: the staged chunk loop.

        Zero-length chunks (phase-boundary splices, empty streams) return
        immediately.  Only the trace reaches the L1s, so stage 1 computes
        each row's hit, dirty victim and arrival cycle in NumPy before the
        LLC sees the chunk: :meth:`StackedL1.access_chunk`, and one
        cumulative sum, seeded with the running core cycle, of
        ``(instructions * arrival_cpi) / num_cores`` computed elementwise
        (that operation order keeps every core count's rounding fixed).
        Stage 2 visits the L1 misses alone, in trace order: it syncs the
        core cycle and bus arrival stamp that the DRAM issue sites read,
        forwards the dirty victim to the LLC and takes the LLC demand path.
        The transfers each slice stages are flushed at its end, which bounds
        the staging lists and, in a pipelined run, feeds the DRAM stage
        while the loop goes on.  Counters are folded once per chunk.
        """
        if not len(chunk):
            return
        blocks = (chunk.address >> np.uint64(BLOCK_BITS)).astype(np.int64)
        blocks <<= BLOCK_BITS
        cores, stores, pcs = chunk.core, chunk.is_store, chunk.pc.astype(np.int64)
        hits, victims, victim_pcs = self.l1.access_chunk(cores, blocks, stores, pcs)
        config = self.config
        cycles = np.empty(len(chunk) + 1)
        cycles[0] = self._core_cycle
        np.multiply(chunk.instructions, config.arrival_cpi, out=cycles[1:],
                    dtype=np.float64)
        cycles[1:] /= config.system.num_cores
        cycles = np.cumsum(cycles, out=cycles)[1:]
        misses = np.flatnonzero(~hits)

        demand = self._llc_demand
        llc = self.llc
        touch_set_dirty = llc.touch_set_dirty
        fill = llc.fill
        for first in range(0, len(misses), _MISS_SLICE):
            rows = misses[first:first + _MISS_SLICE]
            for core, pc, block, is_store, cycle, arrival, victim, victim_pc in zip(
                    cores[rows].tolist(), pcs[rows].tolist(),
                    blocks[rows].tolist(), stores[rows].tolist(),
                    cycles[rows].tolist(), (cycles[rows] / self._bus_ratio).tolist(),
                    victims[rows].tolist(), victim_pcs[rows].tolist()):
                self._core_cycle = cycle
                # Every DRAM transfer generated while this access is
                # processed arrives at the same bus timestamp.
                self._arrival_bus = arrival
                if victim >= 0 and not touch_set_dirty(victim):
                    # The L1 held the only copy: allocate it dirty.
                    self._l1_writeback_fills += 1
                    evicted = fill(victim, dirty=True, pc=victim_pc, core=core)
                    if evicted >= 0:
                        self._handle_llc_eviction(
                            evicted, llc.victim_flags, llc.victim_pc,
                            llc.victim_core)
                demand(core, pc, block, is_store)
            self._flush_dram()
        self._h_l1_writebacks += int(np.count_nonzero(victims >= 0))
        self._core_cycle = float(cycles[-1])
        self._instructions += int(chunk.instructions.sum(dtype=np.int64))
        counters = self.counters
        counters.inc("accesses", len(chunk))
        l1_hits = len(chunk) - len(misses)
        if l1_hits:
            counters.inc("l1_hits", l1_hits)
        self._flush_hot_counters()

    def _flush_hot_counters(self) -> None:
        """Fold the hoisted per-chunk counter ints into the StatGroup.

        Every LLC miss is a demand read (``demand_reads``) that a load
        (``load_demand_misses``) or a store (``store_triggered_reads``)
        triggered; those three keys are derived here, not counted.
        """
        misses = self._h_llc_misses
        load_misses = self._h_load_triggered_reads
        counters = fold_pending(self, self.counters, _HOT_COUNTERS)
        for key, value in (("demand_reads", misses),
                           ("load_demand_misses", load_misses),
                           ("store_triggered_reads", misses - load_misses)):
            if value:
                counters.inc(key, value)

    def begin_measurement(self) -> None:
        """Discard warmup statistics while keeping all architectural state."""
        self._flush_dram()
        dram = self._dram_target()
        dram.drain()
        self._flush_hot_counters()
        self.counters.reset()
        self._l1_writeback_fills = 0
        self._writeback_probes = 0
        dram.reset_counters()
        for agent in self.agents:
            stats = getattr(agent, "stats", None)
            if stats is not None:
                stats.reset()
        self._instructions = 0.0
        self._measurement_start_core_cycle = self._core_cycle
        self._measurement_start_bus_cycle = self._core_cycle / self._bus_ratio

    # ------------------------------------------------------------------ #
    # LLC demand path
    #
    # Agents append the traffic they want to the action sink; each LLC
    # event (a demand access, an eviction) applies what its own hooks
    # appended before it returns.  An eviction remembers the sink lengths
    # before calling its hooks and takes only what lies past them, so an
    # eviction caused by a fill inside another event's handling applies its
    # actions first, nested, exactly where it happens.  A demand access
    # starts with an empty sink (every event drains its share), so its
    # share is everything left once its own miss handling is done.
    # ------------------------------------------------------------------ #
    def _llc_demand(self, core: int, pc: int, block: int,
                    is_store: bool) -> None:
        """One L1 miss's LLC demand request.

        The LLC probe and access are fused into one array call and system
        counters are hoisted to instance ints.  A victim's flag byte, PC and
        core are read right after its fill: the eviction's own hooks and
        fills overwrite them.
        """
        llc = self.llc
        prior = llc.demand_access(block, is_store)
        hit = prior >= 0

        for hook in self._access_hooks:
            hook(core, pc, block, is_store, hit)

        if hit:
            self._h_llc_hits += 1
            if not is_store:
                self._h_llc_load_hits += 1
            if prior & (FLAG_PREFETCHED | FLAG_USED) == FLAG_PREFETCHED:
                self._h_covered_reads += 1
                if not is_store:
                    self._h_covered_loads += 1
        else:
            self._h_llc_misses += 1
            for hook in self._miss_hooks:
                hook(core, pc, block, is_store)
            # Stage the demand read for the batched flush.
            self._dram_blocks.append(block)
            self._dram_kinds.append(_DEMAND_READ_CODE)
            self._dram_arrivals.append(self._arrival_bus)
            self._dram_cores.append(core)
            if not is_store:
                self._h_load_triggered_reads += 1
            victim = llc.fill(block, dirty=is_store, pc=pc, core=core)
            if victim >= 0:
                self._handle_llc_eviction(victim, llc.victim_flags,
                                          llc.victim_pc, llc.victim_core)

        if self._fetches or self._writebacks:
            self._apply_actions(0, 0, core, pc)

    # ------------------------------------------------------------------ #
    # Eviction handling and agent-generated traffic
    # ------------------------------------------------------------------ #
    def _handle_llc_eviction(self, block: int, flags: int, pc: int,
                             core: int) -> None:
        """Notify the agents of an LLC eviction; write a dirty victim back.

        ``flags``, ``pc`` and ``core`` are the victim's, as its fill left them.
        """
        self._h_llc_evictions += 1

        fetches = self._fetches
        writebacks = self._writebacks
        fetch_mark = len(fetches)
        writeback_mark = len(writebacks)
        for hook in self._eviction_hooks:
            hook(block, flags)

        if flags & FLAG_DIRTY:
            self._h_demand_writebacks += 1
            self._dram_blocks.append(block)
            self._dram_kinds.append(_DEMAND_WRITEBACK_CODE)
            self._dram_arrivals.append(self._arrival_bus)
            self._dram_cores.append(core)
        if flags & (FLAG_PREFETCHED | FLAG_USED) == FLAG_PREFETCHED:
            self._h_overfetch_evictions += 1

        if len(fetches) > fetch_mark or len(writebacks) > writeback_mark:
            self._apply_actions(fetch_mark, writeback_mark, core, pc)

    def _take_actions(self, fetch_mark: int, writeback_mark: int):
        """Remove and return the sink entries past the marks: ``(fetches, writebacks)``."""
        fetches = self._fetches
        writebacks = self._writebacks
        fetch_blocks = fetches[fetch_mark:]
        del fetches[fetch_mark:]
        writeback_blocks = writebacks[writeback_mark:]
        del writebacks[writeback_mark:]
        return fetch_blocks, writeback_blocks

    def _apply_actions(self, fetch_mark: int, writeback_mark: int,
                       core: int, pc: int) -> None:
        """Perform the traffic one event's hooks appended past the marks.

        This is the bulk datapath the paper's mechanisms live on (one
        iteration per streamed block, several per miss under
        BuMP/Full-region), with the per-block overhead between the layers
        stripped: traffic counters hoisted to instance ints, the LLC's
        calls bound once per event, and transfers staged as scalars for the
        batched flush, every one issued for ``core``, the core of the event
        that asked for it.
        """
        fetch_blocks, writeback_blocks = self._take_actions(fetch_mark,
                                                            writeback_mark)
        llc = self.llc
        bulk = self.config.uses_bulk_streaming
        dram_blocks = self._dram_blocks
        dram_kinds = self._dram_kinds
        dram_arrivals = self._dram_arrivals
        dram_cores = self._dram_cores
        arrival = self._arrival_bus

        if fetch_blocks:
            contains = llc.contains
            fill = llc.fill
            if bulk:
                kind_code = DRAMRequestKind.BULK_READ.code
            else:
                kind_code = DRAMRequestKind.PREFETCH_READ.code
            fetched = 0
            for block in fetch_blocks:
                if block < 0 or contains(block):
                    continue
                dram_blocks.append(block)
                dram_kinds.append(kind_code)
                dram_arrivals.append(arrival)
                dram_cores.append(core)
                fetched += 1
                victim = fill(block, prefetched=True, pc=pc, core=core)
                if victim >= 0:
                    self._handle_llc_eviction(victim, llc.victim_flags,
                                              llc.victim_pc, llc.victim_core)
            if fetched:
                if bulk:
                    self._h_bulk_reads += fetched
                else:
                    self._h_prefetch_reads += fetched

        if writeback_blocks:
            clean = llc.clean
            if bulk:
                kind_code = DRAMRequestKind.BULK_WRITEBACK.code
            else:
                kind_code = DRAMRequestKind.EAGER_WRITEBACK.code
            cleaned = 0
            probed = 0
            for block in writeback_blocks:
                if block < 0:
                    continue
                probed += 1
                if clean(block):
                    dram_blocks.append(block)
                    dram_kinds.append(kind_code)
                    dram_arrivals.append(arrival)
                    dram_cores.append(core)
                    cleaned += 1
            self._writeback_probes += probed
            if cleaned:
                if bulk:
                    self._h_bulk_writebacks += cleaned
                else:
                    self._h_eager_writebacks += cleaned

    # ------------------------------------------------------------------ #
    # Result assembly
    # ------------------------------------------------------------------ #
    def _collect_results(self) -> SimulationResult:
        # Flush without draining, deliberately: a direct caller that skipped
        # run()'s final drain observes the queues as the issue sites left
        # them, partially served by the eager threshold bursts.
        self._flush_dram()
        self._flush_hot_counters()
        config = self.config
        counters = self.counters
        dram_stats = self.memory.aggregate_stats()
        result = SimulationResult(workload=self.workload_name, config_name=config.name)
        result.counters = counters
        result.dram = dram_stats
        result.llc = llc_stats(counters, self._l1_writeback_fills,
                               self._writeback_probes)
        result.noc = noc_stats(counters, self._writeback_probes,
                               config.carries_pc, bool(self.agents))
        result.predictor = self._predictor_stats()
        result.instructions = self._instructions

        density_report = self.profiler.report() if self.profiler is not None else None
        result.density = density_report

        accesses = dram_stats["accesses"]
        measured_hit_ratio = dram_stats["row_hits"] / accesses if accesses else 0.0
        if config.ideal_row_locality and density_report is not None:
            result.row_buffer_hit_ratio = density_report.ideal_row_hit_ratio
            result.effective_activations = accesses * (1.0 - result.row_buffer_hit_ratio)
        else:
            result.row_buffer_hit_ratio = measured_hit_ratio
            result.effective_activations = dram_stats["activations"]

        dram_elapsed = max(
            self.memory.elapsed_cycles - self._measurement_start_bus_cycle, 0.0
        )
        timing = self.timing.summarize(
            instructions=self._instructions,
            load_demand_misses=counters["load_demand_misses"],
            covered_loads=counters["covered_loads"],
            llc_load_hits=counters["llc_load_hits"],
            average_dram_latency_bus_cycles=dram_stats.ratio(
                "demand_read_service_cycles", "demand_reads"),
            dram_elapsed_bus_cycles=self.memory.bandwidth_bound_cycles,
        )
        result.cycles = timing.cycles
        result.throughput_ipc = timing.throughput_ipc
        result.elapsed_seconds = timing.elapsed_seconds

        dram_reads = dram_stats["reads"]
        dram_writes = dram_stats["writes"]
        useful = result.useful_accesses
        result.memory_energy = self.energy_model.memory_energy_per_access(
            activations=result.effective_activations,
            dram_reads=dram_reads,
            dram_writes=dram_writes,
            useful_accesses=useful,
        )

        elapsed_bus_cycles = max(dram_elapsed, 1.0)
        channel_utilization = self.memory.channel_utilization(elapsed_bus_cycles)
        result.energy = self.energy_model.breakdown(
            instructions=self._instructions,
            elapsed_seconds=timing.elapsed_seconds,
            aggregate_ipc=timing.throughput_ipc,
            activations=result.effective_activations,
            dram_reads=dram_reads,
            dram_writes=dram_writes,
            llc_reads=result.llc["demand_hits"] + result.llc["demand_misses"],
            llc_writes=result.llc["fills"],
            noc_utilization=utilization(result.noc["bytes"], timing.cycles,
                                        config.system.num_cores),
            channel_utilization=channel_utilization,
            useful_accesses=useful,
        )
        return result

    def _predictor_stats(self) -> StatGroup:
        merged = StatGroup("predictor")
        for agent in self.agents:
            stats = getattr(agent, "stats", None)
            if stats is not None:
                merged.merge(stats)
        if self.bump is not None:
            merged.set("bump_storage_bits", self.bump.storage_bits())
        return merged
