"""Pipelined run loop: trace read-ahead and DRAM service in forked helpers.

Two layers of a run only consume what the cache/agent loop produces, so they
can work on another CPU while the loop runs:

* **read-ahead** -- a trace source never reads simulator state, so a
  helper process pulls its chunks ahead of the loop and ships their
  columns;
* **DRAM service** -- the memory system only consumes the transfers the
  loop stages, so a helper serves every flushed batch and hands the memory
  state back when the run ends.

The calling process keeps the L1 stage, the LLC, every agent, the counters
and result assembly, and the helpers run the same code on the same inputs in
the same order, so results are bit-identical to an in-process run.

Each helper is a ``fork`` of the caller: it starts with the source and the
memory system as they stand, copy-on-write, so nothing has to be pickled to
start it (generators cannot be) and no interpreter is started.  Two pipes
connect it to the caller, carrying length-prefixed frames of raw column
bytes (``tobytes`` on the way out, ``np.frombuffer`` on the way in); only
the final DRAM state and an error travel pickled.  The pipes' capacity
(:data:`PIPE_BYTES` where the kernel grants it, else its default) is the
backpressure: the read-ahead runs at most about one chunk ahead, and a
flushed DRAM batch (~10k transfers of 32 bytes) fits whole, so the loop
need not wait for the DRAM helper to finish serving the previous one.

:meth:`repro.sim.system.ServerSystem.run` engages the pipeline once a run
has pulled :data:`ENGAGE_ACCESSES` accesses from its source, when
:func:`helper_cpus` finds a CPU to put the helpers on.  The threshold and
the pipe size are module constants, not options.

A helper ignores SIGINT (a terminal's Ctrl-C reaches the whole process
group; the caller's ``KeyboardInterrupt`` tears the helpers down) and always
leaves through ``os._exit``, never returning into the caller's stack.
:meth:`Pipeline.close` kills and reaps every helper, on success and on
error alike.  A source that raises inside the read-ahead has its exception
re-raised by the caller at the same pull; a helper that dies raises a
``RuntimeError`` naming the stage and its exit status.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import struct
import threading
import time
import traceback
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

try:
    import fcntl
except ImportError:  # pragma: no cover - platforms without fcntl
    fcntl = None

from repro.trace.buffer import DEFAULT_CHUNK_SIZE, TRACE_DTYPES, TraceBuffer

__all__ = [
    "ENGAGE_ACCESSES",
    "PIPE_BYTES",
    "DRAMStage",
    "Pipeline",
    "ReadAhead",
    "helper_cpus",
    "start_pipeline",
]

#: Accesses a run must have pulled before it forks its helpers.  Below one
#: default chunk the fixed cost (two forks, copy-on-write faults, the final
#: state transfer; 15-25 ms) cannot pay back.
ENGAGE_ACCESSES = DEFAULT_CHUNK_SIZE

#: Capacity asked for each helper pipe: a flushed DRAM batch fits whole.
PIPE_BYTES = 1 << 20

#: Frame header: tag byte and payload length in bytes.
_FRAME = struct.Struct("<Bq")
#: Chunk payload header: the row count.
_CHUNK_HEAD = struct.Struct("<q")

# Frame tags.  Helper -> caller: a chunk, the end of the trace, the final
# DRAM state, an error.  Caller -> DRAM helper: the rest.
_CHUNK, _END, _STATE, _ERROR, _BATCH, _DRAIN, _RESET, _MARK, _FINISH = range(9)

#: Chunk columns in wire order: widest dtype first, so every column of a
#: frame starts aligned for its dtype.
_WIRE_COLUMNS = ("pc", "address", "core", "instructions", "is_store")

#: Staged-transfer columns of a DRAM batch frame: blocks, kind codes,
#: arrival cycles, issuing cores.
_BATCH_DTYPES = (np.dtype(np.int64), np.dtype(np.int64), np.dtype(np.float64),
                 np.dtype(np.int64))
_BATCH_ROW_BYTES = sum(dtype.itemsize for dtype in _BATCH_DTYPES)


def _current_cpu() -> Optional[int]:
    """The CPU this process last ran on (``/proc/self/stat`` field 39)."""
    try:
        with open("/proc/self/stat", "rb") as handle:
            stat = handle.read()
        # Field 2 (the command name) may hold spaces; count from its ')'.
        return int(stat[stat.rindex(b")") + 2:].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def helper_cpus() -> Optional[Tuple[int, ...]]:
    """CPUs for pipeline helpers, or ``None`` when this process must not fork them.

    Helpers need a CPU of their own: this process's affinity must list at
    least two.  Forking is refused while another thread is alive (a forked
    child holds only the forking thread) and inside a ``multiprocessing``
    child (a campaign pool's workers already fill the CPUs).  The helpers
    get every allowed CPU except the one this process runs on: a pipe
    wakeup puts the woken process on the waker's CPU, which would otherwise
    time-share the two.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return None
    allowed = os.sched_getaffinity(0)
    if len(allowed) < 2:
        return None
    if threading.active_count() != 1:
        return None
    if multiprocessing.parent_process() is not None:
        return None
    return tuple(sorted(allowed - {_current_cpu()}))


# ---------------------------------------------------------------------- #
# Frames
# ---------------------------------------------------------------------- #
def _write_all(fd: int, buffers: Sequence) -> None:
    """Write every buffer to ``fd`` in order, resuming after partial writes."""
    views = [view for view in (memoryview(buffer).cast("B")
                               for buffer in buffers) if len(view)]
    while views:
        written = os.writev(fd, views)
        while written:
            if written >= len(views[0]):
                written -= len(views.pop(0))
            else:
                views[0] = views[0][written:]
                written = 0


def _read_exact(fd: int, size: int) -> Optional[bytearray]:
    """Read exactly ``size`` bytes; ``None`` at end of file before the first."""
    buffer = bytearray(size)
    view = memoryview(buffer)
    done = 0
    while done < size:
        got = os.readv(fd, [view[done:]])
        if not got:
            if done:
                raise EOFError(f"pipe closed after {done} of {size} bytes")
            return None
        done += got
    return buffer


def _send(fd: int, tag: int, *payload) -> None:
    """Write one frame whose payload is the concatenation of ``payload``."""
    size = sum(memoryview(part).nbytes for part in payload)
    _write_all(fd, (_FRAME.pack(tag, size),) + payload)


def _recv(fd: int) -> Optional[Tuple[int, bytearray]]:
    """The next ``(tag, payload)`` frame, or ``None`` when the pipe is closed."""
    header = _read_exact(fd, _FRAME.size)
    if header is None:
        return None
    tag, size = _FRAME.unpack(header)
    payload = _read_exact(fd, size) if size else bytearray()
    if payload is None:
        raise EOFError("pipe closed inside a frame")
    return tag, payload


def _columns(payload: bytearray, dtypes, count: int, offset: int = 0) -> list:
    """Views of ``count``-row columns laid end to end in ``payload``."""
    columns = []
    for dtype in dtypes:
        columns.append(np.frombuffer(payload, dtype=dtype, count=count,
                                     offset=offset))
        offset += count * dtype.itemsize
    return columns


def _pickled_error(error: BaseException) -> bytes:
    """``error`` pickled, or a ``RuntimeError`` with its traceback if it will not round-trip."""
    try:
        blob = pickle.dumps(error)
        pickle.loads(blob)
        return blob
    except Exception:
        text = "".join(traceback.format_exception(
            type(error), error, error.__traceback__))
        return pickle.dumps(RuntimeError(
            f"pipeline helper raised an exception that does not pickle:\n{text}"))


# ---------------------------------------------------------------------- #
# One helper process
# ---------------------------------------------------------------------- #
class _Stage:
    """A forked helper running ``body(recv_fd, send_fd)``, seen from the caller."""

    def __init__(self, name: str, body: Callable[[int, int], None],
                 cpus: Sequence[int], timed: bool,
                 inherited: Sequence[int] = ()) -> None:
        self.name = name
        fds: List[int] = []
        try:
            fds.extend(os.pipe())
            fds.extend(os.pipe())
            _widen(fds[1])
            _widen(fds[3])
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        down_read, down_write, up_read, up_write = fds
        if pid == 0:  # pragma: no cover - runs in the helper process
            _helper_main(body, down_read, up_write, cpus,
                         (down_write, up_read, *inherited))
        os.close(down_read)
        os.close(up_write)
        self.pid = pid
        self.fds = (down_write, up_read)
        self._send_fd = down_write
        self._recv_fd = up_read
        self._timed = timed
        #: Seconds the caller spent blocked on this helper's pipes, and the
        #: number of blocking calls (counted only when ``timed``).
        self.waited = 0.0
        self.waits = 0
        self._status: Optional[int] = None

    def send(self, tag: int, *payload) -> None:
        tick = time.perf_counter() if self._timed else 0.0
        try:
            _send(self._send_fd, tag, *payload)
        except BrokenPipeError:
            self._raise_failure()
        if self._timed:
            self.waited += time.perf_counter() - tick
            self.waits += 1

    def recv(self) -> Tuple[int, bytearray]:
        tick = time.perf_counter() if self._timed else 0.0
        try:
            frame = _recv(self._recv_fd)
        except EOFError:
            frame = None
        if frame is None:
            self._raise_failure()
        if self._timed:
            self.waited += time.perf_counter() - tick
            self.waits += 1
        tag, payload = frame
        if tag == _ERROR:
            raise pickle.loads(payload)
        return tag, payload

    def _raise_failure(self) -> None:
        """The helper closed its pipes: re-raise its error or report its exit."""
        self._reap()
        error = None
        try:
            while error is None:
                frame = _recv(self._recv_fd)
                if frame is None:
                    break
                if frame[0] == _ERROR:
                    error = pickle.loads(frame[1])
        except EOFError:
            pass
        if error is not None:
            raise error
        status = self._status
        if status is not None and status < 0:
            how = f"killed by signal {-status}"
        else:
            how = f"exit status {status}"
        raise RuntimeError(f"pipeline stage {self.name!r} died ({how})")

    def _reap(self) -> None:
        if self._status is None:
            _pid, status = os.waitpid(self.pid, 0)
            self._status = (-os.WTERMSIG(status) if os.WIFSIGNALED(status)
                            else os.WEXITSTATUS(status))

    def close(self) -> None:
        """Close the pipes, then kill and reap the helper (idempotent)."""
        for fd in self.fds:
            try:
                os.close(fd)
            except OSError:
                pass
        self.fds = ()
        if self._status is None:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self._reap()


def _widen(fd: int) -> None:
    """Ask for a :data:`PIPE_BYTES` pipe behind ``fd``; keep its size if refused."""
    try:
        fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
    except (AttributeError, OSError):  # no F_SETPIPE_SZ here, or refused
        pass


def _helper_main(body, recv_fd: int, send_fd: int, cpus: Sequence[int],
                 foreign: Sequence[int]) -> None:  # pragma: no cover - helper
    """Entry point of a forked helper; never returns."""
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        for fd in foreign:
            os.close(fd)
        if cpus:
            os.sched_setaffinity(0, cpus)
        body(recv_fd, send_fd)
        status = 0
    except BaseException as error:  # noqa: BLE001 - reported to the caller
        try:
            _send(send_fd, _ERROR, _pickled_error(error))
        except BaseException:  # noqa: BLE001 - the caller is gone
            pass
    finally:
        os._exit(status)


# ---------------------------------------------------------------------- #
# Read-ahead
# ---------------------------------------------------------------------- #
def _read_ahead_body(source) -> Callable[[int, int], None]:
    def body(_recv_fd: int, send_fd: int) -> None:  # pragma: no cover - helper
        while True:
            chunk = source.next_chunk()
            if chunk is None:
                _send(send_fd, _END)
                return
            _send(send_fd, _CHUNK, _CHUNK_HEAD.pack(len(chunk)),
                  *(np.ascontiguousarray(getattr(chunk, name))
                    for name in _WIRE_COLUMNS))

    return body


def _decode_chunk(payload: bytearray) -> TraceBuffer:
    """Zero-copy :class:`TraceBuffer` over a chunk frame's column bytes."""
    (rows,) = _CHUNK_HEAD.unpack_from(payload)
    columns = dict(zip(_WIRE_COLUMNS, _columns(
        payload, [TRACE_DTYPES[name] for name in _WIRE_COLUMNS], rows,
        _CHUNK_HEAD.size)))
    return TraceBuffer(columns["core"], columns["pc"], columns["address"],
                       columns["is_store"], columns["instructions"])


class ReadAhead:
    """A source whose chunks a forked helper pulls ahead of the run.

    Stands in for the source in the run loop.
    """

    def __init__(self, source, cpus: Sequence[int], timed: bool) -> None:
        self.stage = _Stage("read-ahead", _read_ahead_body(source), cpus, timed)

    def next_chunk(self) -> Optional[TraceBuffer]:
        tag, payload = self.stage.recv()
        if tag == _END:
            return None
        return _decode_chunk(payload)


# ---------------------------------------------------------------------- #
# DRAM service
# ---------------------------------------------------------------------- #
def _dram_body(memory) -> Callable[[int, int], None]:
    def body(recv_fd: int, send_fd: int) -> None:  # pragma: no cover - helper
        marks: List[Tuple[int, ...]] = []
        while True:
            frame = _recv(recv_fd)
            if frame is None:  # the caller is gone
                return
            tag, payload = frame
            if tag == _BATCH:
                count = len(payload) // _BATCH_ROW_BYTES
                memory.enqueue_block_batch(
                    *_columns(payload, _BATCH_DTYPES, count))
            elif tag == _DRAIN:
                memory.drain()
            elif tag == _RESET:
                memory.reset_counters()
            elif tag == _MARK:
                marks.append((memory.pending_count(), *memory.row_outcomes()))
            elif tag == _FINISH:
                state = pickle.dumps((memory.export_state(), marks),
                                     protocol=pickle.HIGHEST_PROTOCOL)
                _send(send_fd, _STATE, state)
                return

    return body


class DRAMStage:
    """The memory system served by a forked helper.

    Stands in for :class:`repro.dram.flat.FlatMemorySystem` for the three
    calls a run makes while it is running -- ``enqueue_block_batch``,
    ``drain`` and ``reset_counters`` -- plus :meth:`mark`, which has the
    helper record the queue occupancy and row-buffer counters at that point
    of the stream for telemetry.  :meth:`finish` loads the helper's final
    state into the caller's memory system and returns the marks.
    """

    def __init__(self, memory, cpus: Sequence[int], timed: bool,
                 inherited: Sequence[int] = ()) -> None:
        self.stage = _Stage("dram", _dram_body(memory), cpus, timed, inherited)

    def enqueue_block_batch(self, block_addresses, kind_codes,
                            arrival_cycles, cores) -> None:
        columns = (block_addresses, kind_codes, arrival_cycles, cores)
        self.stage.send(_BATCH, *(np.asarray(column, dtype=dtype)
                                  for column, dtype in zip(columns,
                                                           _BATCH_DTYPES)))

    def drain(self) -> None:
        self.stage.send(_DRAIN)

    def reset_counters(self) -> None:
        self.stage.send(_RESET)

    def mark(self) -> None:
        self.stage.send(_MARK)

    def finish(self, memory) -> List[Tuple[int, ...]]:
        """Load the helper's memory state into ``memory``; return the marks.

        Each mark is ``(queue occupancy, accesses, row hits, row misses,
        row conflicts)`` at the point of the stream it was sent.
        """
        self.stage.send(_FINISH)
        _tag, payload = self.stage.recv()
        state, marks = pickle.loads(payload)
        memory.load_state(state)
        return marks


# ---------------------------------------------------------------------- #
# Both stages
# ---------------------------------------------------------------------- #
class Pipeline:
    """The helpers of one run: a read-ahead and a DRAM stage."""

    def __init__(self, source, memory, cpus: Sequence[int],
                 timed: bool) -> None:
        self.cpus = tuple(cpus)
        self.reader = ReadAhead(source, cpus, timed)
        try:
            # The DRAM helper must not hold the read-ahead's pipes open.
            self.dram = DRAMStage(memory, cpus, timed, self.reader.stage.fds)
        except BaseException:
            self.reader.stage.close()
            raise
        self._stages = (self.reader.stage, self.dram.stage)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(stage.name for stage in self._stages)

    @property
    def waited(self) -> Tuple[float, int]:
        """``(seconds, calls)`` the caller spent blocked on helper pipes."""
        return (sum(stage.waited for stage in self._stages),
                sum(stage.waits for stage in self._stages))

    def close(self) -> None:
        """Kill and reap every helper (safe to call more than once)."""
        for stage in self._stages:
            stage.close()


def start_pipeline(source, memory, timed: bool) -> Optional[Pipeline]:
    """Fork a read-ahead of ``source`` and a DRAM stage serving ``memory``.

    Returns ``None`` when :func:`helper_cpus` refuses, or when the system
    cannot fork or open a pipe right now (the run then simply stays
    in-process).
    """
    cpus = helper_cpus()
    if not cpus:
        return None
    try:
        return Pipeline(source, memory, cpus, timed)
    except OSError:
        return None
