"""Per-layer self-time attribution, measured from outside the simulator.

:class:`LayerTracer` replaces the public entry points that the run loop of
``ServerSystem.run`` calls into with timing wrappers, on the constructed
instances only: no module of the simulator is edited or imported for it.
The wrappers keep a stack, so every layer is charged its *self* time, which
is a call's duration minus the time of the wrapped calls nested inside it
(an LLC fill issued by an agent is charged to ``cache.llc``, not to the
agent). Everything in ``run()`` that no wrapper covers is the ``sim`` layer:
``sim.self_s = wall - sum(layer self times)``.

Spans are kept at chunk granularity to bound memory. One record per
(chunk, layer) holds a call count and a self time. The chunk index advances
each time the run loop pulls a chunk from the trace source.

Boundaries are found by duck typing. A method that a later version renames
or removes is simply not wrapped: its layer reports zero calls and its time
folds into ``sim``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterator, List, Tuple

#: Layers in report order, named after the ``repro`` modules that own them.
LAYERS = ("trace", "cache.l1", "cache.llc", "core.bump", "prefetch.sms",
          "prefetch.stride", "writeback.vwq", "dram", "energy")

#: Agent hooks the run loop calls on every LLC agent.
AGENT_HOOKS = ("on_access", "on_miss", "on_eviction")


def agent_layer(agent) -> str:
    """Layer name of an LLC agent: its module path below ``repro``."""
    module = type(agent).__module__
    return module[len("repro."):] if module.startswith("repro.") else module


def boundaries(system, source) -> Iterator[Tuple[str, object, Tuple[str, ...]]]:
    """``(layer, owner, method names)`` for every boundary the run loop uses.

    Owners are looked up with ``getattr`` defaults, so a missing attribute
    yields ``None`` and the boundary is skipped rather than failing.
    """
    yield "trace", source, ("next_chunk",)
    for l1 in getattr(system, "l1s", ()):
        yield "cache.l1", getattr(l1, "_cache", None), ("fill_l1",)
    llc = getattr(system, "llc", None)
    yield "cache.llc", getattr(llc, "_cache", None), (
        "demand_access", "fill", "contains", "clean", "dirty_blocks_in_region")
    yield "cache.llc", llc, ("fill", "write_from_l1")
    for agent in getattr(system, "agents", ()):
        yield agent_layer(agent), agent, AGENT_HOOKS
    yield "dram", getattr(system, "memory", None), (
        "enqueue_block_batch", "drain")
    yield "energy", getattr(system, "energy_model", None), ("breakdown",)
    yield "energy", getattr(system, "timing", None), ("summarize",)


class LayerTracer:
    """Stack-based self-time accounting over wrapped instance methods."""

    def __init__(self, layers=LAYERS, clock: Callable[[], float] = time.perf_counter):
        self.layers: List[str] = list(layers)
        self._index: Dict[str, int] = {name: i for i, name in enumerate(self.layers)}
        self._clock = clock
        self._self: List[float] = [0.0] * len(self.layers)
        self._calls: List[int] = [0] * len(self.layers)
        #: Child-time accumulators of the open calls; slot 0 is the root and
        #: ends up holding the total time spent inside any wrapper.
        self._stack: List[float] = [0.0]
        self._chunk = 0
        #: ``(chunk, layer, calls, self_s)``, one per layer active in a chunk.
        self.records: List[Tuple[int, str, int, float]] = []
        self.wrapped: List[str] = []

    def _layer_index(self, layer: str) -> int:
        index = self._index.get(layer)
        if index is None:
            index = self._index[layer] = len(self.layers)
            self.layers.append(layer)
            self._self.append(0.0)
            self._calls.append(0)
        return index

    def wrap(self, fn: Callable, layer: str) -> Callable:
        """Return ``fn`` timed and charged to ``layer``."""
        index = self._layer_index(layer)
        clock = self._clock
        stack = self._stack
        self_times = self._self
        calls = self._calls

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_times[index] += duration - stack.pop()
                calls[index] += 1
                stack[-1] += duration

        traced.__wrapped__ = fn
        return traced

    def attach(self, owner, names, layer: str) -> None:
        """Wrap each method of ``owner`` in ``names`` that exists."""
        if owner is None:
            return
        for name in names:
            fn = getattr(owner, name, None)
            if not callable(fn):
                continue
            try:
                setattr(owner, name, self.wrap(fn, layer))
            except AttributeError:  # __slots__ owner: leave unwrapped
                continue
            self.wrapped.append(f"{layer}:{type(owner).__name__}.{name}")

    def attach_system(self, system, source) -> None:
        """Wrap every run-loop boundary of ``system`` and ``source``.

        The trace source additionally closes the current chunk record each
        time the run loop pulls the next chunk.
        """
        for layer, owner, names in boundaries(system, source):
            self.attach(owner, names, layer)
        pull = getattr(source, "next_chunk", None)
        if pull is not None:
            def next_chunk(*args, **kwargs):
                self.close_chunk()
                return pull(*args, **kwargs)

            source.next_chunk = next_chunk

    def close_chunk(self) -> None:
        """Move the current chunk's per-layer tallies into :attr:`records`."""
        for index, layer in enumerate(self.layers):
            if self._calls[index]:
                self.records.append((self._chunk, layer, self._calls[index],
                                     self._self[index]))
                self._calls[index] = 0
                self._self[index] = 0.0
        self._chunk += 1

    @property
    def wrapped_seconds(self) -> float:
        """Total time spent inside wrapped calls (root of the stack)."""
        return self._stack[0]

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """``layer -> (calls, self_s)`` over the whole run (closes the chunk)."""
        self.close_chunk()
        totals = {layer: (0, 0.0) for layer in self.layers}
        for _chunk, layer, calls, seconds in self.records:
            prior_calls, prior_seconds = totals[layer]
            totals[layer] = (prior_calls + calls, prior_seconds + seconds)
        return totals


def self_check() -> None:
    """Check the self-time arithmetic on a nested stub with a scripted clock.

    Expects: parent self time = duration - children, chunk records split
    where the chunk was closed, a missing method left unwrapped, and the layer self times plus
    ``sim`` summing exactly to the wall time. Raises ``RuntimeError`` (not
    ``assert``, which ``python -O`` strips) on any mismatch.
    """
    now = [0.0]

    def advance(seconds: float) -> None:
        now[0] += seconds

    class Stub:
        def outer(self):
            advance(1.0)
            self.inner()
            advance(3.0)
            self.inner()
            return "done"

        def inner(self):
            advance(2.0)
            self.leaf()

        def leaf(self):
            advance(0.5)

    tracer = LayerTracer(layers=("a", "b", "c"), clock=lambda: now[0])
    stub = Stub()
    tracer.attach(stub, ("outer",), "a")
    tracer.attach(stub, ("inner",), "b")
    tracer.attach(stub, ("leaf", "renamed_away"), "c")
    start = now[0]
    advance(5.0)                   # glue outside any wrapper
    result = stub.outer()
    tracer.close_chunk()
    advance(0.25)
    stub.leaf()                    # a root-level call in a second chunk
    wall = now[0] - start
    totals = tracer.totals()
    sim_self = wall - tracer.wrapped_seconds
    expected = {"a": (1, 4.0), "b": (2, 4.0), "c": (3, 1.5)}
    problems = []
    if result != "done":
        problems.append("wrapper changed the return value")
    if totals != expected:
        problems.append(f"self times {totals} != {expected}")
    if sim_self != 5.25:
        problems.append(f"sim self time {sim_self} != 5.25")
    if sum(seconds for _calls, seconds in totals.values()) + sim_self != wall:
        problems.append("layer self times + sim do not sum to the wall time")
    chunks = sorted({chunk for chunk, *_rest in tracer.records})
    if chunks != [0, 1]:
        problems.append(f"chunk records {tracer.records} not split at the boundary")
    if any(entry.endswith("renamed_away") for entry in tracer.wrapped):
        problems.append("a missing method was wrapped")
    if problems:
        raise RuntimeError("layer tracer self-check failed: " + "; ".join(problems))
