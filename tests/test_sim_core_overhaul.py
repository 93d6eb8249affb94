"""Guards for the simulation-core overhaul.

* Cycle accumulation must round identically for any core count.
* ``ServerSystem.run`` must begin measurement when the trace length equals
  the warmup interval and raise only when the trace is strictly shorter.
"""

import numpy as np
import pytest

from engine_pins import PINS
from repro.common.addressing import BLOCK_BITS
from repro.sim.config import base_open
from repro.sim.runner import build_trace
from repro.sim.system import ServerSystem
from repro.trace.buffer import TraceBuffer


def _distinct_gap_trace(cores: int, accesses: int = 4_000) -> TraceBuffer:
    """A random trace in which every row carries its own instruction gap."""
    rng = np.random.default_rng(9)
    core = rng.integers(0, cores, accesses).astype(np.int32)
    offsets = rng.integers(0, 2_048, accesses).astype(np.uint64)
    address = (core.astype(np.uint64) << np.uint64(32)) | \
        (offsets << np.uint64(BLOCK_BITS))
    pc = np.full(accesses, 0x400000, dtype=np.uint64)
    is_store = rng.random(accesses) < 0.3
    instructions = rng.permutation(np.arange(1, accesses + 1, dtype=np.int32))
    return TraceBuffer(core, pc, address, is_store, instructions)


def test_engines_bit_identical_with_non_power_of_two_cores():
    """Cycle accumulation must round identically for any core count.

    Regression: folding ``instructions * cpi / cores`` into one precomputed
    factor rounds differently when ``cores`` is not a power of two, which
    shifted DRAM arrival cycles and broke parity with the per-access dict
    engine.  The runs are held to the cycle count and result both cache
    engines agreed on (``engine_pins``).  The second trace gives every row a
    distinct instruction gap, so each row's cycle increment is computed
    afresh.
    """
    from repro.common.params import SystemParams
    from repro.exec.campaign import result_fingerprint

    config = base_open(system=SystemParams().scaled(num_cores=12))
    traces = {"web_search": build_trace("web_search", 3_000, num_cores=12,
                                        seed=5),
              "distinct_gaps": _distinct_gap_trace(12)}
    assert len(np.unique(traces["distinct_gaps"].instructions)) >= 3_000
    for label, trace in traces.items():
        pin = PINS["non_power_of_two_cores"][label]
        system = ServerSystem(config)
        result = system.run(trace, warmup_accesses=len(trace) * 2 // 5)
        assert system._core_cycle == pin["core_cycle"]
        assert result_fingerprint(result) == pin["fingerprint"]


# --------------------------------------------------------------------- #
# Warmup boundary
# --------------------------------------------------------------------- #
def _trace(n):
    return build_trace("web_search", n, num_cores=4, seed=3)


def test_warmup_equal_to_trace_length_begins_measurement():
    """A trace exactly as long as the warmup measures zero accesses, no error."""
    system = ServerSystem(base_open())
    result = system.run(_trace(1_000), warmup_accesses=1_000)
    assert result.counters["accesses"] == 0


def test_warmup_longer_than_trace_raises():
    system = ServerSystem(base_open())
    with pytest.raises(ValueError, match="shorter than the requested warmup"):
        system.run(_trace(999), warmup_accesses=1_000)


def test_warmup_shorter_than_trace_measures_the_tail():
    system = ServerSystem(base_open())
    result = system.run(_trace(1_000), warmup_accesses=600)
    assert result.counters["accesses"] == 400
