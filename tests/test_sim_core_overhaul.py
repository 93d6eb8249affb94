"""Guards for the simulation-core overhaul.

* Cycle accumulation must round identically for any core count: the
  registry's ``non_power_of_two_cores`` cells (``test_golden_pins``) pin
  12-core runs, one of them on a trace whose every row carries its own
  instruction gap.
* ``ServerSystem.run`` must begin measurement when the trace length equals
  the warmup interval and raise only when the trace is strictly shorter.
"""

import numpy as np
import pytest

from test_golden_pins import distinct_gap_trace

from repro.sim.config import base_open
from repro.sim.runner import build_trace
from repro.sim.system import ServerSystem


def test_distinct_gap_trace_gives_every_row_its_own_gap():
    """So each row's cycle increment in the pinned 12-core cell is computed afresh."""
    assert len(np.unique(distinct_gap_trace(12).instructions)) >= 3_000


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
