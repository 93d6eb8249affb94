"""Interval timing model through the streaming and scenario paths.

``timing_model="interval"`` was previously exercised only by the
timing-sensitivity ablation.  Its results on the two production paths
(streaming single workloads and compiled scenarios) are the registry's
``interval_streaming``, ``dram.interval_streaming`` and
``interval_scenario`` cells (``test_golden_pins``), the TimingSummary-derived
fields bit for bit.  These tests cover its constructor validation, the
zero-miss edge where ``instructions_per_miss`` is infinite, and that the
knob selects a different model.
"""

import math

import numpy as np
import pytest

from repro.cpu.interval import IntervalTimingModel
from repro.sim.config import base_open
from repro.sim.runner import run_trace, run_workload
from repro.trace.buffer import TraceBuffer

ACCESSES = 4_000


def _interval(config_factory):
    return config_factory().with_overrides(timing_model="interval")


class TestValidation:
    def test_defaults_construct(self):
        model = IntervalTimingModel()
        assert model.params is not None

    @pytest.mark.parametrize("independence", [0.0, -0.1, 1.5])
    def test_independence_must_be_in_unit_interval_exclusive_zero(self, independence):
        with pytest.raises(ValueError, match="independence"):
            IntervalTimingModel(independence=independence)

    def test_independence_of_exactly_one_is_allowed(self):
        assert IntervalTimingModel(independence=1.0) is not None

    @pytest.mark.parametrize("mshr", [0, -3])
    def test_mshr_entries_must_be_positive(self, mshr):
        with pytest.raises(ValueError, match="mshr_entries"):
            IntervalTimingModel(mshr_entries=mshr)


class TestZeroMissGuard:
    def test_infinite_instructions_per_miss_yields_finite_cycles(self):
        """A zero-miss run must produce finite, non-NaN cycle counts."""
        model = IntervalTimingModel()
        summary = model.summarize(
            instructions=1_000_000.0,
            load_demand_misses=0.0,
            covered_loads=0.0,
            llc_load_hits=500.0,
            average_dram_latency_bus_cycles=0.0,
            dram_elapsed_bus_cycles=0.0,
        )
        for field in ("cycles", "base_cycles", "stall_cycles",
                      "throughput_ipc", "elapsed_seconds"):
            value = getattr(summary, field)
            assert math.isfinite(value), field
            assert not math.isnan(value), field
        assert summary.cycles > 0.0
        assert summary.throughput_ipc > 0.0

    def test_l1_resident_interval_run_is_finite(self):
        """End to end: a trace with no LLC load misses under the interval model."""
        cores = 16
        n = 2_000
        rng = np.random.default_rng(0)
        core = rng.integers(0, cores, n).astype(np.int32)
        # One block per core: after the cold miss everything hits the L1.
        address = (core.astype(np.uint64) << np.uint64(32))
        pc = np.full(n, 0x400000, dtype=np.uint64)
        is_store = np.zeros(n, dtype=bool)
        instructions = np.ones(n, dtype=np.int32)
        trace = TraceBuffer(core, pc, address, is_store, instructions)
        result = run_trace(trace, _interval(base_open), warmup_fraction=0.5)
        assert math.isfinite(result.cycles) and not math.isnan(result.cycles)
        assert math.isfinite(result.throughput_ipc)
        assert result.cycles > 0.0


class TestEngineParity:
    def test_interval_differs_from_analytic(self):
        """Sanity: the knob actually selects a different model."""
        analytic = run_workload("web_search", base_open(),
                                num_accesses=ACCESSES)
        interval = run_workload("web_search", _interval(base_open),
                                num_accesses=ACCESSES)
        assert analytic.cycles != interval.cycles
