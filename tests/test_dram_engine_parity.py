"""End-to-end DRAM engine parity: flat vs object, bit-identical everywhere.

The acceptance bar for the flat DRAM engine is the same one the cache
engines meet: for every workload, every named system configuration and the
whole scenario catalog, a simulation run under ``dram_engine="flat"`` must
produce the *identical* :class:`SimulationResult` (same fingerprint over
every counter, latency accumulator and energy figure) as one run under
``dram_engine="object"``.  A spot-check cell also holds both DRAM engines to
the result the flat and dict cache engines agreed on (``engine_pins``).
"""

import pytest

from engine_pins import PINS

from repro.exec.campaign import result_fingerprint
from repro.scenario.catalog import get_scenario, scenario_names
from repro.scenario.runner import run_scenario
from repro.sim.config import named_configs
from repro.sim.runner import build_trace, run_trace, run_workload_streaming
from repro.workloads.catalog import workload_names

ACCESSES = 4_000
SCENARIO_SCALE = 0.004


def _run(workload, config, dram_engine):
    trace = build_trace(workload, ACCESSES)
    return run_trace(trace, config, workload_name=workload,
                     dram_engine=dram_engine)


@pytest.mark.slow
class TestWorkloadConfigMatrix:
    @pytest.mark.parametrize("workload", workload_names())
    def test_all_named_configs_bit_identical(self, workload):
        """6 workloads x 8 named configs: flat == object, bit for bit."""
        for name, config in named_configs().items():
            flat = _run(workload, config, "flat")
            obj = _run(workload, config, "object")
            assert result_fingerprint(flat) == result_fingerprint(obj), (
                f"{workload}/{name}: flat and object DRAM engines diverged")


@pytest.mark.slow
class TestScenarioCatalog:
    @pytest.mark.parametrize("scenario_name", scenario_names())
    def test_catalog_scenarios_bit_identical(self, scenario_name):
        scenario = get_scenario(scenario_name, scale=SCENARIO_SCALE)
        config = named_configs(["bump"])["bump"]
        flat = run_scenario(scenario, config, dram_engine="flat")
        obj = run_scenario(scenario, config, dram_engine="object")
        assert result_fingerprint(flat) == result_fingerprint(obj), (
            f"{scenario_name}: flat and object DRAM engines diverged")


class TestEngineMatrix:
    def test_cache_and_dram_engines_compose(self):
        """Both DRAM engines match the pinned cache x DRAM engine result."""
        config = named_configs(["bump"])["bump"]
        for dram in ("flat", "object"):
            result = _run("web_search", config, dram)
            assert result_fingerprint(result) == PINS["engine_matrix"], dram

    def test_streaming_path_threads_the_engine(self):
        config = named_configs(["base_open"])["base_open"]
        flat = run_workload_streaming("data_serving", config,
                                      num_accesses=ACCESSES, chunk_size=1024,
                                      dram_engine="flat")
        obj = run_workload_streaming("data_serving", config,
                                     num_accesses=ACCESSES, chunk_size=1024,
                                     dram_engine="object")
        assert result_fingerprint(flat) == result_fingerprint(obj)

    def test_streaming_chunk_size_invisible_under_flat_engine(self):
        """Batched DRAM intake must not leak chunk boundaries into results."""
        config = named_configs(["base_open"])["base_open"]
        results = [
            result_fingerprint(run_workload_streaming(
                "web_serving", config, num_accesses=ACCESSES,
                chunk_size=chunk, dram_engine="flat"))
            for chunk in (256, 1000, ACCESSES)
        ]
        assert len(set(results)) == 1

    def test_server_system_reports_effective_engine(self):
        from repro.sim.config import base_open
        from repro.sim.system import ServerSystem

        assert ServerSystem(base_open(), dram_engine="flat").dram_engine == "flat"
        assert ServerSystem(base_open(), dram_engine="object").dram_engine == "object"
        # Ablation-only schedulers only exist in the object engine.
        fcfs = base_open().with_overrides(scheduler="fcfs")
        assert ServerSystem(fcfs, dram_engine="flat").dram_engine == "object"
