"""End-to-end DRAM results held to the pins of the last two-engine commit.

Until the object DRAM engine was retired, every workload, named system
configuration and catalog scenario ran under both DRAM engines and the two
results had to be bit-identical.  ``engine_pins`` holds what those cells
produced; the one engine must still produce exactly that.  The ablation
cells pin the object engine's FCFS and bank round-robin results, which the
ported schedulers must reproduce.
"""

import functools

import pytest

from engine_pins import PINS

from repro.exec.campaign import result_fingerprint
from repro.scenario.catalog import get_scenario, scenario_names
from repro.scenario.runner import run_scenario
from repro.sim.config import named_configs
from repro.sim.runner import build_trace, run_trace, run_workload
from repro.workloads.catalog import workload_names

ACCESSES = 4_000
SCENARIO_SCALE = 0.004
DRAM = PINS["dram"]
ABLATION_SYSTEMS = ("bump", "base_close", "sms_vwq")
ABLATION_SCHEDULERS = ("fcfs", "bank_round_robin")


@functools.lru_cache(maxsize=None)
def _trace(workload):
    return build_trace(workload, ACCESSES)


def _run(workload, config, trace=None):
    if trace is None:
        trace = _trace(workload)
    return run_trace(trace, config, workload_name=workload)


@pytest.mark.slow
class TestWorkloadConfigMatrix:
    @pytest.mark.parametrize("workload", workload_names())
    def test_all_named_configs_bit_identical(self, workload):
        """6 workloads x 8 named configs, each equal to its pin."""
        trace = _trace(workload)
        for name, config in named_configs().items():
            result = _run(workload, config, trace)
            assert result_fingerprint(result) == DRAM["matrix"][workload][name], (
                f"{workload}/{name}: result drifted from the pin")


@pytest.mark.slow
class TestScenarioCatalog:
    @pytest.mark.parametrize("scenario_name", scenario_names())
    def test_catalog_scenarios_bit_identical(self, scenario_name):
        scenario = get_scenario(scenario_name, scale=SCENARIO_SCALE)
        config = named_configs(["bump"])["bump"]
        result = run_scenario(scenario, config)
        assert result_fingerprint(result) == DRAM["scenarios"][scenario_name]


@pytest.mark.slow
class TestAblationSchedulers:
    @pytest.mark.parametrize("workload", workload_names())
    def test_ported_schedulers_reproduce_the_object_engine(self, workload):
        """bump, base_close and sms_vwq under FCFS and bank round robin."""
        trace = _trace(workload)
        for name in ABLATION_SYSTEMS:
            for scheduler in ABLATION_SCHEDULERS:
                config = named_configs([name])[name].with_overrides(
                    scheduler=scheduler)
                result = _run(workload, config, trace)
                assert (result_fingerprint(result)
                        == DRAM["ablation"][workload][f"{name}/{scheduler}"]), (
                    f"{workload}/{name}/{scheduler}: result drifted from the "
                    "object engine's")


class TestEngineMatrix:
    def test_cache_and_dram_engines_compose(self):
        """The one engine matches the pinned cache x DRAM engine result."""
        config = named_configs(["bump"])["bump"]
        result = _run("web_search", config)
        assert result_fingerprint(result) == PINS["engine_matrix"]

    def test_streaming_path_threads_the_engine(self):
        config = named_configs(["base_open"])["base_open"]
        result = run_workload("data_serving", config,
                              num_accesses=ACCESSES, chunk_size=1024)
        assert result_fingerprint(result) == DRAM["streaming"]

    def test_streaming_chunk_size_invisible_under_flat_engine(self):
        """Batched DRAM intake must not leak chunk boundaries into results."""
        config = named_configs(["base_open"])["base_open"]
        results = [
            result_fingerprint(run_workload(
                "web_serving", config, num_accesses=ACCESSES,
                chunk_size=chunk))
            for chunk in (256, 1000, ACCESSES)
        ]
        assert len(set(results)) == 1
