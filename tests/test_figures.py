"""The figure registry: every entry renders its tables and checks its shape.

The entries run on small results (web_search, 4,000 accesses), where many
shape checks fail by design; these tests check that every check yields a
verdict, not that the shapes hold (the benchmark harness checks those at
full trace length).  Figure 11 runs on a hand-built sweep, so tier-1 does
not simulate its 60,000-access floor.
"""

import pytest

from repro.analysis import paper_data
from repro.analysis.experiments import clear_result_cache
from repro.analysis.figures import FIGURES

WORKLOADS = ["web_search"]
ACCESSES = 4_000
SIMULATED = [name for name in FIGURES if name != "figure11"]


@pytest.fixture(scope="module", autouse=True)
def _fresh_cache():
    clear_result_cache()
    yield
    clear_result_cache()


def assert_one_verdict_per_check(figure, result):
    text = figure.render(result)
    assert text.startswith(("Figure", "Table"))
    assert f"Paper: {figure.paper[:20]}" in text
    suite = figure.validate(result)
    names = [check.name for check in suite.results]
    assert names, f"{figure.name} recorded no checks"
    assert len(set(names)) == len(names), "check names must be unique"
    assert all(isinstance(check.passed, bool) for check in suite.results)
    table = suite.render()
    assert all(name in table for name in names)
    return suite


@pytest.mark.parametrize("name", SIMULATED)
def test_entry_renders_and_checks_small_results(name):
    figure = FIGURES[name]
    assert_one_verdict_per_check(figure, figure.run(WORKLOADS, ACCESSES))


def design_space_sweep(chosen=0.30):
    """A Figure 11 sweep shaped like the paper's: (1 KB, 50%) is best."""
    sweep = {(size, threshold): 0.10 + 0.05 * threshold
             for size in (512, 1024, 2048)
             for threshold in (0.25, 0.5, 0.75, 1.0)}
    sweep[(1024, 0.5)] = chosen
    return sweep


def test_figure11_renders_and_checks_a_hand_built_sweep():
    figure = FIGURES["figure11"]
    suite = assert_one_verdict_per_check(figure, design_space_sweep())
    # Six selective-threshold points, the chosen point, and two comparisons.
    assert len(suite.results) == 9
    assert suite.passed, suite.render()
    failed = [check.name for check in figure.validate(
        design_space_sweep(chosen=0.05)).failures()]
    assert failed == ["paper's design point (1024 B, 50%) vs the best",
                      "paper's design point vs (512 B, 100%)"]


def test_figure11_trace_length_is_the_design_space_floor():
    assert FIGURES["figure11"].trace_length(ACCESSES) == 60_000
    assert FIGURES["figure2"].trace_length(ACCESSES) == ACCESSES


def test_failing_check_names_its_rule_and_workload():
    table = {"data_serving": {"load_reads": 0.6, "store_reads": 0.3, "writes": 0.1}}
    suite = FIGURES["figure3"].validate(table)
    assert [check.name for check in suite.failures()] == [
        "write share > 0.12 (data_serving)"]
    assert "FAIL" in suite.render()


def test_paper_values_quoted_by_figures_2_and_9():
    assert paper_data.ROW_BUFFER_HIT_RATIO_AVG["ideal"] == 0.77
    assert paper_data.BUMP_ENERGY_REDUCTION_VS_OPEN == 0.23
