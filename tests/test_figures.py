"""The result registry: every entry declares its runs, renders its tables
and checks its shape.

The entries run on small results (web_search, 4,000 accesses), where many
shape checks fail by design; these tests check that every check yields a
verdict, not that the shapes hold (the benchmark harness checks those at
full trace length).  Each entry starts from an empty result memo, so it
sees only the runs its own declaration precomputed; a module-wide artifact
store keeps a run that several entries read from being simulated twice.
Figure 11 runs here at 4,000 accesses too, not at its 60,000-access floor;
its checks are tested on a hand-built sweep.
"""

import dataclasses

import pytest

from repro.analysis import experiments, figures, paper_data
from repro.analysis.figures import FIGURES, precompute
from repro.exec.campaign import CampaignResult
from repro.exec.store import ArtifactStore
from repro.sim.config import base_open

WORKLOADS = ["web_search"]
ACCESSES = 4_000


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return ArtifactStore(tmp_path_factory.mktemp("store"))


@pytest.fixture
def empty_memo(monkeypatch):
    monkeypatch.setattr(experiments, "_RESULT_CACHE", {})


def assert_one_verdict_per_check(figure, result):
    text = figure.render(result)
    assert text.startswith(("Figure", "Table", "Section", "Ablation"))
    assert f"Paper: {figure.paper[:20]}" in text
    suite = figure.validate(result)
    names = [check.name for check in suite.results]
    assert names, f"{figure.name} recorded no checks"
    assert len(set(names)) == len(names), "check names must be unique"
    assert all(isinstance(check.passed, bool) for check in suite.results)
    table = suite.render()
    assert all(name in table for name in names)
    return suite


def _unexpected_run(job, store=None):
    raise AssertionError(f"{job.label} is not in its entry's declared configs")


@pytest.mark.parametrize("name", list(FIGURES))
def test_entry_renders_and_checks_small_results(name, monkeypatch, store,
                                                empty_memo):
    """Each entry runs on its declared grid alone: after ``precompute``, an
    entry that reads an undeclared configuration reaches ``run_job``."""
    figure = FIGURES[name]
    if name == "figure11":
        figure = dataclasses.replace(figure, trace_length=lambda accesses: accesses)
    precompute([figure], WORKLOADS, ACCESSES, store=store)
    monkeypatch.setattr(experiments, "run_job", _unexpected_run)
    assert_one_verdict_per_check(figure, figure.run(WORKLOADS, ACCESSES))


def test_an_undeclared_configuration_is_caught(monkeypatch, store, empty_memo):
    figure = dataclasses.replace(
        FIGURES["table4"], configs=FIGURES["figure1"].configs)
    precompute([figure], WORKLOADS, ACCESSES, store=store)
    monkeypatch.setattr(experiments, "run_job", _unexpected_run)
    with pytest.raises(AssertionError, match="web_search/bump/n4000"):
        figure.run(WORKLOADS, ACCESSES)


def test_precompute_runs_each_run_once_per_trace_length(monkeypatch):
    """One campaign per trace length; a run several entries read is in it
    once, and a memoized run is not in it at all."""
    campaigns = []

    def record(jobs, **_kwargs):
        campaigns.append(sorted((job.num_accesses, job.config.name) for job in jobs))
        return CampaignResult(outcomes=[], elapsed_seconds=0.0)

    memoized = experiments.job_spec("web_search", base_open(), 1_000)
    monkeypatch.setattr(experiments, "_RESULT_CACHE",
                        {memoized.result_fingerprint(): None})
    monkeypatch.setattr(figures, "run_campaign", record)
    entries = [FIGURES[name] for name in ("figure2", "figure11", "figure13", "table4")]
    assert sorted(precompute(entries, WORKLOADS, 1_000)) == [1_000, 60_000]
    assert campaigns[0] == [(1_000, name) for name in (
        "base_close", "bump", "ideal", "sms", "sms_vwq", "vwq")]
    assert len(campaigns[1]) == 13 and (60_000, "base_open") in campaigns[1]


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
