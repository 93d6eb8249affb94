"""Tests for the experiment harness and reporting helpers.

The experiment functions are exercised end-to-end on a single workload with a
short trace; the goal is to validate shapes, keys and caching behaviour, not
the calibrated magnitudes (the benchmark harness checks those at full trace
length).
"""

import pytest

from repro.analysis import experiments, paper_data
from repro.analysis.experiments import (
    clear_result_cache,
    figure2_row_buffer_hit,
    figure3_traffic_breakdown,
    figure5_region_density,
    figure9_energy_per_access,
    figure10_performance,
    figure11_design_space,
    figure13_summary,
    table1_late_writes,
    table4_bump_row_hits,
)
from repro.analysis.reporting import (
    format_comparison,
    format_nested_mapping,
    format_percent,
    format_table,
)

WORKLOADS = ["web_search"]
ACCESSES = 30_000


@pytest.fixture(scope="module", autouse=True)
def _fresh_cache():
    clear_result_cache()
    yield
    clear_result_cache()


def test_figure2_shape_and_caching():
    table = figure2_row_buffer_hit(WORKLOADS, num_accesses=ACCESSES)
    assert set(table) == set(WORKLOADS)
    assert set(table["web_search"]) == {"base_open", "sms", "vwq", "ideal"}
    assert all(0.0 <= value <= 1.0 for value in table["web_search"].values())
    # A second call must be served from the result cache (same object).
    cached = figure2_row_buffer_hit(WORKLOADS, num_accesses=ACCESSES)
    assert cached == table
    assert len(experiments._RESULT_CACHE) >= 4


def test_figure3_fractions_sum_to_one():
    table = figure3_traffic_breakdown(WORKLOADS, num_accesses=ACCESSES)
    mix = table["web_search"]
    assert set(mix) == {"load_reads", "store_reads", "writes"}
    assert sum(mix.values()) == pytest.approx(1.0)


def test_figure5_and_table1_density_outputs():
    density = figure5_region_density(WORKLOADS, num_accesses=ACCESSES)
    entry = density["web_search"]
    assert set(entry["reads"]) == {"low", "medium", "high"}
    assert sum(entry["reads"].values()) == pytest.approx(1.0)
    late = table1_late_writes(WORKLOADS, num_accesses=ACCESSES)
    assert 0.0 <= late["web_search"] <= 1.0


def test_figure9_normalisation_reference_is_base_close():
    table = figure9_energy_per_access(WORKLOADS, num_accesses=ACCESSES)
    row = table["web_search"]
    assert row["base_close"]["normalized"] == pytest.approx(1.0)
    assert row["bump"]["total_nj"] > 0


def test_figure10_reports_relative_improvements():
    table = figure10_performance(WORKLOADS, num_accesses=ACCESSES)
    row = table["web_search"]
    assert set(row) == {"base_open", "full_region", "bump"}
    assert row["full_region"] < 0.0


def test_figure13_and_table4_summary():
    summary = figure13_summary(WORKLOADS, num_accesses=ACCESSES)
    assert set(summary) == {"base_close", "base_open", "sms", "vwq", "sms_vwq",
                            "bump", "ideal"}
    assert summary["base_close"]["energy_normalized"] == pytest.approx(1.0)
    table4 = table4_bump_row_hits(WORKLOADS, num_accesses=ACCESSES)
    assert 0.0 < table4["web_search"] <= 1.0


def test_figure11_cells_are_keyed_by_configuration_content():
    """Thresholds that share a rounded percentage are still distinct systems.

    0.28 and 0.289 both read "28%"; each cell must hold its own run, the
    one a 0.289-only sweep computes.
    """
    sweep = dict(workloads=WORKLOADS, region_sizes=(1024,), num_accesses=8000)
    clear_result_cache()
    alone = figure11_design_space(threshold_fractions=(0.289,), **sweep)
    clear_result_cache()
    both = figure11_design_space(threshold_fractions=(0.28, 0.289), **sweep)
    assert both[(1024, 0.289)] == alone[(1024, 0.289)]
    assert both[(1024, 0.28)] != both[(1024, 0.289)]


def test_paper_reference_values_are_self_consistent():
    assert set(paper_data.TABLE4_BUMP_ROW_HITS) == set(paper_data.WORKLOAD_ORDER)
    assert set(paper_data.TABLE1_LATE_WRITES) == set(paper_data.WORKLOAD_ORDER)
    ordered = paper_data.ROW_BUFFER_HIT_RATIO_AVG
    assert ordered["base_open"] < ordered["sms"] < ordered["vwq"] < ordered["sms_vwq"] \
        < ordered["bump"] < ordered["ideal"]


# --------------------------------------------------------------------- #
# Reporting helpers
# --------------------------------------------------------------------- #
def test_format_table_aligns_columns():
    text = format_table([["a", "1"], ["longer", "22"]], headers=["name", "value"])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("name")
    assert all(len(line) >= len("longer") for line in lines[2:])


def test_format_percent():
    assert format_percent(0.236) == "23.6%"
    assert format_percent(1.0, digits=0) == "100%"


def test_format_nested_mapping_and_comparison():
    table = {"web_search": {"a": 0.5, "b": 0.25}}
    text = format_nested_mapping(table, "workload", value_format="{:.2f}", title="T")
    assert "T" in text and "web_search" in text and "0.50" in text
    systems = format_nested_mapping({"bump": {"a": 0.5}}, "system")
    assert systems.splitlines()[0].split() == ["system", "a"]
    comparison = format_comparison({"x": 0.5}, {"x": 0.6}, title="C")
    assert "0.50" in comparison and "0.60" in comparison
    missing = format_comparison({"y": 0.5}, {}, title="C")
    assert "-" in missing
    assert format_nested_mapping({}, "workload") == ""
