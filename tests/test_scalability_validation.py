"""Tests for the Section VI scalability analysis and the validation suite."""

import pytest

from repro.analysis.scalability import (
    REFERENCE_CORES,
    REFERENCE_LLC_BYTES,
    scaled_bump_config,
    scaling_summary,
    storage_budget,
    storage_scaling_table,
    virtualization_storage_table,
)
from repro.analysis.figures import FIGURES
from repro.analysis.validation import CheckKind, ValidationSuite
from repro.core.config import BuMPConfig


def figure13_checks(summary):
    """Figure 13's registry checks on a hand-built summary.

    The summaries give energy normalised to Base-close; the checks also
    read it in nanojoules, taken here as 10 nJ for Base-close.
    """
    return FIGURES["figure13"].validate({
        name: dict(row, energy_per_access_nj=10.0 * row["energy_normalized"])
        for name, row in summary.items()})


class TestScaledBuMPConfig:
    def test_reference_point_is_unchanged(self):
        config = scaled_bump_config()
        default = BuMPConfig()
        assert config.trigger_entries == default.trigger_entries
        assert config.density_entries == default.density_entries
        assert config.bht_entries == default.bht_entries
        assert config.drt_entries == default.drt_entries

    def test_rdtt_scales_with_cores(self):
        doubled = scaled_bump_config(num_cores=32)
        assert doubled.trigger_entries == 2 * BuMPConfig().trigger_entries
        assert doubled.density_entries == 2 * BuMPConfig().density_entries
        # Core count does not touch the DRT (LLC-capacity bound).
        assert doubled.drt_entries == BuMPConfig().drt_entries

    def test_drt_scales_with_llc(self):
        bigger_llc = scaled_bump_config(llc_bytes=2 * REFERENCE_LLC_BYTES)
        assert bigger_llc.drt_entries == 2 * BuMPConfig().drt_entries
        assert bigger_llc.trigger_entries == BuMPConfig().trigger_entries

    def test_bht_scales_with_consolidated_workloads(self):
        virtualized = scaled_bump_config(workloads_sharing=16)
        assert virtualized.bht_entries == 16 * BuMPConfig().bht_entries

    def test_entries_stay_multiples_of_associativity(self):
        config = scaled_bump_config(num_cores=24, llc_bytes=int(1.5 * REFERENCE_LLC_BYTES),
                                    workloads_sharing=3)
        for entries in (config.trigger_entries, config.density_entries,
                        config.bht_entries, config.drt_entries):
            assert entries % config.associativity == 0

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            scaled_bump_config(num_cores=0)
        with pytest.raises(ValueError):
            scaled_bump_config(workloads_sharing=0)


class TestStorageBudgets:
    def test_native_budget_matches_section4d(self):
        budget = storage_budget()
        # Section IV.D: ~14KB total (2.5 + 3 + 4.5 + 4.25).
        assert 10.0 < budget.total_kib < 20.0
        assert 2.0 < budget.rdtt_kib < 9.0
        assert budget.per_core_kib < 2.0

    def test_virtualized_bht_matches_section6(self):
        summary = scaling_summary()
        # Section VI: 72KB BHT and ~5KB per core with one workload per core.
        assert summary["virtualized_bht_kib"] == pytest.approx(72.0, rel=0.35)
        assert summary["virtualized_per_core_kib"] == pytest.approx(5.0, rel=0.5)
        assert summary["native_total_kib"] < summary["virtualized_total_kib"]

    def test_scaling_table_grows_monotonically(self):
        table = storage_scaling_table(core_counts=(16, 32, 64))
        totals = [entry.total_kib for entry in table]
        assert totals == sorted(totals)
        per_core = [entry.per_core_kib for entry in table]
        # Per-core cost stays roughly flat (the scalability claim).
        assert max(per_core) < 2.5 * min(per_core)

    def test_virtualization_table_grows_with_workloads(self):
        table = virtualization_storage_table(workload_counts=(1, 4, 16))
        bht = [entry.bht_kib for entry in table]
        assert bht == sorted(bht)
        assert table[-1].workloads_sharing == 16


class TestValidationSuite:
    def test_relative_check(self):
        suite = ValidationSuite()
        assert suite.check_relative("close", measured=0.22, reference=0.23, tolerance=0.2)
        assert not suite.check_relative("far", measured=0.50, reference=0.23, tolerance=0.2)
        assert suite.pass_count == 1
        assert not suite.passed
        assert len(suite.failures()) == 1

    def test_relative_check_with_zero_reference(self):
        suite = ValidationSuite()
        assert suite.check_relative("zero", measured=0.05, reference=0.0, tolerance=0.1)
        assert not suite.check_relative("zero-fail", measured=0.5, reference=0.0, tolerance=0.1)

    def test_range_check_with_slack(self):
        suite = ValidationSuite()
        assert suite.check_range("in", measured=0.30, low=0.21, high=0.38)
        assert not suite.check_range("out", measured=0.60, low=0.21, high=0.38)
        assert suite.check_range("slack", measured=0.40, low=0.21, high=0.38, slack=0.2)

    def test_ordering_check(self):
        suite = ValidationSuite()
        values = {"base": 0.2, "sms": 0.3, "bump": 0.55}
        assert suite.check_ordering("order", values, ["base", "sms", "bump"])
        assert not suite.check_ordering("bad", values, ["bump", "sms", "base"])
        equal = {"a": 0.5, "b": 0.5}
        assert suite.check_ordering("ties ok", equal, ["a", "b"])
        assert not suite.check_ordering("strict ties", equal, ["a", "b"], strict=True)

    def test_predicate_check_and_render(self):
        suite = ValidationSuite("demo")
        suite.check_predicate("positive", 0.11, lambda v: v > 0, "> 0")
        report = suite.render()
        assert "demo: 1/1 checks passed" in report
        assert "PASS" in report
        assert suite.results[0].kind is CheckKind.PREDICATE

    def test_validate_headline_results_passes_on_paper_shaped_summary(self):
        summary = {
            "base_close": {"row_buffer_hit_ratio": 0.10, "energy_normalized": 1.00},
            "base_open": {"row_buffer_hit_ratio": 0.21, "energy_normalized": 0.86},
            "sms": {"row_buffer_hit_ratio": 0.30, "energy_normalized": 0.80},
            "vwq": {"row_buffer_hit_ratio": 0.36, "energy_normalized": 0.76},
            "sms_vwq": {"row_buffer_hit_ratio": 0.44, "energy_normalized": 0.72},
            "bump": {"row_buffer_hit_ratio": 0.55, "energy_normalized": 0.66},
            "ideal": {"row_buffer_hit_ratio": 0.77, "energy_normalized": 0.55},
        }
        suite = figure13_checks(summary)
        assert suite.passed, suite.render()

    def test_validate_headline_results_flags_broken_ordering(self):
        summary = {
            "base_close": {"row_buffer_hit_ratio": 0.10, "energy_normalized": 1.00},
            "base_open": {"row_buffer_hit_ratio": 0.50, "energy_normalized": 0.86},
            "sms": {"row_buffer_hit_ratio": 0.30, "energy_normalized": 0.90},
            "vwq": {"row_buffer_hit_ratio": 0.36, "energy_normalized": 0.95},
            "sms_vwq": {"row_buffer_hit_ratio": 0.44, "energy_normalized": 0.99},
            "bump": {"row_buffer_hit_ratio": 0.45, "energy_normalized": 1.00},
            "ideal": {"row_buffer_hit_ratio": 0.77, "energy_normalized": 0.55},
        }
        suite = figure13_checks(summary)
        assert not suite.passed
        failed = [result.name for result in suite.failures()]
        assert "hit ratio: base_open < sms < bump" in failed
