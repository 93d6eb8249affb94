"""Fuzz oracle: cells, subsets, skip semantics, fault sensitivity."""

import pytest

from cache_faults import skew_flat_victims
from repro.exec.campaign import result_fingerprint
from repro.fuzz import CHECKS, materialize, run_oracle
from repro.fuzz.oracle import (
    REFERENCE_CELL,
    _perturbed_chunk_size,
    _run_cell,
    identity_problems,
)
from repro.sim.system import ServerSystem

#: A small hand-written spec covering two tenants, a burst, an idle core and
#: a warmup split -- every check runs, nothing is slow.
SPEC = {
    "format": 1,
    "label": "oracle-unit",
    "seed": 7,
    "warmup_fraction": 0.3,
    "chunk_size": 128,
    "scenario": {
        "num_cores": 4,
        "phases": [
            {"name": "p0", "accesses": 800,
             "bursts": [[0.2, 0.4, 2.0]],
             "tenants": [
                 {"workload": "web_search", "cores": [0, 1]},
                 {"workload": "data_serving", "cores": [2],
                  "intensity": 1.5},
             ]},
        ],
    },
    "config": {"base": "bump"},
}


class TestHealthyOracle:
    def test_all_checks_pass_on_a_valid_spec(self):
        report = run_oracle(SPEC)
        assert report.ok
        assert report.failed_checks == []
        ran = {c.check for c in report.checks if not c.skipped}
        assert ran == set(CHECKS)

    def test_check_subset_runs_only_that_axis(self):
        report = run_oracle(SPEC, checks=("chunk",))
        assert report.ok
        assert {c.check for c in report.checks} == {"chunk"}

    def test_snapshot_check_skipped_without_warmup(self):
        spec = dict(SPEC, warmup_fraction=0.0)
        report = run_oracle(spec, checks=("snapshot",))
        assert report.ok
        (check,) = report.checks
        assert check.skipped

    def test_unknown_check_is_rejected(self):
        with pytest.raises(ValueError, match="unknown oracle checks"):
            run_oracle(SPEC, checks=("cube", "vibes"))

    def test_malformed_spec_is_rejected(self):
        with pytest.raises(ValueError, match="format"):
            run_oracle(dict(SPEC, format=99))

    def test_perturbed_chunk_size_differs(self):
        for size in (64, 128, 256, 512, 1024, 2048):
            assert _perturbed_chunk_size(size) != size

    def test_reference_cell_is_the_object_engines(self):
        assert REFERENCE_CELL == ("flat", "object")

    def test_lru_check_needs_no_reference_cell(self):
        report = run_oracle(SPEC, checks=("lru",))
        assert report.ok
        assert report.reference_fingerprint is None
        assert [c.describe() for c in report.checks] == ["lru:flat/flat=ok"]

    def test_lru_check_shadows_the_cube_run(self, monkeypatch):
        """The cube's flat/flat cell is the lru check's shadowed run: the two
        checks together simulate the spec twice (reference included)."""
        runs = []
        real_run = ServerSystem.run

        def counted(self, *args, **kwargs):
            runs.append(self.dram_engine)
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(ServerSystem, "run", counted)
        report = run_oracle(SPEC, checks=("lru", "cube"))
        assert report.ok
        assert sorted(runs) == ["flat", "object"]


class TestCounterIdentities:
    def test_a_healthy_run_satisfies_every_identity(self):
        result = _run_cell(materialize(SPEC), REFERENCE_CELL)
        assert result.counters["llc_misses"] > 0
        assert identity_problems(result) == []

    def test_a_violation_names_the_identity_and_both_sides(self):
        result = _run_cell(materialize(SPEC), REFERENCE_CELL)
        misses = int(result.counters["llc_misses"])
        result.llc.inc("demand_misses")
        assert identity_problems(result) == [
            f"llc demand_misses = llc_misses: {misses + 1} != {misses}"]

    def test_the_oracle_checks_every_cell(self, monkeypatch):
        """A counting bug shared by every cell moves no fingerprint apart;
        the identities still catch it."""
        collect = ServerSystem._collect_results

        def miscounted(self):
            result = collect(self)
            result.counters.inc("accesses")
            return result

        monkeypatch.setattr(ServerSystem, "_collect_results", miscounted)
        report = run_oracle(SPEC)
        assert report.failed_checks == list(CHECKS)
        for check in report.failures:
            assert check.detail.startswith(
                "accesses = l1_hits + llc_hits + llc_misses: ")


class TestFaultSensitivity:
    def test_injected_flat_cache_fault_is_caught(self, monkeypatch):
        """The oracle exists to see exactly this: a cache bug the fixed
        pins might miss on their hand-picked inputs."""
        skew_flat_victims(monkeypatch)
        report = run_oracle(SPEC, checks=("lru", "cube"))
        assert not report.ok
        # Both DRAM cells run the skewed caches, so the cube sees no
        # difference; the reference LRU does, at the first skewed victim.
        (failure,) = report.failures
        assert (failure.check, failure.cell) == ("lru", "flat/flat")
        assert "L1 access_chunk" in failure.detail

    def test_report_describe_names_the_failures(self, monkeypatch):
        skew_flat_victims(monkeypatch)
        report = run_oracle(SPEC, checks=("lru",))
        text = report.describe()
        assert "FAIL" in text and "lru:flat/flat" in text


class TestMaterialize:
    def test_round_trips_the_declared_surface(self):
        case = materialize(SPEC)
        assert case.scenario.num_cores == 4
        assert case.total_accesses == 800
        assert case.warmup_accesses == 240
        assert case.config.name == "bump"
        (phase,) = case.scenario.phases
        assert phase.active_cores == (0, 1, 2)   # core 3 idle
        assert phase.bursts[0].intensity == 2.0

    def test_overrides_decode_and_validate(self):
        spec = dict(SPEC)
        spec["config"] = {"base": "base_open",
                          "overrides": {"page_policy": "close",
                                        "interleaving": "block",
                                        "timing_model": "interval",
                                        "arrival_cpi": 3.5}}
        config = materialize(spec).config
        assert config.page_policy.name == "CLOSE"
        assert config.interleaving == "block"
        assert config.timing_model == "interval"
        assert config.arrival_cpi == 3.5

    def test_unknown_override_is_rejected(self):
        spec = dict(SPEC)
        spec["config"] = {"base": "base_open",
                          "overrides": {"use_bump": True}}
        with pytest.raises(ValueError, match="unsupported configuration"):
            materialize(spec)

    def test_unknown_base_config_is_rejected(self):
        spec = dict(SPEC)
        spec["config"] = {"base": "warp_drive"}
        with pytest.raises(ValueError, match="warp_drive"):
            materialize(spec)

    def test_bad_page_policy_is_rejected(self):
        spec = dict(SPEC)
        spec["config"] = {"base": "base_open",
                          "overrides": {"page_policy": "ajar"}}
        with pytest.raises(ValueError, match="ajar"):
            materialize(spec)
