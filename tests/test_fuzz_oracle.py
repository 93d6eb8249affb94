"""Fuzz oracle: cells, subsets, skip semantics, fault sensitivity."""

import pytest

from cache_faults import skew_flat_victims, skew_llc_victims
from dram_faults import drop_trcd
from repro.exec.campaign import result_fingerprint
from repro.fuzz import CHECKS, materialize, run_oracle
from repro.fuzz.oracle import (
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
            run_oracle(SPEC, checks=("dram", "vibes"))

    def test_malformed_spec_is_rejected(self):
        with pytest.raises(ValueError, match="format"):
            run_oracle(dict(SPEC, format=99))

    def test_perturbed_chunk_size_differs(self):
        for size in (64, 128, 256, 512, 1024, 2048):
            assert _perturbed_chunk_size(size) != size

    def test_lru_check_needs_no_reference_cell(self):
        report = run_oracle(SPEC, checks=("lru",))
        assert report.ok
        assert report.reference_fingerprint == result_fingerprint(
            _run_cell(materialize(SPEC)))
        assert [c.describe() for c in report.checks] == ["lru:default=ok"]

    def test_lru_and_dram_checks_shadow_one_run(self, monkeypatch):
        """Both references shadow the default run: the two checks together
        simulate the spec once."""
        runs = []
        real_run = ServerSystem.run

        def counted(self, *args, **kwargs):
            runs.append(self.config.name)
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(ServerSystem, "run", counted)
        report = run_oracle(SPEC, checks=("lru", "dram"))
        assert report.ok
        assert runs == ["bump"]
        assert [c.describe() for c in report.checks] == [
            "lru:default=ok", "dram:default=ok"]


class TestCounterIdentities:
    def test_a_healthy_run_satisfies_every_identity(self):
        result = _run_cell(materialize(SPEC))
        assert result.counters["llc_misses"] > 0
        assert identity_problems(result) == []

    def test_a_violation_names_the_identity_and_both_sides(self):
        result = _run_cell(materialize(SPEC))
        accesses = int(result.dram["accesses"])
        result.dram.inc("row_conflicts")
        assert identity_problems(result) == [
            "row_hits + row_misses + row_conflicts = dram accesses: "
            f"{accesses + 1} != {accesses}"]

    def test_the_oracle_checks_every_cell(self, monkeypatch):
        """A counting bug shared by every run moves no fingerprint apart;
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
        report = run_oracle(SPEC, checks=("lru", "dram"))
        assert not report.ok
        # The reference DRAM sees the transfers the skewed caches produce,
        # so the dram check passes; the reference LRU fails at the first
        # skewed victim.
        (failure,) = report.failures
        assert (failure.check, failure.cell) == ("lru", "default")
        assert "L1 access_chunk" in failure.detail

    def test_injected_llc_fault_alone_is_caught(self, monkeypatch):
        """With the L1 stage sound, the LLC array's wrong victim (the
        second least recently used line) fails the lru check at the first
        fill of a full set, on an LLC small enough to evict."""
        skew_llc_victims(monkeypatch)
        spec = dict(SPEC, config={"base": "bump",
                                  "overrides": {"llc_bytes": 32 * 1024}})
        report = run_oracle(spec, checks=("lru",))
        (failure,) = report.failures
        assert (failure.check, failure.cell) == ("lru", "default")
        assert "LLC fill" in failure.detail

    def test_injected_dram_fault_is_caught(self, monkeypatch):
        """A memory-system timing bug: the caches agree with the reference
        LRU, the memory system disagrees with the reference DRAM."""
        drop_trcd(monkeypatch)
        report = run_oracle(SPEC, checks=("lru", "dram"))
        (failure,) = report.failures
        assert (failure.check, failure.cell) == ("dram", "default")
        # The queues fill without serving until the warmup boundary drains
        # them; the first served activation shows the missing tRCD.
        assert failure.detail.startswith("call 3: DRAM drain: channel 0 ")

    def test_report_describe_names_the_failures(self, monkeypatch):
        skew_flat_victims(monkeypatch)
        report = run_oracle(SPEC, checks=("lru",))
        text = report.describe()
        assert "FAIL" in text and "lru:default" in text


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
                                        "arrival_cpi": 3.5,
                                        "scheduler": "bank_round_robin",
                                        "llc_bytes": 65536}}
        config = materialize(spec).config
        assert config.page_policy.name == "CLOSE"
        assert config.interleaving == "block"
        assert config.timing_model == "interval"
        assert config.arrival_cpi == 3.5
        assert config.scheduler == "bank_round_robin"
        assert config.system.llc.size_bytes == 65536
        assert config.system.llc.associativity == 16

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

    def test_bad_scheduler_is_rejected(self):
        spec = dict(SPEC)
        spec["config"] = {"base": "base_open",
                          "overrides": {"scheduler": "write_drain"}}
        with pytest.raises(ValueError, match="write_drain"):
            materialize(spec)

    @pytest.mark.parametrize("size", [16 * 1024, 8 * 1024 * 1024, 96 * 1024,
                                      "65536", 65536.0, True])
    def test_bad_llc_bytes_is_rejected(self, size):
        spec = dict(SPEC)
        spec["config"] = {"base": "base_open",
                          "overrides": {"llc_bytes": size}}
        with pytest.raises(ValueError, match="llc_bytes"):
            materialize(spec)
