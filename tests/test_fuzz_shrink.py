"""Shrinker: an injected fault must reduce to a minimal reproducer."""

import copy
import json

import pytest

from cache_faults import skew_flat_victims
from dram_faults import drop_trcd
from repro.fuzz import (
    generate_spec,
    load_spec,
    materialize,
    run_oracle,
    save_spec,
    shrink,
)

#: A deliberately bulky failing input: three phases, multi-tenant, bursts,
#: overrides and a warmup split -- plenty of structure for the shrinker to cut.
BULKY = {
    "format": 1,
    "label": "shrink-unit",
    "seed": 11,
    "warmup_fraction": 0.25,
    "chunk_size": 256,
    "scenario": {
        "num_cores": 8,
        "phases": [
            {"name": "ramp", "accesses": 600, "intensity": 1.2,
             "bursts": [[0.1, 0.3, 1.8]],
             "tenants": [
                 {"workload": "web_search", "cores": [0, 1]},
                 {"workload": "data_serving", "cores": [2, 3],
                  "intensity": 1.4},
                 {"workload": "media_streaming", "cores": [4]},
             ]},
            {"name": "steady", "accesses": 500,
             "tenants": [
                 {"workload": "web_search", "cores": [0, 1, 2, 3]},
                 {"workload": "data_serving", "cores": [5, 6]},
             ]},
            {"name": "tail", "accesses": 400,
             "tenants": [
                 {"workload": "media_streaming", "cores": [0]},
             ]},
        ],
    },
    "config": {"base": "bump",
               "overrides": {"page_policy": "close", "arrival_cpi": 2.5}},
}


@pytest.fixture
def flat_cache_fault(monkeypatch):
    """Rotate the flat cache's eviction victim by one way: the canonical
    replacement bug the oracle's reference LRU exists to catch."""
    skew_flat_victims(monkeypatch)


class TestShrinkWithInjectedFault:
    def test_converges_to_a_minimal_reproducer(self, flat_cache_fault):
        result = shrink(BULKY, checks=("lru",))
        assert result.phases <= 1
        assert result.tenants <= 2
        assert result.total_accesses <= 600
        assert result.steps, "at least one reduction must be accepted"
        assert result.spec["label"] == "shrink-unit-min"

    def test_minimal_spec_still_fails(self, flat_cache_fault):
        result = shrink(BULKY, checks=("lru",))
        assert not run_oracle(result.spec, checks=("lru",)).ok

    def test_input_spec_is_not_mutated(self, flat_cache_fault):
        pristine = copy.deepcopy(BULKY)
        shrink(BULKY, checks=("lru",))
        assert BULKY == pristine

    def test_reproducer_round_trips_through_the_corpus(
            self, flat_cache_fault, tmp_path):
        result = shrink(BULKY, checks=("lru",))
        path = tmp_path / "reproducer.json"
        save_spec(result.spec, path)
        replayed = load_spec(path)
        assert replayed == result.spec
        assert not run_oracle(replayed, checks=("lru",)).ok

    def test_attempts_respect_the_budget(self, flat_cache_fault):
        result = shrink(BULKY, checks=("lru",), max_attempts=3)
        assert result.attempts <= 3

    def test_converges_on_a_dram_fault(self, monkeypatch):
        drop_trcd(monkeypatch)
        result = shrink(BULKY, checks=("dram",))
        assert result.phases <= 1
        assert result.tenants <= 2
        assert result.total_accesses <= 600
        assert not run_oracle(result.spec, checks=("dram",)).ok


class TestShrinkGuards:
    def test_passing_spec_is_rejected(self):
        with pytest.raises(ValueError, match="nothing to shrink"):
            shrink(BULKY, checks=("dram",))

    def test_custom_predicate_drives_the_reduction(self):
        """No simulator involved: shrink against a pure structural predicate."""
        calls = []

        def has_web_search(spec):
            calls.append(1)
            return any(t["workload"] == "web_search"
                       for p in spec["scenario"]["phases"]
                       for t in p["tenants"])

        result = shrink(BULKY, is_failing=has_web_search)
        predicate_calls = len(calls)
        # Called once up-front plus at most once per attempt (invalid
        # candidates are discarded before the predicate runs).
        assert 1 <= predicate_calls <= result.attempts + 1
        assert has_web_search(result.spec)
        assert result.phases == 1
        assert result.tenants == 1

    def test_custom_predicate_must_fail_initially(self):
        with pytest.raises(ValueError, match="does not fail"):
            shrink(BULKY, is_failing=lambda spec: False)

    def test_shrunk_generator_spec_stays_valid(self):
        """Shrinking generator output yields specs materialize() accepts."""
        spec = generate_spec(2, 3)
        result = shrink(spec, is_failing=lambda s: True, max_attempts=40)
        materialize(result.spec)

    def test_reproducer_is_json_stable(self, flat_cache_fault, tmp_path):
        result = shrink(BULKY, checks=("lru",))
        path = tmp_path / "stable.json"
        save_spec(result.spec, path)
        text = path.read_text()
        assert json.loads(text) == json.loads(text)  # valid, parseable JSON
        assert "\n" in text  # pretty-printed for human review
