"""Job grid expansion and content fingerprints (repro.exec.jobs)."""

import pytest

from repro.core.config import BuMPConfig
from repro.exec.jobs import (
    JobGrid,
    JobSpec,
    config_fingerprint,
    fingerprint,
    workload_fingerprint,
)
from repro.sim.config import base_open, bump_system
from repro.workloads.catalog import get_workload


class TestFingerprints:
    def test_equal_configs_fingerprint_equal(self):
        assert config_fingerprint(bump_system()) == config_fingerprint(bump_system())

    def test_fingerprint_is_content_based_not_name_based(self):
        renamed = bump_system().with_overrides(name="bump_relabelled")
        assert config_fingerprint(renamed) == config_fingerprint(bump_system())

    def test_nested_knob_changes_fingerprint(self):
        tweaked = bump_system(bump=BuMPConfig(density_threshold_blocks=9))
        assert config_fingerprint(tweaked) != config_fingerprint(bump_system())

    def test_top_level_field_changes_fingerprint(self):
        assert (config_fingerprint(base_open())
                != config_fingerprint(base_open().with_overrides(scheduler="fcfs")))

    def test_workload_fingerprint_tracks_spec_contents(self):
        spec = get_workload("web_search")
        assert workload_fingerprint(spec) == workload_fingerprint(get_workload("web_search"))
        assert (workload_fingerprint(spec.with_overrides(popularity_skew=0.9))
                != workload_fingerprint(spec))

    def test_fingerprint_is_stable_across_calls(self):
        job = JobSpec(workload="web_search", config=bump_system(), num_accesses=1000)
        assert job.result_fingerprint() == job.result_fingerprint()
        assert job.trace_fingerprint() == job.trace_fingerprint()

    def test_result_key_covers_every_grid_axis(self):
        base = JobSpec(workload="web_search", config=bump_system(),
                       num_accesses=1000, num_cores=4, seed=1, warmup_fraction=0.25)
        variants = [
            base.__class__(workload="web_serving", config=base.config,
                           num_accesses=1000, num_cores=4, seed=1, warmup_fraction=0.25),
            base.__class__(workload="web_search", config=base_open(),
                           num_accesses=1000, num_cores=4, seed=1, warmup_fraction=0.25),
            base.__class__(workload="web_search", config=base.config,
                           num_accesses=2000, num_cores=4, seed=1, warmup_fraction=0.25),
            base.__class__(workload="web_search", config=base.config,
                           num_accesses=1000, num_cores=8, seed=1, warmup_fraction=0.25),
            base.__class__(workload="web_search", config=base.config,
                           num_accesses=1000, num_cores=4, seed=2, warmup_fraction=0.25),
            base.__class__(workload="web_search", config=base.config,
                           num_accesses=1000, num_cores=4, seed=1, warmup_fraction=0.5),
        ]
        digests = {base.result_fingerprint()} | {v.result_fingerprint() for v in variants}
        assert len(digests) == len(variants) + 1

    def test_fingerprint_handles_plain_values(self):
        assert fingerprint({"a": (1, 2)}) == fingerprint({"a": [1, 2]})
        assert fingerprint(1.5) == fingerprint(1.5)


class TestJobSpec:
    def test_workload_name_is_resolved_to_spec(self):
        job = JobSpec(workload="web_search", config=base_open())
        assert job.workload.name == "web_search"

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            JobSpec(workload="web_search", config=base_open(), num_accesses=0)
        with pytest.raises(ValueError):
            JobSpec(workload="web_search", config=base_open(), warmup_fraction=1.0)

    def test_label_mentions_workload_and_system(self):
        job = JobSpec(workload="web_search", config=bump_system(), seed=7)
        assert "web_search" in job.label and "bump" in job.label and "s7" in job.label


class TestJobGrid:
    def test_expansion_is_the_cartesian_product(self):
        grid = JobGrid(workloads=["web_search", "web_serving"],
                       configs=["base_open", "bump", "vwq"],
                       seeds=(1, 2), num_accesses=1000)
        jobs = grid.expand()
        assert len(jobs) == 2 * 3 * 2
        assert len(grid) == 12
        labels = {(j.workload.name, j.config.name, j.seed) for j in jobs}
        assert ("web_serving", "vwq", 2) in labels

    def test_duplicate_cells_are_dropped(self):
        renamed = base_open().with_overrides(name="base_open_again")
        jobs = JobGrid(workloads=["web_search"], configs=[base_open(), renamed],
                       num_accesses=1000).expand()
        assert len(jobs) == 1

    def test_dedup_can_be_disabled(self):
        grid = JobGrid(workloads=["web_search"],
                       configs=[base_open(), base_open()], num_accesses=1000)
        assert len(grid.expand(dedup=False)) == 2

    def test_accepts_config_objects_and_names_mixed(self):
        jobs = JobGrid(workloads=["web_search"], configs=["base_open", bump_system()],
                       num_accesses=1000).expand()
        assert [j.config.name for j in jobs] == ["base_open", "bump"]
