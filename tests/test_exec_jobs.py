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

    @pytest.mark.parametrize("workload", [42, {"name": "web_search"}],
                             ids=["int", "dict"])
    def test_anything_but_a_workload_is_a_type_error(self, workload):
        with pytest.raises(TypeError, match="workload name or WorkloadSpec"):
            JobSpec(workload=workload, config=base_open())

    def test_unknown_workload_name_is_rejected(self):
        with pytest.raises(KeyError, match="warp_drive"):
            JobSpec(workload="warp_drive", config=base_open())

    def test_trace_key_ignores_the_system_and_its_warmup(self):
        base = JobSpec(workload="web_search", config=bump_system(),
                       num_accesses=1000, warmup_fraction=0.25)
        other = JobSpec(workload="web_search", config=base_open(),
                        num_accesses=1000, warmup_fraction=0.5)
        assert base.trace_fingerprint() == other.trace_fingerprint()
        assert base.result_fingerprint() != other.result_fingerprint()


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

    def test_accepts_config_objects_and_names_mixed(self):
        jobs = JobGrid(workloads=["web_search"], configs=["base_open", bump_system()],
                       num_accesses=1000).expand()
        assert [j.config.name for j in jobs] == ["base_open", "bump"]

    def test_expansion_order_is_workload_then_config_then_seed(self):
        jobs = JobGrid(workloads=["web_search", "web_serving"],
                       configs=["base_open", "bump"], seeds=(1, 2),
                       num_accesses=1000).expand()
        assert [(j.workload.name, j.config.name, j.seed) for j in jobs] == [
            ("web_search", "base_open", 1), ("web_search", "base_open", 2),
            ("web_search", "bump", 1), ("web_search", "bump", 2),
            ("web_serving", "base_open", 1), ("web_serving", "base_open", 2),
            ("web_serving", "bump", 1), ("web_serving", "bump", 2),
        ]

    def test_dedup_keeps_the_first_name_and_counts_cells_once(self):
        renamed = base_open().with_overrides(name="base_open_again")
        grid = JobGrid(workloads=["web_search"],
                       configs=[renamed, "bump", base_open()],
                       seeds=(1, 1), num_accesses=1000)
        assert [j.config.name for j in grid.expand()] == ["base_open_again",
                                                           "bump"]
        assert len(grid) == 2

    def test_grid_geometry_reaches_every_job(self):
        jobs = JobGrid(workloads=["web_search"], configs=["bump"],
                       seeds=(5,), num_accesses=1234, num_cores=2,
                       warmup_fraction=0.3).expand()
        assert [(j.num_accesses, j.num_cores, j.seed, j.warmup_fraction)
                for j in jobs] == [(1234, 2, 5, 0.3)]

    def test_an_impossible_cell_fails_expansion(self):
        grid = JobGrid(workloads=["web_search"], configs=["bump"],
                       num_accesses=1000, warmup_fraction=1.0)
        with pytest.raises(ValueError):
            grid.expand()
