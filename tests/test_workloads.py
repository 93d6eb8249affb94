"""Unit tests for the workload specs, the trace generator and the catalog."""

import numpy as np
import pytest

from repro.common.addressing import BLOCK_SIZE
from repro.workloads.catalog import DISPLAY_NAMES, WORKLOADS, display_name, get_workload, workload_names
from repro.workloads.generator import generate_trace_buffer
from repro.workloads.spec import WorkloadSpec


# --------------------------------------------------------------------- #
# Spec validation
# --------------------------------------------------------------------- #
def test_spec_rejects_invalid_parameters():
    with pytest.raises(ValueError):
        WorkloadSpec(name="bad", coarse_object_bytes=(32, 16))
    with pytest.raises(ValueError):
        WorkloadSpec(name="bad", coarse_job_fraction=1.5)
    with pytest.raises(ValueError):
        WorkloadSpec(name="bad", coarse_touch_fraction=0.0)
    with pytest.raises(ValueError):
        WorkloadSpec(name="bad", jobs_per_core=0)


def test_spec_override_returns_copy():
    spec = WorkloadSpec(name="x")
    other = spec.with_overrides(coarse_job_fraction=0.9)
    assert other.coarse_job_fraction == 0.9
    assert spec.coarse_job_fraction != 0.9


def test_mean_coarse_object_blocks():
    spec = WorkloadSpec(name="x", coarse_object_bytes=(1024, 3072))
    assert spec.mean_coarse_object_blocks == pytest.approx(32.0)


# --------------------------------------------------------------------- #
# Catalog
# --------------------------------------------------------------------- #
def test_catalog_contains_the_six_paper_workloads():
    assert workload_names() == [
        "data_serving", "media_streaming", "online_analytics",
        "software_testing", "web_search", "web_serving",
    ]
    assert set(WORKLOADS) == set(workload_names())
    assert set(DISPLAY_NAMES) == set(workload_names())


def test_get_workload_normalises_names():
    assert get_workload("Web Search").name == "web_search"
    assert get_workload("web-search").name == "web_search"
    with pytest.raises(KeyError):
        get_workload("spec_cpu")
    assert display_name("web_search") == "Web Search"


def test_catalog_specs_reflect_paper_characteristics():
    ds = get_workload("data_serving")
    ws = get_workload("web_search")
    ms = get_workload("media_streaming")
    st = get_workload("software_testing")
    # Write-heavy store vs. read-mostly search.
    assert ds.coarse_write_fraction > ws.coarse_write_fraction
    # Media streaming is the most sequential workload.
    assert ms.coarse_sequential_fraction == max(
        spec.coarse_sequential_fraction for spec in WORKLOADS.values()
    )
    # Software testing keeps the most operations in flight (RDTT pressure).
    assert st.jobs_per_core == max(spec.jobs_per_core for spec in WORKLOADS.values())


# --------------------------------------------------------------------- #
# Trace generation
# --------------------------------------------------------------------- #
def test_trace_is_deterministic_for_a_seed():
    spec = get_workload("web_search")
    first = generate_trace_buffer(spec, 2000, num_cores=4, seed=7)
    second = generate_trace_buffer(spec, 2000, num_cores=4, seed=7)
    assert first == second


def test_trace_changes_with_seed():
    spec = get_workload("web_search")
    first = generate_trace_buffer(spec, 1000, num_cores=4, seed=1)
    second = generate_trace_buffer(spec, 1000, num_cores=4, seed=2)
    assert not np.array_equal(first.address, second.address)


def test_trace_interleaves_cores_round_robin():
    spec = get_workload("data_serving")
    trace = generate_trace_buffer(spec, 64, num_cores=16, seed=3)
    assert trace.core[:16].tolist() == list(range(16))
    assert trace.core[16:32].tolist() == list(range(16))


def test_trace_contains_loads_and_stores_with_positive_instruction_counts():
    spec = get_workload("web_serving")
    trace = generate_trace_buffer(spec, 5000, num_cores=8, seed=5)
    assert set(trace.is_store.tolist()) == {False, True}
    assert int(trace.instructions.min()) >= 1
    assert 0.05 < trace.store_fraction < 0.7


def test_single_core_trace_produces_coarse_and_fine_pcs():
    spec = get_workload("web_search")
    trace = generate_trace_buffer(spec, 3000, num_cores=1, seed=11)
    pcs = set(trace.pc.tolist())
    coarse = [pc for pc in pcs if 0x400000 <= pc < 0x600000]
    fine = [pc for pc in pcs if 0x600000 <= pc < 0x700000]
    assert coarse and fine


def test_generate_trace_buffer_rejects_negative_length():
    with pytest.raises(ValueError):
        generate_trace_buffer(get_workload("web_search"), -1)


def test_coarse_scans_touch_contiguous_region_blocks():
    """A mostly-sequential workload's coarse PCs touch dense block runs."""
    spec = get_workload("media_streaming").with_overrides(
        coarse_sequential_fraction=1.0, coarse_job_fraction=1.0, jobs_per_core=1,
        coarse_pc_noise=0.0,
    )
    trace = generate_trace_buffer(spec, 200, num_cores=1, seed=13)
    blocks = (trace.address // BLOCK_SIZE).tolist()
    forward_steps = sum(1 for a, b in zip(blocks, blocks[1:]) if b - a in (0, 1))
    assert forward_steps > len(blocks) * 0.7
