"""Shared fixtures for the benchmark harness.

``bench_paper_figures.py`` regenerates every entry of the registry
:data:`repro.analysis.figures.FIGURES` -- the paper's figures and tables,
the ablation studies and the Section VI storage tables -- one test each;
the other modules are standalone performance gates.  Before the first test
runs, :func:`repro.analysis.figures.precompute` simulates every run the
collected entries read, one campaign per trace length, so each test only
aggregates (several entries share runs, and each run is simulated once).

Four environment variables control the fidelity/runtime trade-off:

* ``REPRO_EXPERIMENT_ACCESSES`` -- trace length per run (default 240000);
* ``REPRO_BENCH_WORKLOADS`` -- comma-separated subset of workloads to run
  (default: all six of the paper);
* ``REPRO_BENCH_WORKERS`` -- worker processes of those campaigns
  (default 1: serial, in this process);
* ``REPRO_ARTIFACT_DIR`` -- on-disk artifact store; a second harness run
  against the same directory re-simulates nothing.

The modules are named ``bench_*.py``, which pytest's default ``python_files``
does not match; :func:`pytest_collect_file` collects them whenever the run
was pointed at this directory (``python -m pytest benchmarks/``), so a
repository-wide ``python -m pytest`` still collects only ``tests/``.
"""

from __future__ import annotations

import os
from fnmatch import fnmatch
from pathlib import Path
from typing import List

import pytest

from repro.workloads.catalog import workload_names


HERE = Path(__file__).resolve().parent


def _run_targets_this_directory(config) -> bool:
    """True when a collection argument names this directory or a file in it."""
    for arg in config.args:
        target = Path(config.invocation_params.dir, arg.split("::")[0]).resolve()
        if target == HERE or HERE in target.parents:
            return True
    return False


def pytest_collect_file(file_path: Path, parent):
    """Collect ``bench_*.py`` modules when the run targets this directory."""
    if file_path.suffix != ".py" or not file_path.name.startswith("bench_"):
        return None
    if parent.session.isinitpath(file_path):
        return None  # named on the command line: the default collector takes it
    config = parent.config
    if any(fnmatch(file_path.name, pattern)
           for pattern in config.getini("python_files")):
        return None  # the default collector already takes it
    if not _run_targets_this_directory(config):
        return None
    return pytest.Module.from_parent(parent, path=file_path)


def selected_workloads() -> List[str]:
    """Workloads the harness should evaluate (env-var overridable)."""
    raw = os.environ.get("REPRO_BENCH_WORKLOADS", "")
    if not raw.strip():
        return workload_names()
    requested = [name.strip() for name in raw.split(",") if name.strip()]
    known = set(workload_names())
    unknown = [name for name in requested if name not in known]
    if unknown:
        raise ValueError(f"unknown workloads in REPRO_BENCH_WORKLOADS: {unknown}")
    return requested


@pytest.fixture(scope="session")
def workloads() -> List[str]:
    """The workload list shared by every benchmark module."""
    return selected_workloads()


def bench_workers() -> int:
    """Worker processes the harness may use (``REPRO_BENCH_WORKERS``)."""
    raw = os.environ.get("REPRO_BENCH_WORKERS", "").strip() or "1"
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"REPRO_BENCH_WORKERS must be an integer, got {raw!r}")


@pytest.fixture(scope="session", autouse=True)
def campaign_precompute(request) -> None:
    """Simulate every run the collected registry entries read, up front.

    ``-k figure2`` collects one entry, so only its runs are simulated.
    """
    from repro.analysis.figures import FIGURES, precompute

    collected = {item.callspec.params.get("figure")
                 for item in request.session.items if hasattr(item, "callspec")}
    precompute([entry for name, entry in FIGURES.items() if name in collected],
               selected_workloads(), workers=bench_workers())


def run_once(benchmark, function, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark.

    The experiments are deterministic end-to-end simulations, so a single
    round is both sufficient and necessary (re-running them would only hit
    the result cache and measure dictionary lookups).
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
