"""Golden results: every pinned cell, how it runs, and how to re-pin it.

``golden/pins.json`` holds one entry per *cell*: a run named by its family
and parameters (``dram.ablation/web_search/bump/fcfs``), its pinned values
and ``set_by``, the commit or note that set them (``notes`` explains the
older tags).  Each family runs through one recipe below, whose docstring
says how its cells run; tier-1 asserts every cell once, through
:func:`test_cell_matches_golden_pin`.  Other test modules keep the checks
that are not pins (a chunked run equals the whole buffer, say) and take the
pinned values from :func:`pinned`, so no cell is simulated twice.

This module is also the one command over the pins::

    PYTHONPATH=src python tests/test_golden_pins.py
    PYTHONPATH=src python tests/test_golden_pins.py --regenerate NOTE

Both rerun every cell and print ``old -> new`` for each value that moved.
Without ``--regenerate`` the command exits 1 if anything moved.  With it,
only the moved cells are rewritten, with ``NOTE`` (why they moved; say it
in CHANGES.md too) as their ``set_by``.  Both also rerun perfbench's three
reference runs and name each fingerprint in ``perfbench/pins.json`` that
moved; that file is never written here.

60k accesses is the shortest length at which every configuration sees LLC
evictions after warmup, so the agent cells (``configs``, ``recorder``,
``workloads``, ``scenarios``) cover the eviction, bulk-writeback and
eager-writeback paths.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.common.addressing import BLOCK_BITS
from repro.common.params import CacheParams, SystemParams
from repro.exec.campaign import result_fingerprint
from repro.scenario import (
    Phase,
    Scenario,
    TenantAssignment,
    get_scenario,
    iter_scenario_chunks,
    run_scenario,
    scenario_names,
)
from repro.sim.config import base_open, bump_system, extended_configs, named_configs
from repro.sim.runner import DEFAULT_SEED, build_trace, run_trace, run_workload
from repro.sim.system import ServerSystem
from repro.trace.buffer import TRACE_FIELDS, TraceBuffer
from repro.trace.capture import LLCTraceRecorder
from repro.trace.io import load_trace_buffer
from repro.workloads.catalog import workload_names

HERE = Path(__file__).resolve().parent
PIN_FILE = HERE / "golden" / "pins.json"
PERFBENCH_PIN_FILE = HERE.parent / "perfbench" / "pins.json"

PAPER_CONFIGS = tuple(named_configs())
WORKLOADS = tuple(workload_names())
SCENARIOS = tuple(scenario_names())

#: family -> (recipe, parameter tuples, pytest marks)
FAMILIES = {}


def family(name, params, *marks):
    """Register the decorated recipe as the one that runs ``name``'s cells."""
    def register(recipe):
        FAMILIES[name] = (recipe, [p if isinstance(p, tuple) else (p,)
                                   for p in params], marks)
        return recipe
    return register


def cell_ids() -> list:
    return [f"{name}/{'/'.join(params)}"
            for name, (_recipe, cells, _marks) in FAMILIES.items()
            for params in cells]


def run_cell(cell: str) -> dict:
    """Simulate one cell; returns the values its pin holds."""
    name, *params = cell.split("/")
    return FAMILIES[name][0](*params)


@functools.lru_cache(maxsize=None)
def _pin_table() -> dict:
    return json.loads(PIN_FILE.read_text())


def pinned(cell: str) -> dict:
    """The committed values of one cell."""
    return _pin_table()["cells"][cell]["values"]


@functools.lru_cache(maxsize=None)
def _trace(workload: str, accesses: int, cores: int = 16,
           seed: int = DEFAULT_SEED):
    """A workload's trace, generated once per process."""
    return build_trace(workload, accesses, num_cores=cores, seed=seed)


def _config(name: str, **overrides):
    config = named_configs([name])[name]
    return config.with_overrides(**overrides) if overrides else config


def _fingerprint(result) -> dict:
    return {"fingerprint": result_fingerprint(result)}


# ---------------------------------------------------------------------- #
# Agent cells: 60k accesses, 16 cores, seed 42
# ---------------------------------------------------------------------- #
AGENT_ACCESSES = 60_000


def _summary(result) -> dict:
    """A result's fingerprint plus a few readable counts (drift context)."""
    counters = result.counters
    return {
        "fingerprint": result_fingerprint(result),
        "llc_evictions": int(counters["llc_evictions"]),
        "bulk_writebacks": int(counters["bulk_writebacks"]),
        "eager_writebacks": int(counters["eager_writebacks"]),
        "dram_accesses": int(result.dram["accesses"]),
    }


@family("configs", PAPER_CONFIGS + tuple(extended_configs()))
def config_cell(name: str, workload: str = "web_search") -> dict:
    """Every named configuration, paper and extended, on ``web_search``."""
    trace = _trace(workload, AGENT_ACCESSES)
    return _summary(run_trace(trace, _config(name), workload_name=workload))


@family("workloads", itertools.product(
    [w for w in WORKLOADS if w != "web_search"],
    ("base_open", "sms_vwq", "bump")))
def workload_cell(workload: str, name: str) -> dict:
    """The other five workloads under ``base_open``, ``sms_vwq`` and ``bump``."""
    return config_cell(name, workload)


def _digest(arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()[:32]


def _records_digest(records) -> str:
    rows = [dataclasses.astuple(record) for record in records]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:32]


@family("recorder", ["bump"])
def recorder_cell(name: str) -> dict:
    """``web_search`` with an attached LLCTraceRecorder, its streams pinned too."""
    recorder = LLCTraceRecorder()
    result = run_trace(_trace("web_search", AGENT_ACCESSES), _config(name),
                       workload_name="web_search", extra_agents=[recorder])
    with tempfile.TemporaryDirectory() as tmp:
        exported = load_trace_buffer(recorder.export(Path(tmp) / "misses.npy"))
        export_digest = _digest(getattr(exported, column)
                                for column in TRACE_FIELDS)
    return {
        **_summary(result),
        "recorded_accesses": len(recorder.accesses),
        "recorded_misses": len(exported),
        "recorded_evictions": len(recorder.evictions),
        "access_digest": _records_digest(recorder.accesses),
        "eviction_digest": _records_digest(recorder.evictions),
        "export_digest": export_digest,
    }


@family("scenarios", SCENARIOS)
def scenario_cell(name: str) -> dict:
    """Each catalog scenario at scale 0.05 (50k-60k accesses) under ``bump``."""
    return _summary(run_scenario(name, _config("bump"), seed=DEFAULT_SEED,
                                 scale=0.05))


# ---------------------------------------------------------------------- #
# Short cells: the paper's matrices and the production paths
# ---------------------------------------------------------------------- #
#: Scaled-down LLC so evictions and writebacks occur within a short trace.
SMALL_LLC = SystemParams().scaled(
    llc=CacheParams(size_bytes=256 * 1024, associativity=16, hit_latency_cycles=8),
)
COLUMNAR_ACCESSES = 3_000


@family("columnar", itertools.product(WORKLOADS, PAPER_CONFIGS))
def columnar_cell(workload: str, name: str, chunk_size=None) -> dict:
    """3,000 accesses on 8 cores, 256 KB LLC, warmup 0.4, the buffer as one chunk.

    ``chunk_size`` feeds the same trace in chunks of that size instead
    (``test_columnar_parity``), which must not move the result.
    """
    trace = _trace(workload, COLUMNAR_ACCESSES, cores=8)
    source = trace if chunk_size is None else trace.iter_chunks(chunk_size)
    return _fingerprint(run_trace(
        source, _config(name, system=SMALL_LLC), workload_name=workload,
        warmup_fraction=0.4, num_accesses=COLUMNAR_ACCESSES))


@family("dram.matrix", itertools.product(WORKLOADS, PAPER_CONFIGS),
        pytest.mark.slow)
def matrix_cell(workload: str, name: str) -> dict:
    """4,000 accesses, every other setting at its default."""
    return _fingerprint(run_trace(_trace(workload, 4_000), _config(name),
                                  workload_name=workload))


@family("dram.ablation", itertools.product(
    WORKLOADS, ("bump", "base_close", "sms_vwq"), ("fcfs", "bank_round_robin")),
    pytest.mark.slow)
def scheduler_cell(workload: str, name: str, scheduler: str) -> dict:
    """A ``dram.matrix`` cell under the FCFS or bank round-robin scheduler."""
    return _fingerprint(run_trace(_trace(workload, 4_000),
                                  _config(name, scheduler=scheduler),
                                  workload_name=workload))


@family("dram.scenarios", SCENARIOS, pytest.mark.slow)
def small_scenario_cell(name: str) -> dict:
    """Each catalog scenario at scale 0.004 under ``bump``."""
    return _fingerprint(run_scenario(get_scenario(name, scale=0.004),
                                     _config("bump")))


@family("scenario", ["tenant-colocation", "antagonist-burst", "all-six-mix"])
def base_open_scenario_cell(name: str) -> dict:
    """Three catalog scenarios at scale 0.003 under ``base_open``."""
    return _fingerprint(run_scenario(get_scenario(name, scale=0.003),
                                     base_open()))


@family("dram.streaming", ["data_serving"])
def streaming_cell(workload: str) -> dict:
    """``run_workload`` under ``base_open``: 4,000 accesses in 1,024-access chunks."""
    return _fingerprint(run_workload(workload, _config("base_open"),
                                     num_accesses=4_000, chunk_size=1024))


def _timing(result) -> dict:
    """The TimingSummary-derived result fields, bit for bit, and the rest."""
    return {"cycles": result.cycles,
            "throughput_ipc": result.throughput_ipc,
            "elapsed_seconds": result.elapsed_seconds,
            **_fingerprint(result)}


@family("interval_streaming", ["web_search"])
@family("dram.interval_streaming", ["data_serving"])
def interval_streaming_cell(workload: str) -> dict:
    """A ``dram.streaming`` run under the interval timing model."""
    return _timing(run_workload(
        workload, base_open().with_overrides(timing_model="interval"),
        num_accesses=4_000, chunk_size=1024))


@family("interval_scenario", ["tenant-colocation"])
def interval_scenario_cell(name: str) -> dict:
    """A catalog scenario at scale 0.004 under ``bump`` and the interval model."""
    return _timing(run_scenario(
        get_scenario(name, scale=0.004),
        bump_system().with_overrides(timing_model="interval")))


def distinct_gap_trace(cores: int, accesses: int = 4_000) -> TraceBuffer:
    """A random trace in which every row carries its own instruction gap."""
    rng = np.random.default_rng(9)
    core = rng.integers(0, cores, accesses).astype(np.int32)
    offsets = rng.integers(0, 2_048, accesses).astype(np.uint64)
    address = (core.astype(np.uint64) << np.uint64(32)) | \
        (offsets << np.uint64(BLOCK_BITS))
    pc = np.full(accesses, 0x400000, dtype=np.uint64)
    is_store = rng.random(accesses) < 0.3
    instructions = rng.permutation(np.arange(1, accesses + 1, dtype=np.int32))
    return TraceBuffer(core, pc, address, is_store, instructions)


@family("non_power_of_two_cores", ["web_search", "distinct_gaps"])
def twelve_core_cell(trace_name: str) -> dict:
    """``base_open`` on 12 cores, warmup 2/5: the cycle count and the result.

    Cycle accumulation must round identically for any core count: folding
    ``instructions * cpi / cores`` into one precomputed factor rounds
    differently when ``cores`` is not a power of two, which shifts DRAM
    arrival cycles.  ``web_search`` is 3,000 accesses at seed 5;
    ``distinct_gaps`` (:func:`distinct_gap_trace`) gives every row its own
    instruction gap, so each row's cycle increment is computed afresh.
    """
    if trace_name == "distinct_gaps":
        trace = distinct_gap_trace(12)
    else:
        trace = build_trace(trace_name, 3_000, num_cores=12, seed=5)
    system = ServerSystem(base_open(system=SystemParams().scaled(num_cores=12)))
    result = system.run(trace, warmup_accesses=len(trace) * 2 // 5)
    return {"core_cycle": system._core_cycle, **_fingerprint(result)}


class _DepthLog:
    """A source that records the memory system's queue depth at every pull."""

    def __init__(self, chunks, system):
        self._chunks = chunks
        self._system = system
        self.depths = []

    def next_chunk(self):
        self.depths.append(self._system.memory.pending_count())
        return next(self._chunks, None)


@family("dram.pending_depths", ["frfcfs", "bank_round_robin"])
def pending_depths_cell(scheduler: str) -> dict:
    """``base_open`` queue depth at every pull of a two-tenant 2,400-access run.

    Two tenants on four cores, 160-access chunks, warmup 600.  The run is
    far below the pipeline's threshold, so ``system.memory`` is the live
    queue at every pull.
    """
    scenario = Scenario(
        name="pipeline-two-tenants", description="two tenants",
        phases=[Phase("only", 2_400, [
            TenantAssignment("web_search", (0, 1)),
            TenantAssignment("online_analytics", (2, 3), intensity=1.5),
        ])],
        num_cores=4,
        # The stream the pinned depths were recorded on.
        seed_stream="pipeline-closed-loop")
    system = ServerSystem(base_open(scheduler=scheduler))
    source = _DepthLog(iter_scenario_chunks(scenario, seed=11, chunk_size=160),
                      system)
    system.run(source, warmup_accesses=600)
    return {"depths": source.depths}


# ---------------------------------------------------------------------- #
# perfbench's reference runs (read, never written)
# ---------------------------------------------------------------------- #
def perfbench_fingerprints() -> dict:
    """Rerun each workload of ``perfbench/pins.json`` as ``perfbench/run.py`` does.

    A workload is ``<config>-<workload or scenario>``: 16 cores, half
    warmup, the pinned seed, and a scenario scaled to the pinned length.
    """
    pins = json.loads(PERFBENCH_PIN_FILE.read_text())
    accesses, seed = pins["accesses"], pins["reference_seed"]
    fingerprints = {}
    for workload in pins["result_fingerprints"]:
        name, trace = workload.split("-", 1)
        if trace in WORKLOADS:
            result = run_workload(trace, _config(name), num_accesses=accesses,
                                  seed=seed)
        else:
            scale = accesses / get_scenario(trace).total_accesses
            result = run_scenario(trace, _config(name), seed=seed, scale=scale)
        fingerprints[workload] = result_fingerprint(result)
    return fingerprints


# ---------------------------------------------------------------------- #
# Tier-1
# ---------------------------------------------------------------------- #
def test_pin_file_holds_every_registry_cell():
    """A configuration, workload or scenario added without a pin fails here."""
    table = _pin_table()
    assert list(table["cells"]) == sorted(cell_ids())
    for cell, entry in table["cells"].items():
        assert sorted(entry) == ["set_by", "values"], cell
        assert entry["values"] and entry["set_by"], cell
    tags = {entry["set_by"] for entry in table["cells"].values()}
    assert set(table["notes"]) <= tags


def _pinned_params(family_name: str) -> set:
    """The parameter tuples of ``family_name``'s cells in the pin file."""
    return {tuple(cell.split("/")[1:]) for cell in _pin_table()["cells"]
            if cell.split("/")[0] == family_name}


def test_pin_table_covers_every_named_config():
    """Every configuration the catalog builds, paper and extended, is pinned."""
    names = set(named_configs()) | set(extended_configs())
    assert _pinned_params("configs") == {(name,) for name in names}
    assert set(named_configs(sorted(names))) == names
    paper = set(itertools.product(WORKLOADS, named_configs()))
    assert _pinned_params("columnar") == paper
    assert _pinned_params("dram.matrix") == paper


def test_pin_table_covers_every_workload_and_scenario():
    """Every catalog workload and scenario is pinned at the agent length."""
    assert "web_search" in WORKLOADS  # the workload of the ``configs`` cells
    assert _pinned_params("workloads") == set(itertools.product(
        [w for w in WORKLOADS if w != "web_search"],
        ("base_open", "sms_vwq", "bump")))
    assert set(WORKLOADS) == set(workload_names())
    for family_name in ("scenarios", "dram.scenarios"):
        assert _pinned_params(family_name) \
            == {(name,) for name in scenario_names()}


@pytest.mark.parametrize("cell", [
    pytest.param(cell, marks=FAMILIES[cell.split("/")[0]][2])
    for cell in cell_ids()])
def test_cell_matches_golden_pin(cell):
    assert run_cell(cell) == pinned(cell)


def test_regenerate_rewrites_only_the_cell_that_moved(tmp_path, monkeypatch,
                                                       capsys):
    """One planted recipe: the command names that cell and rewrites it alone.

    Every other cell, and perfbench's reference runs, return their pinned
    values without simulating.
    """
    committed = json.loads(PIN_FILE.read_text())
    stealth = committed["cells"]["configs/stealth"]["values"]
    planted = dict(stealth, fingerprint="0" * 32, dram_accesses=1)
    perfbench = json.loads(PERFBENCH_PIN_FILE.read_text())["result_fingerprints"]
    module = sys.modules[__name__]
    (tmp_path / "pins.json").write_text(PIN_FILE.read_text())
    monkeypatch.setattr(module, "PIN_FILE", tmp_path / "pins.json")
    monkeypatch.setattr(module, "run_cell", lambda cell: (
        planted if cell == "configs/stealth"
        else committed["cells"][cell]["values"]))
    monkeypatch.setattr(module, "perfbench_fingerprints", lambda: perfbench)

    for refused in (["--regenerate"], ["--regenerate", " "]):
        with pytest.raises(SystemExit):
            main(refused)
    assert main([]) == 1
    assert json.loads(module.PIN_FILE.read_text()) == committed
    capsys.readouterr()

    assert main(["--regenerate", "planted Stealth change"]) == 0
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.endswith(" moved")] \
        == ["configs/stealth moved", f"1 of {len(committed['cells'])} cells moved"]
    assert f"  dram_accesses: {stealth['dram_accesses']} -> 1" in out
    assert out.count("(unmoved)") == len(perfbench)
    expected = json.loads(json.dumps(committed))
    expected["cells"]["configs/stealth"] = {"set_by": "planted Stealth change",
                                            "values": planted}
    assert json.loads(module.PIN_FILE.read_text()) == expected
    rewritten = module.PIN_FILE.read_bytes()
    assert main(["--regenerate", "nothing moved"]) == 0
    assert f"0 of {len(committed['cells'])} cells moved" in capsys.readouterr().out
    assert module.PIN_FILE.read_bytes() == rewritten


# ---------------------------------------------------------------------- #
# The command
# ---------------------------------------------------------------------- #
def _moves(old: dict, new: dict) -> list:
    """``name: old -> new`` for every value that differs."""
    return [f"{name}: {old.get(name)!r} -> {new.get(name)!r}"
            for name in sorted(set(old) | set(new))
            if old.get(name) != new.get(name)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--regenerate", metavar="NOTE",
        help="rewrite the cells that moved, with NOTE as their set_by")
    args = parser.parse_args(argv)
    note = args.regenerate
    if note is not None and not note.strip():
        parser.error("--regenerate needs a NOTE saying why the cells moved")
    table = json.loads(PIN_FILE.read_text())
    old_cells = table["cells"]
    cells = {}
    moved = 0
    for cell in cell_ids():
        values = run_cell(cell)
        entry = old_cells.get(cell)
        if entry is not None and entry["values"] == values:
            cells[cell] = entry
            continue
        moved += 1
        print(f"{cell} moved" if entry else f"{cell} is new")
        for line in _moves(entry["values"] if entry else {}, values):
            print(f"  {line}")
        cells[cell] = {"set_by": note, "values": values}
    for cell in sorted(set(old_cells) - set(cells)):
        moved += 1
        print(f"{cell} is no longer in the registry")
    print(f"{moved} of {len(cells)} cells moved")

    pinned_runs = json.loads(PERFBENCH_PIN_FILE.read_text())["result_fingerprints"]
    perf_moved = 0
    for workload, fingerprint in perfbench_fingerprints().items():
        if fingerprint == pinned_runs[workload]:
            print(f"perfbench {workload}: {fingerprint} (unmoved)")
        else:
            perf_moved += 1
            print(f"perfbench {workload}: {pinned_runs[workload]} -> "
                  f"{fingerprint} (re-pin it in {PERFBENCH_PIN_FILE.name} "
                  "by hand)")

    if note is None:
        return 1 if moved or perf_moved else 0
    if moved:
        tags = {entry["set_by"] for entry in cells.values()}
        table = {"notes": {tag: text for tag, text in table["notes"].items()
                           if tag in tags},
                 "cells": cells}
        PIN_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"rewrote {moved} of {len(cells)} cells in {PIN_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
