"""Golden result pins for every named configuration, workload and scenario.

Agents (stride, SMS, VWQ, BuMP, Full-region, next-line, Stealth, eager
writeback, the density profiler) are shared by every cell of the engine
parity matrices, so those suites cannot see an agent behaviour change: both
sides of every comparison move together.  This module pins full result
fingerprints against a committed table:

* every named configuration on one short ``web_search`` trace, plus one run
  with an :class:`LLCTraceRecorder` attached whose recorded streams are
  pinned too;
* the other five paper workloads under ``base_open``, ``sms_vwq`` and
  ``bump``;
* the six catalog scenarios under ``bump`` at scale 0.05 (50k-60k accesses
  each).

60k accesses is the shortest length at which every configuration sees LLC
evictions after warmup, so the eviction, bulk-writeback and eager-writeback
paths are all covered; every workload and scenario cell sees evictions too.

The table is regenerated only when a change is *meant* to alter simulated
results (say why in CHANGES.md)::

    PYTHONPATH=src python tests/test_golden_pins.py --regenerate
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.exec.campaign import result_fingerprint
from repro.scenario.catalog import scenario_names
from repro.scenario.runner import run_scenario
from repro.sim.config import named_configs
from repro.sim.runner import build_trace, run_trace
from repro.trace.capture import LLCTraceRecorder
from repro.trace.io import load_trace_buffer
from repro.trace.buffer import TRACE_FIELDS

PIN_FILE = Path(__file__).resolve().parent / "golden" / "agent_pins.json"

WORKLOAD = "web_search"
ACCESSES = 60_000
CORES = 16
SEED = 42
#: The eight paper configurations plus the four extended ones.
CONFIGS = ("base_close", "base_open", "sms", "vwq", "sms_vwq", "full_region",
           "bump", "ideal", "bump_vwq", "nextline", "stealth",
           "eager_writeback")
#: Configuration of the run that carries an attached trace recorder.
RECORDER_CONFIG = "bump"
#: The other five paper workloads, each pinned under these configurations.
OTHER_WORKLOADS = ("data_serving", "media_streaming", "online_analytics",
                   "software_testing", "web_serving")
WORKLOAD_CONFIGS = ("base_open", "sms_vwq", "bump")
#: Catalog scenarios run at this scale under this configuration.
SCENARIO_SCALE = 0.05
SCENARIO_CONFIG = "bump"
SCENARIOS = tuple(scenario_names())


@functools.lru_cache(maxsize=None)
def _trace(workload: str = WORKLOAD):
    """The workload's pinned trace, generated once per process."""
    return build_trace(workload, ACCESSES, num_cores=CORES, seed=SEED)


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


def config_pin(name: str, workload: str = WORKLOAD) -> dict:
    """Run one named configuration on a workload's golden trace."""
    config = named_configs([name])[name]
    return _summary(run_trace(_trace(workload), config, workload_name=workload))


def scenario_pin(name: str) -> dict:
    """Run one catalog scenario, scaled down, under the scenario config."""
    config = named_configs([SCENARIO_CONFIG])[SCENARIO_CONFIG]
    return _summary(run_scenario(name, config, seed=SEED,
                                 scale=SCENARIO_SCALE))


def _digest(arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()[:32]


def _records_digest(records) -> str:
    rows = [dataclasses.astuple(record) for record in records]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:32]


def recorder_pin() -> dict:
    """Run the recorder configuration with an attached LLCTraceRecorder."""
    recorder = LLCTraceRecorder()
    config = named_configs([RECORDER_CONFIG])[RECORDER_CONFIG]
    result = run_trace(_trace(), config, workload_name=WORKLOAD,
                       extra_agents=[recorder])
    with tempfile.TemporaryDirectory() as tmp:
        exported = load_trace_buffer(recorder.export(Path(tmp) / "misses.npy"))
        export_digest = _digest(getattr(exported, name) for name in TRACE_FIELDS)
    accesses = recorder.accesses
    evictions = recorder.evictions
    pin = _summary(result)
    pin.update({
        "recorded_accesses": len(accesses),
        "recorded_misses": len(exported),
        "recorded_evictions": len(evictions),
        "access_digest": _records_digest(accesses),
        "eviction_digest": _records_digest(evictions),
        "export_digest": export_digest,
    })
    return pin


def compute_pins() -> dict:
    return {
        "workload": WORKLOAD,
        "accesses": ACCESSES,
        "cores": CORES,
        "seed": SEED,
        "configs": {name: config_pin(name) for name in CONFIGS},
        "recorder": {"config": RECORDER_CONFIG, **recorder_pin()},
        "workloads": {
            workload: {name: config_pin(name, workload)
                       for name in WORKLOAD_CONFIGS}
            for workload in OTHER_WORKLOADS
        },
        "scenarios": {
            "config": SCENARIO_CONFIG,
            "scale": SCENARIO_SCALE,
            "cells": {name: scenario_pin(name) for name in SCENARIOS},
        },
    }


def _pins() -> dict:
    return json.loads(PIN_FILE.read_text())


def test_pin_table_covers_every_named_config():
    pins = _pins()
    assert (pins["workload"], pins["accesses"], pins["cores"], pins["seed"]) \
        == (WORKLOAD, ACCESSES, CORES, SEED)
    assert sorted(pins["configs"]) == sorted(CONFIGS)
    assert sorted(named_configs(list(CONFIGS))) == sorted(CONFIGS)


@pytest.mark.parametrize("name", CONFIGS)
def test_named_config_matches_golden_pin(name):
    assert config_pin(name) == _pins()["configs"][name]


def test_trace_recorder_matches_golden_pin():
    pinned = dict(_pins()["recorder"])
    assert pinned.pop("config") == RECORDER_CONFIG
    assert recorder_pin() == pinned


def test_pin_table_covers_every_workload_and_scenario():
    pins = _pins()
    assert sorted(pins["workloads"]) == sorted(OTHER_WORKLOADS)
    for workload in OTHER_WORKLOADS:
        assert sorted(pins["workloads"][workload]) == sorted(WORKLOAD_CONFIGS)
    scenarios = pins["scenarios"]
    assert (scenarios["config"], scenarios["scale"]) \
        == (SCENARIO_CONFIG, SCENARIO_SCALE)
    assert sorted(scenarios["cells"]) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", WORKLOAD_CONFIGS)
@pytest.mark.parametrize("workload", OTHER_WORKLOADS)
def test_workload_matches_golden_pin(workload, name):
    assert config_pin(name, workload) == _pins()["workloads"][workload][name]


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_matches_golden_pin(name):
    assert scenario_pin(name) == _pins()["scenarios"]["cells"][name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--regenerate", action="store_true",
                        help="overwrite the committed pin table")
    args = parser.parse_args(argv)
    pins = compute_pins()
    if args.regenerate:
        PIN_FILE.parent.mkdir(exist_ok=True)
        PIN_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        print(f"wrote {PIN_FILE}")
        return 0
    if pins != _pins():
        print("golden pins differ from the committed table", file=sys.stderr)
        return 1
    print("golden pins match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
