"""Verification of one fuzz spec against specifications and invariances.

One sample, one verdict: the oracle simulates the spec's scenario under its
configuration and checks the run against the cache and memory layers'
specifications (a reference LRU and a reference DRAM), counter identities,
and every invariance the simulator promises.  The **default run** is the
spec simulated as written; its fingerprint is the reference the other
checks compare against.

Checks (each independently selectable; ``CHECKS`` lists them all):

``lru``
    The default run with a reference LRU of one ordered dict per set
    (:mod:`repro.fuzz.reference_lru`) shadowing every L1 stage call and
    every LLC array call; the first result that differs fails the check.
``dram``
    The default run with a reference DRAM of one pending list per channel
    (:mod:`repro.fuzz.reference_dram`) shadowing every memory-system call;
    the first state that differs fails the check.  When ``lru`` runs too,
    both shadows ride the same run (a shadow never changes a result).
``chunk``
    Chunk-size invariance: the same run at a perturbed streaming chunk size
    must not leak batch boundaries into any statistic.
``telemetry``
    Observability is an observer: a fully instrumented run must fingerprint
    identically to the default run.
``snapshot``
    Warm-state checkpointing: capture at the warmup boundary, round-trip the
    snapshot through the on-disk ``.npz`` codec, restore into a fresh
    system and measure the tail -- bit-identical to never having stopped.
    Skipped (reported, not run) when the spec has no warmup interval.

Every checked run must also satisfy the counter identities of
:func:`identity_problems` (conservation: every access, DRAM transfer and
row-buffer outcome is counted exactly once).

Specs with a ``closed_loop`` block run every simulation through the
feedback-driven :class:`~repro.scenario.closed_loop.ClosedLoopSource`: the
``dram`` check then additionally reruns the spec unshadowed (asserting
run-to-run determinism of the feedback path), and the snapshot check
checkpoints/restores the source's controller state alongside the simulator
arrays.

Every simulation in a check replays the identical deterministic chunk
stream, so a mismatch is always a simulator bug (or an injected fault),
never workload noise.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exec.campaign import result_fingerprint
from repro.fuzz.corpus import FuzzCase, materialize
from repro.fuzz.reference_dram import DRAMShadow
from repro.fuzz.reference_lru import LRUShadow
from repro.scenario.compiler import iter_scenario_chunks
from repro.scenario.runner import run_scenario
from repro.sim.results import SimulationResult
from repro.sim.snapshot import capture_warmup, load_snapshot, save_snapshot
from repro.sim.system import ServerSystem

__all__ = [
    "CHECKS",
    "CheckResult",
    "OracleReport",
    "identity_problems",
    "run_oracle",
]

#: All check names, in execution order.
CHECKS = ("lru", "dram", "chunk", "telemetry", "snapshot")

#: The checks that shadow the default run.
_SHADOWS = {"lru": LRUShadow, "dram": DRAMShadow}


@dataclass
class CheckResult:
    """Outcome of one checked cell."""

    check: str
    cell: str
    matches: bool
    #: ``True`` when the cell could not run for this spec (e.g. the snapshot
    #: check on a spec with no warmup interval); never counted as a failure.
    skipped: bool = False
    #: What failed: the differing fingerprint, the first reference-LRU or
    #: reference-DRAM mismatch, or a violated counter identity with both
    #: sides.
    detail: str = ""

    def describe(self) -> str:
        state = "skip" if self.skipped else ("ok" if self.matches else "FAIL")
        text = f"{self.check}:{self.cell}={state}"
        return f"{text} ({self.detail})" if self.detail else text


@dataclass
class OracleReport:
    """Every cell verdict for one spec, plus the default run's fingerprint."""

    label: str
    reference_fingerprint: str
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def failures(self) -> List[CheckResult]:
        return [c for c in self.checks if not c.skipped and not c.matches]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failed_checks(self) -> List[str]:
        """Distinct failing check names, execution order preserved."""
        seen: List[str] = []
        for check in self.failures:
            if check.check not in seen:
                seen.append(check.check)
        return seen

    def describe(self) -> str:
        ran = [c for c in self.checks if not c.skipped]
        if self.ok:
            return f"{self.label}: ok ({len(ran)} cell(s))"
        return (f"{self.label}: FAIL "
                + " ".join(c.describe() for c in self.failures))


def identity_problems(result: SimulationResult) -> List[str]:
    """The counter identities ``result`` violates, each with both sides.

    Every access is an L1 hit, an LLC hit or an LLC miss, and every LLC
    miss is one demand read; every DRAM read and write is attributed to
    exactly one kind; and every DRAM access has one row-buffer outcome.
    (``result.llc`` is derived from the system's counters, so it has no
    counts of its own to compare.)
    """
    counters, dram = result.counters, result.dram

    def total(*keys: str) -> float:
        return sum(counters[key] for key in keys)

    identities = (
        ("accesses = l1_hits + llc_hits + llc_misses",
         counters["accesses"], total("l1_hits", "llc_hits", "llc_misses")),
        ("demand_reads = llc_misses",
         counters["demand_reads"], counters["llc_misses"]),
        ("dram reads = demand_reads + prefetch_reads + bulk_reads",
         dram["reads"], total("demand_reads", "prefetch_reads", "bulk_reads")),
        ("dram writes = demand_writebacks + eager_writebacks + bulk_writebacks",
         dram["writes"],
         total("demand_writebacks", "eager_writebacks", "bulk_writebacks")),
        ("row_hits + row_misses + row_conflicts = dram accesses",
         dram["row_hits"] + dram["row_misses"] + dram["row_conflicts"],
         dram["accesses"]),
    )
    return [f"{name}: {_count(left)} != {_count(right)}"
            for name, left, right in identities if left != right]


def _count(value: float):
    """A counter value as written in a report: integral values as ints."""
    return int(value) if float(value).is_integer() else value


def _run_cell(case: FuzzCase, chunk_size: Optional[int] = None,
              telemetry=None) -> SimulationResult:
    return run_scenario(
        case.scenario, case.config, seed=case.seed,
        warmup_fraction=case.warmup_fraction,
        chunk_size=chunk_size if chunk_size is not None else case.chunk_size,
        telemetry=telemetry, closed_loop=case.closed_loop)


def _chunks(case: FuzzCase):
    """The case's chunk stream, built the way :func:`run_scenario` builds it."""
    if case.closed_loop is not None:
        # Imported lazily, as run_scenario does.
        from repro.scenario.closed_loop import ClosedLoopSource

        return ClosedLoopSource(case.scenario, case.closed_loop,
                                seed=case.seed, chunk_size=case.chunk_size)
    return iter_scenario_chunks(case.scenario, seed=case.seed,
                                chunk_size=case.chunk_size)


def _run_shadowed(case: FuzzCase, checks: Sequence[str]
                  ) -> Tuple[SimulationResult, Dict[str, Optional[str]]]:
    """The default run with the named checks' references shadowing it.

    Returns the run's result (identical to :func:`_run_cell`'s) and, per
    check, its reference's first mismatch or ``None``.
    """
    system = ServerSystem(case.config, workload_name=case.scenario.name)
    shadows = {name: _SHADOWS[name](system) for name in checks}
    result = system.run(_chunks(case), warmup_accesses=case.warmup_accesses)
    return result, {name: shadow.mismatch for name, shadow in shadows.items()}


def _snapshot_result(case: FuzzCase, workdir: Optional[Path]) -> SimulationResult:
    """Capture at the warmup boundary, file round-trip, restore, measure."""
    system = ServerSystem(case.config, workload_name=case.scenario.name)
    # A closed-loop source's controller state rides inside the snapshot,
    # and the replay rebuilds a fresh source to restore into -- proving the
    # checkpoint carries everything production needs, not just simulator
    # state.
    snapshot, _, _ = capture_warmup(system, _chunks(case), case.warmup_accesses)
    if workdir is None:
        with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as tmp:
            path = Path(tmp) / "warm.npz"
            save_snapshot(snapshot, path)
            snapshot = load_snapshot(path)
    else:
        path = Path(workdir) / f"{case.label}-warm.npz"
        save_snapshot(snapshot, path)
        snapshot = load_snapshot(path)
    return run_scenario(case.scenario, case.config, seed=case.seed,
                        warmup_fraction=case.warmup_fraction,
                        chunk_size=case.chunk_size, snapshot=snapshot,
                        closed_loop=case.closed_loop)


def _perturbed_chunk_size(chunk_size: int) -> int:
    """A second chunk size guaranteed to split the stream differently."""
    return max(32, (chunk_size * 2) // 3 + 17)


def run_oracle(spec: Dict, checks: Optional[Sequence[str]] = None,
               workdir=None) -> OracleReport:
    """Run the oracle over one spec dict.

    ``checks`` restricts the run to a subset of :data:`CHECKS` (the shrinker
    re-runs only the originally failing axis).  The default run is
    simulated once, shadowed by the selected ``lru`` and ``dram`` checks.
    ``workdir`` keeps the snapshot check's ``.npz`` round-trip file for
    inspection; by default it lives in a temporary directory.

    Raises ``ValueError`` for specs that do not materialize; every
    simulation failure below that propagates -- a crash on a valid spec is
    a finding, not an infrastructure error.
    """
    selected = tuple(checks) if checks is not None else CHECKS
    unknown = [name for name in selected if name not in CHECKS]
    if unknown:
        raise ValueError(f"unknown oracle checks {unknown}; known: {CHECKS}")
    case = materialize(spec)
    shadowed = [name for name in selected if name in _SHADOWS]
    default, mismatches = _run_shadowed(case, shadowed)
    reference = result_fingerprint(default)
    report = OracleReport(label=case.label, reference_fingerprint=reference)

    def record(check: str, cell: str, result: SimulationResult,
               problems: Sequence[str] = ()) -> None:
        problems = list(problems) + identity_problems(result)
        report.checks.append(CheckResult(check, cell, not problems,
                                         detail="; ".join(problems)))

    def compare(check: str, cell: str, result: SimulationResult) -> None:
        differs = result_fingerprint(result) != reference
        record(check, cell, result,
               ["fingerprint differs from the default run"]
               if differs else [])

    for name in shadowed:
        mismatch = mismatches[name]
        record(name, "default", default,
               [mismatch] if mismatch is not None else [])
    if "dram" in selected and case.closed_loop is not None:
        # Closed-loop production feeds simulator observations back into
        # the stream, so assert run-to-run determinism explicitly: an
        # unshadowed rerun must reproduce the default run.
        compare("dram", "repeat", _run_cell(case))
    if "chunk" in selected:
        alt = _perturbed_chunk_size(case.chunk_size)
        compare("chunk", f"chunk={alt}", _run_cell(case, chunk_size=alt))
    if "telemetry" in selected:
        compare("telemetry", "telemetry=full",
                _run_cell(case, telemetry="full"))
    if "snapshot" in selected:
        if case.warmup_accesses < 1:
            report.checks.append(
                CheckResult("snapshot", "no-warmup", True, skipped=True))
        else:
            compare("snapshot", f"split@{case.warmup_accesses}",
                    _snapshot_result(case, workdir))
    return report
