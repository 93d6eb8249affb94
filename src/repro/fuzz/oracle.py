"""Differential verification of one fuzz spec across every engine axis.

One sample, one verdict: the oracle simulates the spec's scenario under its
configuration in every distinguishable cell of the engine space and demands
that all of them fingerprint identically to the **reference cell** -- the
original object engines (``dict`` cache, ``object`` DRAM), the same baseline
every flat engine was proven against.

Checks (each independently selectable; ``CHECKS`` lists them all):

``cube``
    The cache x DRAM engine cube: ``dict/flat``, ``flat/object`` and
    ``flat/flat`` against the reference cell.
``chunk``
    Chunk-size invariance: the same run at a perturbed streaming chunk size
    must not leak batch boundaries into any statistic.
``telemetry``
    Observability is an observer: a fully instrumented run must fingerprint
    identically to the uninstrumented reference.
``snapshot``
    Warm-state checkpointing: capture at the warmup boundary, round-trip the
    snapshot through the on-disk ``.npz`` codec, restore into a fresh
    system and measure the tail -- bit-identical to never having stopped.
    Skipped (reported, not run) when the spec has no warmup interval.

Specs with a ``closed_loop`` block run every cell through the
feedback-driven :class:`~repro.scenario.closed_loop.ClosedLoopSource`: the
cube check then additionally reruns the reference cell verbatim (asserting
run-to-run determinism of the feedback path), and the snapshot check
checkpoints/restores the source's controller state alongside the simulator
arrays.

Every simulation in a check replays the identical deterministic chunk
stream, so a mismatch is always an engine bug (or an injected fault), never
workload noise.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exec.campaign import result_fingerprint
from repro.fuzz.corpus import FuzzCase, materialize
from repro.scenario.compiler import iter_scenario_chunks
from repro.scenario.runner import run_scenario
from repro.sim.snapshot import capture_warmup, load_snapshot, save_snapshot
from repro.sim.system import ServerSystem

__all__ = [
    "CHECKS",
    "CheckResult",
    "OracleReport",
    "REFERENCE_CELL",
    "run_oracle",
]

#: The reference engine cell (cache, DRAM) every other cell is compared
#: against.
REFERENCE_CELL = ("dict", "object")

#: Engine cells of the cube check (reference excluded).
_CUBE_CELLS: Tuple[Tuple[str, str], ...] = (
    ("dict", "flat"),
    ("flat", "object"),
    ("flat", "flat"),
)

#: All check names, in execution order.
CHECKS = ("cube", "chunk", "telemetry", "snapshot")


@dataclass
class CheckResult:
    """Outcome of one differential cell."""

    check: str
    cell: str
    matches: bool
    #: ``True`` when the cell could not run for this spec (e.g. the snapshot
    #: check on a spec with no warmup interval); never counted as a failure.
    skipped: bool = False

    def describe(self) -> str:
        state = "skip" if self.skipped else ("ok" if self.matches else "FAIL")
        return f"{self.check}:{self.cell}={state}"


@dataclass
class OracleReport:
    """Every cell verdict for one spec, plus the reference fingerprint."""

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


def _run_cell(case: FuzzCase, cache: str, dram: str,
              chunk_size: Optional[int] = None, telemetry=None) -> str:
    result = run_scenario(
        case.scenario, case.config, seed=case.seed,
        warmup_fraction=case.warmup_fraction,
        chunk_size=chunk_size if chunk_size is not None else case.chunk_size,
        cache_engine=cache, dram_engine=dram,
        telemetry=telemetry, closed_loop=case.closed_loop)
    return result_fingerprint(result)


def _snapshot_fingerprint_for(case: FuzzCase, workdir: Optional[Path]) -> str:
    """Capture at the warmup boundary, file round-trip, restore, measure."""
    system = ServerSystem(case.config, workload_name=case.scenario.name,
                          cache_engine="flat", dram_engine="flat")
    if case.closed_loop is not None:
        # Closed-loop capture: the source's controller state rides inside
        # the snapshot, and the replay rebuilds a fresh source to restore
        # into -- proving the checkpoint carries everything production
        # needs, not just simulator state.
        from repro.scenario.closed_loop import ClosedLoopSource

        chunks = ClosedLoopSource(case.scenario, case.closed_loop,
                                  seed=case.seed, chunk_size=case.chunk_size)
    else:
        chunks = iter_scenario_chunks(case.scenario, seed=case.seed,
                                      chunk_size=case.chunk_size)
    snapshot, _, _ = capture_warmup(system, chunks, case.warmup_accesses)
    if workdir is None:
        with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as tmp:
            path = Path(tmp) / "warm.npz"
            save_snapshot(snapshot, path)
            snapshot = load_snapshot(path)
    else:
        path = Path(workdir) / f"{case.label}-warm.npz"
        save_snapshot(snapshot, path)
        snapshot = load_snapshot(path)
    result = run_scenario(case.scenario, case.config, seed=case.seed,
                          warmup_fraction=case.warmup_fraction,
                          chunk_size=case.chunk_size, snapshot=snapshot,
                          closed_loop=case.closed_loop)
    return result_fingerprint(result)


def _perturbed_chunk_size(chunk_size: int) -> int:
    """A second chunk size guaranteed to split the stream differently."""
    return max(32, (chunk_size * 2) // 3 + 17)


def run_oracle(spec: Dict, checks: Optional[Sequence[str]] = None,
               workdir=None) -> OracleReport:
    """Run the differential oracle over one spec dict.

    ``checks`` restricts the run to a subset of :data:`CHECKS` (the shrinker
    re-runs only the originally failing axis).  ``workdir`` keeps the
    snapshot check's ``.npz`` round-trip file for inspection; by default it
    lives in a temporary directory.

    Raises ``ValueError`` for specs that do not materialize; every
    simulation failure below that propagates -- an engine crash on a valid
    spec is a finding, not an infrastructure error.
    """
    selected = tuple(checks) if checks is not None else CHECKS
    unknown = [name for name in selected if name not in CHECKS]
    if unknown:
        raise ValueError(f"unknown oracle checks {unknown}; known: {CHECKS}")
    case = materialize(spec)
    reference = _run_cell(case, *REFERENCE_CELL)
    report = OracleReport(label=case.label, reference_fingerprint=reference)

    if "cube" in selected:
        if case.closed_loop is not None:
            # Closed-loop production feeds simulator observations back into
            # the stream, so assert run-to-run determinism explicitly: an
            # exact rerun of the reference cell must reproduce it.
            matches = _run_cell(case, *REFERENCE_CELL) == reference
            report.checks.append(
                CheckResult("cube", "repeat:" + "/".join(REFERENCE_CELL),
                            matches))
        for cache, dram in _CUBE_CELLS:
            cell = f"{cache}/{dram}"
            matches = _run_cell(case, cache, dram) == reference
            report.checks.append(CheckResult("cube", cell, matches))
    if "chunk" in selected:
        alt = _perturbed_chunk_size(case.chunk_size)
        matches = _run_cell(case, "flat", "flat",
                            chunk_size=alt) == reference
        report.checks.append(
            CheckResult("chunk", f"chunk={alt}", matches))
    if "telemetry" in selected:
        matches = _run_cell(case, "flat", "flat",
                            telemetry="full") == reference
        report.checks.append(
            CheckResult("telemetry", "telemetry=full", matches))
    if "snapshot" in selected:
        if case.warmup_accesses < 1:
            report.checks.append(
                CheckResult("snapshot", "no-warmup", True, skipped=True))
        else:
            matches = _snapshot_fingerprint_for(case, workdir) == reference
            report.checks.append(CheckResult(
                "snapshot", f"split@{case.warmup_accesses}", matches))
    return report
