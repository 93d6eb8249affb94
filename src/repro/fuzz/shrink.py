"""Reduce a failing fuzz spec to a minimal replayable reproducer.

Delta-debugging over the declarative spec surface: each pass proposes a
structurally smaller candidate (drop a phase, drop a tenant, halve a
phase's accesses, strip bursts and intensity scaling, clear configuration
overrides, fall back to the ``base_open`` configuration, compact the core
numbering), keeps it only if the failure **still reproduces**, and repeats
until no proposal sticks.  The result is the spec a human wants to read in
a bug report -- typically one phase, one or two tenants and a few hundred
accesses -- and, serialized through :mod:`repro.fuzz.corpus`, the artifact
the regression corpus replays forever after.

Only the originally failing oracle checks are re-run while shrinking (a
chunk-invariance bug does not need every check re-simulated per
candidate), which keeps a shrink to a few dozen short simulations.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.fuzz.corpus import materialize
from repro.fuzz.oracle import run_oracle

__all__ = [
    "ShrinkResult",
    "shrink",
]

#: Never shrink a phase below this many accesses: the failure must stay
#: observable, and sub-64-access runs stop exercising the machinery at all.
_MIN_ACCESSES = 64


@dataclass
class ShrinkResult:
    """A minimized spec plus the bookkeeping of how it got there."""

    spec: Dict
    #: Candidate specs evaluated (accepted + rejected), for budget reporting.
    attempts: int
    #: Accepted reduction steps, in order, e.g. ``"drop-phase(1)"``.
    steps: List[str]

    @property
    def phases(self) -> int:
        return len(self.spec["scenario"]["phases"])

    @property
    def tenants(self) -> int:
        return max(len(p["tenants"])
                   for p in self.spec["scenario"]["phases"])

    @property
    def total_accesses(self) -> int:
        return sum(int(p["accesses"])
                   for p in self.spec["scenario"]["phases"])


def _candidates(spec: Dict) -> Iterator[tuple]:
    """Yield ``(description, candidate_spec)`` reductions, biggest cuts first."""
    scenario = spec["scenario"]
    phases = scenario["phases"]

    # 1. Whole phases (largest first so one acceptance removes the most).
    if len(phases) > 1:
        order = sorted(range(len(phases)),
                       key=lambda i: -int(phases[i]["accesses"]))
        for index in order:
            candidate = copy.deepcopy(spec)
            del candidate["scenario"]["phases"][index]
            yield f"drop-phase({index})", candidate

    # 2. Tenants within each phase.
    for pi, phase in enumerate(phases):
        if len(phase["tenants"]) > 1:
            for ti in range(len(phase["tenants"])):
                candidate = copy.deepcopy(spec)
                del candidate["scenario"]["phases"][pi]["tenants"][ti]
                yield f"drop-tenant({pi},{ti})", candidate

    # 3. Halve phase lengths.
    for pi, phase in enumerate(phases):
        accesses = int(phase["accesses"])
        if accesses >= 2 * _MIN_ACCESSES:
            candidate = copy.deepcopy(spec)
            candidate["scenario"]["phases"][pi]["accesses"] = accesses // 2
            yield f"halve-accesses({pi})", candidate

    # 4. Strip bursts and intensity scaling.
    for pi, phase in enumerate(phases):
        if phase.get("bursts"):
            candidate = copy.deepcopy(spec)
            candidate["scenario"]["phases"][pi].pop("bursts", None)
            yield f"drop-bursts({pi})", candidate
        if phase.get("intensity", 1.0) != 1.0:
            candidate = copy.deepcopy(spec)
            candidate["scenario"]["phases"][pi].pop("intensity", None)
            yield f"reset-phase-intensity({pi})", candidate
        for ti, tenant in enumerate(phase["tenants"]):
            if tenant.get("intensity", 1.0) != 1.0:
                candidate = copy.deepcopy(spec)
                candidate["scenario"]["phases"][pi]["tenants"][ti].pop(
                    "intensity", None)
                yield f"reset-tenant-intensity({pi},{ti})", candidate

    # 5. Simplify the configuration: overrides first, then the base.
    config = spec.get("config", {})
    for key in sorted(config.get("overrides") or {}):
        candidate = copy.deepcopy(spec)
        candidate["config"]["overrides"].pop(key)
        if not candidate["config"]["overrides"]:
            candidate["config"].pop("overrides")
        yield f"drop-override({key})", candidate
    if config.get("base", "base_open") != "base_open":
        candidate = copy.deepcopy(spec)
        candidate["config"] = {"base": "base_open"}
        yield "simplify-config(base_open)", candidate

    # 6. Drop the warmup split (halves most oracle cells' simulated work).
    if spec.get("warmup_fraction", 0.5):
        candidate = copy.deepcopy(spec)
        candidate["warmup_fraction"] = 0.0
        yield "drop-warmup", candidate

    # 7. Compact the core numbering: shrink the machine to the used cores.
    used = sorted({core for phase in phases
                   for tenant in phase["tenants"]
                   for core in tenant["cores"]})
    if len(used) < int(scenario["num_cores"]):
        remap = {core: slot for slot, core in enumerate(used)}
        candidate = copy.deepcopy(spec)
        candidate["scenario"]["num_cores"] = len(used)
        for phase in candidate["scenario"]["phases"]:
            for tenant in phase["tenants"]:
                tenant["cores"] = [remap[core] for core in tenant["cores"]]
        yield "compact-cores", candidate


def shrink(spec: Dict, is_failing: Optional[Callable[[Dict], bool]] = None,
           checks: Optional[Sequence[str]] = None,
           max_attempts: int = 200) -> ShrinkResult:
    """Minimize ``spec`` while ``is_failing`` keeps returning ``True``.

    Without an explicit predicate the oracle itself is the judge: an initial
    full run determines the failing checks, and every candidate re-runs only
    those (or the ``checks`` argument's subset).  Candidates that fail to
    materialize -- a mutation can produce an invalid spec -- are discarded,
    never counted as reproducing.

    ``spec`` is never mutated; raises ``ValueError`` if the input does not
    fail in the first place (shrinking a passing spec is a caller bug).
    """
    if is_failing is None:
        if checks is None:
            initial = run_oracle(spec)
            if initial.ok:
                raise ValueError(
                    f"spec {spec.get('label', '?')!r} passes the oracle; "
                    "nothing to shrink")
            checks = tuple(initial.failed_checks)
        failing_checks = tuple(checks)

        def is_failing(candidate: Dict) -> bool:
            return not run_oracle(candidate, checks=failing_checks).ok

    if not is_failing(spec):
        raise ValueError(
            f"spec {spec.get('label', '?')!r} does not fail the failure "
            "predicate; nothing to shrink")

    current = copy.deepcopy(spec)
    attempts = 0
    steps: List[str] = []
    reduced = True
    while reduced and attempts < max_attempts:
        reduced = False
        for description, candidate in _candidates(current):
            if attempts >= max_attempts:
                break
            attempts += 1
            try:
                materialize(candidate)
            except (ValueError, KeyError):
                continue
            if is_failing(candidate):
                current = candidate
                steps.append(description)
                reduced = True
                break  # restart the pass from the biggest cuts
    current["label"] = f"{spec.get('label', 'fuzz')}-min"
    return ShrinkResult(spec=current, attempts=attempts, steps=steps)
