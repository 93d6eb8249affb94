"""Seeded sampling of random valid fuzz specs.

The generator walks the whole declarative surface the scenario engine and
configuration layer expose -- multi-tenant core partitions with idle cores,
1-3 phases with independent tenant layouts, per-phase and per-tenant
intensity scaling, stacked burst windows, every named system configuration
(paper and extended sets) with page-policy / interleaving / timing-model /
arrival-CPI / scheduler / LLC-capacity overrides, randomized warmup
fractions and streaming chunk sizes -- while staying inside the validated
envelope: every sample materializes without error and simulates in well
under a second, so a 200-sample differential sweep fits a CI smoke budget.

Determinism contract: ``generate_spec(seed, index)`` depends on nothing but
its arguments.  :func:`corpus_fingerprint` digests the first N specs of a
seed so the test suite can pin the generator's output -- spec-generation
drift then shows up as an explicit, reviewed fingerprint change instead of
silent corpus rot.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List

from repro.common.fingerprint import fingerprint
from repro.fuzz.corpus import SPEC_FORMAT_VERSION, spec_fingerprint
from repro.sim.config import extended_configs, named_configs
from repro.workloads.catalog import workload_names

__all__ = [
    "corpus_fingerprint",
    "generate_spec",
    "iter_specs",
]

#: Per-phase access budget.  The floor keeps warmup splits and burst windows
#: meaningful; the ceiling keeps a full differential oracle per sample (about
#: a dozen simulations) around half a second.
_MIN_PHASE_ACCESSES = 150
_MAX_PHASE_ACCESSES = 900

#: Streaming chunk sizes worth distinguishing: small enough that chunk
#: boundaries fall mid-phase and mid-warmup, large enough to exercise the
#: one-chunk case for short scenarios.
_CHUNK_SIZES = (64, 128, 256, 512, 1024, 2048)

_CORE_COUNTS = (2, 4, 8, 16)


def _mix(seed: int, index: int) -> random.Random:
    """One private RNG per (seed, index); samples never share draw streams."""
    return random.Random((int(seed) & 0xFFFFFFFF) * 0x9E3779B1 + int(index))


def _sample_tenants(rng: random.Random, num_cores: int,
                    workloads: List[str]) -> List[Dict]:
    """A random disjoint core partition with optional idle cores."""
    cores = list(range(num_cores))
    rng.shuffle(cores)
    # Leave 0..half the machine idle (biased toward fully loaded).
    idle = rng.choice((0, 0, 0, 1, num_cores // 4, num_cores // 2))
    active = cores[:max(1, num_cores - idle)]
    tenant_count = rng.randint(1, min(3, len(active)))
    # Random split points carve the active cores into disjoint groups.
    bounds = sorted(rng.sample(range(1, len(active)), tenant_count - 1)) \
        if tenant_count > 1 else []
    groups, start = [], 0
    for bound in bounds + [len(active)]:
        groups.append(sorted(active[start:bound]))
        start = bound
    tenants = []
    for group in groups:
        tenant = {
            "workload": rng.choice(workloads),
            "cores": group,
        }
        if rng.random() < 0.4:
            tenant["intensity"] = round(rng.uniform(0.4, 2.5), 3)
        tenants.append(tenant)
    return tenants


def _sample_bursts(rng: random.Random) -> List[List[float]]:
    bursts = []
    for _ in range(rng.choice((0, 0, 0, 1, 1, 2))):
        start = round(rng.uniform(0.0, 0.75), 3)
        stop = round(min(1.0, start + rng.uniform(0.05, 0.25)), 3)
        if stop <= start:
            continue
        bursts.append([start, stop, round(rng.uniform(1.2, 3.0), 3)])
    return bursts


def _sample_config(rng: random.Random) -> Dict:
    names = sorted(set(named_configs()) | set(extended_configs()))
    config: Dict = {"base": rng.choice(names)}
    overrides: Dict = {}
    if rng.random() < 0.25:
        overrides["page_policy"] = rng.choice(("open", "close"))
    if rng.random() < 0.25:
        overrides["interleaving"] = rng.choice(("block", "region"))
    if rng.random() < 0.20:
        overrides["timing_model"] = "interval"
    if rng.random() < 0.30:
        overrides["arrival_cpi"] = round(rng.uniform(1.0, 4.0), 3)
    if overrides:
        config["overrides"] = overrides
    return config


def generate_spec(seed: int, index: int) -> Dict:
    """The ``index``-th random valid fuzz spec of stream ``seed``.

    Pure function of its arguments: the same (seed, index) pair produces the
    same spec on every machine and every run (pinned by the corpus-stability
    test).  The returned dict follows the :mod:`repro.fuzz.corpus` schema
    and always materializes successfully.
    """
    rng = _mix(seed, index)
    workloads = workload_names()
    num_cores = rng.choice(_CORE_COUNTS)
    phases = []
    for phase_index in range(rng.randint(1, 3)):
        phase: Dict = {
            "name": f"phase{phase_index}",
            "accesses": rng.randint(_MIN_PHASE_ACCESSES, _MAX_PHASE_ACCESSES),
            "tenants": _sample_tenants(rng, num_cores, workloads),
        }
        if rng.random() < 0.5:
            phase["intensity"] = round(rng.uniform(0.25, 2.0), 3)
        bursts = _sample_bursts(rng)
        if bursts:
            phase["bursts"] = bursts
        phases.append(phase)
    # Warmup: usually a split somewhere inside the run, occasionally none at
    # all.
    warmup_fraction = 0.0 if rng.random() < 0.15 \
        else round(rng.uniform(0.1, 0.6), 3)
    spec = {
        "format": SPEC_FORMAT_VERSION,
        "label": f"fuzz-{seed}-{index}",
        "seed": rng.randrange(2 ** 31),
        "warmup_fraction": warmup_fraction,
        "chunk_size": rng.choice(_CHUNK_SIZES),
        "scenario": {
            "num_cores": num_cores,
            "phases": phases,
        },
        "config": _sample_config(rng),
    }
    # A quarter of the samples run an ablation scheduler, so the ``dram``
    # check sees FCFS and bank round robin on every sweep.  Drawn after
    # every other field, so this choice never shifts the other draws.
    if rng.random() < 0.25:
        overrides = spec["config"].setdefault("overrides", {})
        overrides["scheduler"] = rng.choice(("fcfs", "bank_round_robin"))
    # Three quarters of the samples shrink the LLC to 32-128 KB, which
    # their few thousand accesses overflow, so the ``lru`` check compares
    # LLC victims and the agents see evictions; half of those get 32 KB,
    # which even a short sample overflows.  The rest keep the paper's 4 MB.
    # Drawn last, like the scheduler.
    if rng.random() < 0.75:
        overrides = spec["config"].setdefault("overrides", {})
        overrides["llc_bytes"] = rng.choice((32, 32, 64, 128)) * 1024
    return spec


def iter_specs(seed: int, count: int, start: int = 0) -> Iterator[Dict]:
    """Stream ``count`` specs of stream ``seed`` starting at ``start``."""
    for index in range(start, start + count):
        yield generate_spec(seed, index)


def corpus_fingerprint(seed: int, count: int = 5) -> str:
    """Digest of the first ``count`` specs of stream ``seed``.

    The corpus-stability test pins this value: any change to the sampling
    logic, ranges or schema shows up as a reviewed fingerprint bump.
    """
    return fingerprint([spec_fingerprint(spec)
                        for spec in iter_specs(seed, count)])
