"""Scenario fuzzer and verification oracle.

The golden pins and parity suites check results on a *fixed* matrix: six
workloads x eight named configurations plus the six-scenario catalog.
This package turns that checklist into a coverage engine:

* :mod:`repro.fuzz.generator` samples random **valid** scenario/configuration
  specs over the full spec surface (multi-tenant core partitions, phases,
  bursts, intensity scaling, idle cores, page policies, interleavings,
  warmup lengths, chunk sizes) from a seed, deterministically;
* :mod:`repro.fuzz.oracle` runs one sample with the reference LRU of
  :mod:`repro.fuzz.reference_lru` shadowing its caches and the reference
  DRAM of :mod:`repro.fuzz.reference_dram` shadowing its memory system,
  then at a perturbed chunk size, with telemetry on and through a snapshot
  split-then-resume; every run must fingerprint identically to the
  shadowed one and satisfy the counter identities;
* :mod:`repro.fuzz.shrink` reduces a failing sample to a minimal reproducer
  (drop phases and tenants, halve accesses, strip bursts/intensities,
  simplify the configuration) and the :mod:`repro.fuzz.corpus` codec writes
  it as a replayable JSON artifact;
* ``tests/fuzz_corpus/`` holds promoted reproducers and representative
  samples that the normal test suite replays on every run, and the ``repro
  fuzz`` CLI (``--budget``, ``--seed``, ``--corpus``) drives open-ended
  hunting locally and in CI.

Specs travel as plain JSON-able dicts (see :mod:`repro.fuzz.corpus` for the
schema), so a failure found on one machine replays bit-identically on any
other: the dict is the artifact, the fingerprint is the name.
"""

from repro.fuzz.corpus import (
    SPEC_FORMAT_VERSION,
    corpus_paths,
    load_spec,
    materialize,
    save_spec,
    spec_fingerprint,
)
from repro.fuzz.generator import corpus_fingerprint, generate_spec, iter_specs
from repro.fuzz.oracle import (
    CHECKS,
    CheckResult,
    OracleReport,
    run_oracle,
)
from repro.fuzz.shrink import ShrinkResult, shrink

__all__ = [
    "CHECKS",
    "CheckResult",
    "OracleReport",
    "SPEC_FORMAT_VERSION",
    "ShrinkResult",
    "corpus_fingerprint",
    "corpus_paths",
    "generate_spec",
    "iter_specs",
    "load_spec",
    "materialize",
    "run_oracle",
    "save_spec",
    "shrink",
    "spec_fingerprint",
]
