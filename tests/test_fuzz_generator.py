"""Spec generator: determinism, validity over the sampled surface, and the
corpus-stability pins that turn generator drift into a reviewed change."""

import pytest

from repro.fuzz import (
    corpus_fingerprint,
    generate_spec,
    iter_specs,
    materialize,
    spec_fingerprint,
)

#: Pinned digests of the first five specs of streams 0 and 1.  These values
#: change whenever the sampling logic, ranges or spec schema change -- which
#: silently re-shapes every seed's corpus and invalidates saved reproducer
#: provenance.  If you changed the generator ON PURPOSE, recompute with
#: ``python -c "from repro.fuzz import corpus_fingerprint;
#: print(corpus_fingerprint(0), corpus_fingerprint(1))"`` and update both
#: pins in the same commit.
_PINNED_STREAM_0 = "ef7181cd3f0d97e556a285a4a038f8bf"
_PINNED_STREAM_1 = "5c14901642c57f805b987a37fbc5bca4"


class TestDeterminism:
    def test_same_seed_index_same_spec(self):
        assert generate_spec(3, 17) == generate_spec(3, 17)

    def test_independent_of_generation_order(self):
        forward = [generate_spec(5, i) for i in range(6)]
        backward = [generate_spec(5, i) for i in reversed(range(6))]
        assert forward == list(reversed(backward))

    def test_streams_and_indices_differ(self):
        assert generate_spec(0, 0) != generate_spec(0, 1)
        assert generate_spec(0, 0) != generate_spec(1, 0)

    def test_iter_specs_offsets(self):
        tail = list(iter_specs(9, 3, start=2))
        assert tail == [generate_spec(9, i) for i in (2, 3, 4)]


class TestValidity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_first_twenty_specs_materialize(self, seed):
        """Every sample is valid by construction: constructors never reject."""
        for spec in iter_specs(seed, 20):
            case = materialize(spec)
            assert 0 < case.total_accesses <= 3 * 900
            assert case.scenario.num_cores in (2, 4, 8, 16)
            assert 0.0 <= case.warmup_fraction < 1.0
            assert case.chunk_size >= 64

    def test_surface_coverage_across_one_stream(self):
        """One 60-spec stream touches the axes the oracle differentiates on."""
        cases = [materialize(spec) for spec in iter_specs(0, 60)]
        assert {len(c.scenario.phases) for c in cases} >= {1, 2, 3}
        assert {c.config.interleaving for c in cases} == {"block", "region"}
        assert {c.config.page_policy.name for c in cases} == {"OPEN", "CLOSE"}
        assert {c.config.timing_model for c in cases} == {"analytic", "interval"}
        assert {c.config.scheduler for c in cases} == {
            "frfcfs", "fcfs", "bank_round_robin"}
        assert {c.config.system.llc.size_bytes // 1024 for c in cases} == {
            32, 64, 128, 4096}
        assert any(c.warmup_fraction == 0.0 for c in cases)
        assert any(p.bursts for c in cases for p in c.scenario.phases)
        assert any(len(p.active_cores) < c.scenario.num_cores
                   for c in cases for p in c.scenario.phases)
        assert len({c.config.name for c in cases}) >= 8
        closed = [c for c in cases if c.closed_loop is not None]
        assert closed and len(closed) < len(cases)
        assert all(c.closed_loop.interval >= 1 and
                   c.closed_loop.min_intensity <= c.closed_loop.max_intensity
                   for c in closed)

    def test_tenant_partitions_are_disjoint(self):
        for spec in iter_specs(4, 20):
            for phase in spec["scenario"]["phases"]:
                cores = [core for tenant in phase["tenants"]
                         for core in tenant["cores"]]
                assert len(cores) == len(set(cores))


class TestCorpusStability:
    def test_stream_0_is_pinned(self):
        assert corpus_fingerprint(0) == _PINNED_STREAM_0

    def test_stream_1_is_pinned(self):
        assert corpus_fingerprint(1) == _PINNED_STREAM_1

    def test_fingerprint_covers_the_requested_prefix(self):
        assert corpus_fingerprint(0, 5) != corpus_fingerprint(0, 10)

    def test_spec_fingerprint_ignores_the_label(self):
        spec = generate_spec(0, 0)
        relabeled = dict(spec, label="renamed")
        assert spec_fingerprint(spec) == spec_fingerprint(relabeled)

    def test_spec_fingerprint_sees_content(self):
        spec = generate_spec(0, 0)
        changed = dict(spec, seed=spec["seed"] + 1)
        assert spec_fingerprint(spec) != spec_fingerprint(changed)
