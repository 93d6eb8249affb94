"""Regression corpus: every promoted spec replays through the full oracle."""

from pathlib import Path

import pytest

from repro.fuzz import (
    SPEC_FORMAT_VERSION,
    corpus_paths,
    load_spec,
    materialize,
    run_oracle,
    save_spec,
    spec_fingerprint,
)
from repro.scenario.compiler import iter_scenario_chunks
from repro.sim.system import ServerSystem

CORPUS_DIR = Path(__file__).parent / "fuzz_corpus"


def _corpus():
    paths = corpus_paths(CORPUS_DIR)
    assert paths, f"fuzz corpus at {CORPUS_DIR} must not be empty"
    return paths


@pytest.mark.parametrize("path", _corpus(), ids=lambda p: p.stem)
class TestCorpusReplay:
    def test_replays_clean_through_the_oracle(self, path):
        report = run_oracle(load_spec(path))
        assert report.ok, report.describe()

    def test_materializes_and_stays_small(self, path):
        case = materialize(load_spec(path))
        # Corpus entries run inside tier-1 on every push: keep them short.
        assert case.total_accesses <= 2000, (
            f"{path.name} is too large for the regression corpus")


def test_small_llc_spec_streams_bulk_writebacks_from_evictions():
    """The ``bump`` spec with a 64 KB LLC evicts after warmup, and BuMP's
    eviction hook streams bulk writebacks that the eviction applies."""
    case = materialize(load_spec(CORPUS_DIR / "bump-small-llc.json"))
    system = ServerSystem(case.config, workload_name=case.scenario.name)
    handle = system._handle_llc_eviction
    streaming = []

    def handle_eviction(*args):
        before = system._h_bulk_writebacks
        handle(*args)
        streaming.append(system._h_bulk_writebacks > before)

    system._handle_llc_eviction = handle_eviction
    chunks = iter_scenario_chunks(case.scenario, seed=case.seed,
                                  chunk_size=case.chunk_size)
    result = system.run(chunks, warmup_accesses=case.warmup_accesses)
    assert case.config.system.llc.size_bytes == 64 * 1024
    assert result.counters["llc_evictions"] > 100
    assert result.counters["bulk_writebacks"] > 0
    assert sum(streaming) >= 2


class TestCorpusHygiene:
    def test_labels_are_unique_and_descriptive(self):
        specs = [load_spec(path) for path in _corpus()]
        labels = [spec["label"] for spec in specs]
        assert len(labels) == len(set(labels))
        assert all(label.startswith("corpus-") for label in labels)

    def test_fingerprints_are_unique(self):
        digests = [spec_fingerprint(load_spec(path)) for path in _corpus()]
        assert len(digests) == len(set(digests))


class TestCodec:
    def test_save_load_round_trip(self, tmp_path):
        spec = load_spec(_corpus()[0])
        path = save_spec(spec, tmp_path / "copy.json")
        assert load_spec(path) == spec

    def test_corrupt_json_is_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="corrupt fuzz spec"):
            load_spec(path)

    def test_non_object_payload_is_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(ValueError, match="expected a JSON object"):
            load_spec(path)

    def test_wrong_format_version_is_rejected(self, tmp_path):
        spec = dict(load_spec(_corpus()[0]), format=SPEC_FORMAT_VERSION + 1)
        path = save_spec(spec, tmp_path / "future.json")
        with pytest.raises(ValueError, match="format"):
            load_spec(path)

    def test_corpus_paths_sorted_and_missing_dir_empty(self, tmp_path):
        assert corpus_paths(tmp_path / "nowhere") == []
        save_spec(load_spec(_corpus()[0]), tmp_path / "b.json")
        save_spec(load_spec(_corpus()[0]), tmp_path / "a.json")
        assert [p.name for p in corpus_paths(tmp_path)] == ["a.json", "b.json"]
