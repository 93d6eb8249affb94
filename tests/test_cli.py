"""Tests for the command-line interface."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.figures import FIGURES
from repro.cli import build_parser, main
from repro.trace.buffer import TRACE_RECORD_DTYPE


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["--version"])
        assert err.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "no_such_workload"])

    def test_every_experiment_name_is_registered(self):
        expected = {"figure1", "figure2", "figure3", "figure5", "figure8", "figure9",
                    "figure10", "figure11", "figure12", "figure13", "table1", "table4"}
        assert set(FIGURES) == expected


class TestCommands:
    def test_workloads_lists_all_six(self, capsys):
        status, out = run_cli(capsys, "workloads")
        assert status == 0
        for name in ("data_serving", "media_streaming", "online_analytics",
                     "software_testing", "web_search", "web_serving"):
            assert name in out

    def test_characterize_prints_metrics(self, capsys):
        status, out = run_cli(capsys, "characterize", "web_search",
                              "--accesses", "4000", "--cores", "4")
        assert status == 0
        assert "store_fraction" in out
        assert "region density" in out

    def test_run_prints_summary(self, capsys):
        status, out = run_cli(capsys, "run", "web_serving", "--system", "base_open",
                              "--accesses", "4000", "--warmup", "0.25")
        assert status == 0
        assert "row_buffer_hit_ratio" in out
        assert "base_open" in out

    def test_run_accepts_extended_systems(self, capsys):
        status, out = run_cli(capsys, "run", "web_serving", "--system", "bump_vwq",
                              "--accesses", "4000", "--warmup", "0.25")
        assert status == 0
        assert "bump_vwq" in out

    def test_run_rejects_unknown_system(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(capsys, "run", "web_serving", "--system", "warp_drive",
                    "--accesses", "2000")
        assert "warp_drive" in str(err.value)

    def test_compare_prints_one_row_per_system(self, capsys):
        status, out = run_cli(capsys, "compare", "web_serving",
                              "--systems", "base_open,bump",
                              "--accesses", "4000", "--warmup", "0.25")
        assert status == 0
        assert "base_open" in out and "bump" in out

    def test_compare_rejects_empty_system_list(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "compare", "web_serving", "--systems", " , ",
                    "--accesses", "2000")

    def test_campaign_runs_and_resumes_from_store(self, capsys, tmp_path):
        store = tmp_path / "artifacts"
        argv = ["campaign", "--workloads", "web_search",
                "--systems", "base_open,bump", "--accesses", "2000",
                "--cores", "4", "--workers", "2", "--store", str(store),
                "--quiet"]
        status, out = run_cli(capsys, *argv)
        assert status == 0
        assert "2 simulated, 0 from store" in out
        status, out = run_cli(capsys, *argv)
        assert status == 0
        assert "0 simulated, 2 from store" in out

    def test_campaign_reruns_a_truncated_result_and_nothing_else(
            self, capsys, tmp_path):
        store = tmp_path / "artifacts"
        argv = ["campaign", "--workloads", "web_search",
                "--systems", "base_open,bump", "--accesses", "1500",
                "--cores", "4", "--store", str(store), "--quiet"]
        assert run_cli(capsys, *argv)[0] == 0
        damaged = sorted((store / "results").glob("*.pkl"))[0]
        damaged.write_bytes(damaged.read_bytes()[:10])
        status, out = run_cli(capsys, *argv)
        assert status == 0
        assert "2 jobs: 1 simulated, 1 from store" in out
        assert len(damaged.read_bytes()) > 10

    def test_campaign_verify_parity_reports_its_sample(self, capsys,
                                                       monkeypatch):
        monkeypatch.delenv("REPRO_ARTIFACT_DIR", raising=False)
        status, out = run_cli(capsys, "campaign", "--workloads", "web_search",
                              "--systems", "base_open,bump",
                              "--accesses", "1500", "--cores", "4",
                              "--verify-parity", "--quiet")
        assert status == 0
        assert ("parity verified on 2 job(s) at 1500 accesses: parallel "
                "results are identical to serial") in out
        assert "2 jobs: 2 simulated, 0 from store" in out

    def test_campaign_streams_progress_to_stderr(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_ARTIFACT_DIR", raising=False)
        status = main(["campaign", "--workloads", "web_search",
                       "--systems", "base_open,bump", "--accesses", "1500",
                       "--cores", "4"])
        err = capsys.readouterr().err
        assert status == 0
        assert "campaign: 2 jobs (0 already in store), 1 worker" in err
        assert "campaign done: 2 simulated, 0 from store" in err

    def test_campaign_rejects_unknown_workload(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(capsys, "campaign", "--workloads", "warp_drive")
        assert "warp_drive" in str(err.value)

    def test_campaign_rejects_bad_seeds(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "campaign", "--workloads", "web_search",
                    "--seeds", "one,two")

    def test_experiment_table4(self, capsys):
        status, out = run_cli(capsys, "experiment", "table4",
                              "--workloads", "web_serving", "--accesses", "4000")
        assert status == 0
        assert "web_serving" in out

    @pytest.mark.parametrize("accesses", [None, 4000])
    def test_experiment_runs_at_the_harness_length(self, capsys, monkeypatch,
                                                   accesses):
        """Without --accesses a figure runs at its harness trace length
        (Figure 11's sweep at half the default); --accesses N runs at N."""
        import dataclasses

        import repro.cli

        calls = []

        def experiment(workloads, num_accesses=None):
            calls.append((workloads, num_accesses))
            return {}

        figure = dataclasses.replace(FIGURES["figure11"], experiment=experiment,
                                     tables=lambda result: ["sweep"])
        monkeypatch.setattr(repro.cli, "FIGURES", {"figure11": figure})
        argv = ["experiment", "figure11", "--workloads", "web_search"]
        if accesses is not None:
            argv += ["--accesses", str(accesses)]
        status, out = run_cli(capsys, *argv)
        assert status == 0 and "sweep" in out
        want = accesses if accesses is not None else figure.trace_length(None)
        assert want is not None
        assert calls == [(["web_search"], want)]

    def test_experiment_rejects_unknown_name(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(capsys, "experiment", "figure99")
        assert "figure99" in str(err.value)

    def test_scaling_tables(self, capsys):
        status, out = run_cli(capsys, "scaling")
        assert status == 0
        assert "RDTT" in out and "BHT" in out
        assert "virtualization" in out.lower()

    def test_trace_generation_round_trips(self, capsys, tmp_path):
        from repro.trace.io import load_trace_buffer

        output = tmp_path / "trace.npz"
        status, out = run_cli(capsys, "trace", "generate", "web_search",
                              "--accesses", "2000",
                              "--cores", "4", "-o", str(output))
        assert status == 0
        assert output.exists()
        assert len(load_trace_buffer(output)) == 2000

    def test_trace_ingest_replays_a_saved_trace(self, capsys, tmp_path):
        output = tmp_path / "trace.npy"
        status, _ = run_cli(capsys, "trace", "generate", "web_search",
                            "--accesses", "2000",
                            "--cores", "4", "-o", str(output))
        assert status == 0
        status, out = run_cli(capsys, "trace", "ingest", str(output),
                              "--system", "bump", "--mmap")
        assert status == 0
        assert "replayed 2000 accesses" in out
        assert "row_buffer_hit_ratio" in out


class TestScenarioCommands:
    def test_list_ships_the_catalog(self, capsys):
        status, out = run_cli(capsys, "scenario", "list")
        assert status == 0
        for name in ("tenant-colocation", "diurnal-ramp", "antagonist-burst",
                     "phase-change", "idle-cores", "all-six-mix"):
            assert name in out

    def test_describe_prints_phase_table(self, capsys):
        status, out = run_cli(capsys, "scenario", "describe", "antagonist-burst")
        assert status == 0
        assert "online_analytics@12-15" in out
        assert "bursts" in out

    def test_describe_rejects_unknown_scenario(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(capsys, "scenario", "describe", "no-such-scenario")
        assert "no-such-scenario" in str(err.value)

    def test_run_streams_a_scaled_scenario(self, capsys):
        status, out = run_cli(capsys, "scenario", "run", "idle-cores",
                              "--system", "base_open", "--scale", "0.002")
        assert status == 0
        assert "row_buffer_hit_ratio" in out
        assert "idle-cores" in out


class TestTelemetryCli:
    def test_run_with_telemetry_prints_summary(self, capsys):
        status, out = run_cli(capsys, "run", "web_search", "--system", "bump",
                              "--accesses", "4000", "--telemetry", "full")
        assert status == 0
        assert "telemetry[full]:" in out
        assert "sample(s)" in out

    def test_events_flag_implies_full_and_report_renders_the_log(
            self, capsys, tmp_path):
        log = tmp_path / "run.jsonl"
        status, out = run_cli(capsys, "run", "web_search", "--system", "bump",
                              "--accesses", "4000", "--events", str(log))
        assert status == 0
        assert "telemetry[full]:" in out
        assert log.exists()

        status, out = run_cli(capsys, "report", str(log))
        assert status == 0
        assert "cycle" in out          # timeline table
        assert "chunk_service" in out  # aggregated stage span
        assert "run_start" in out      # mark table

        status, out = run_cli(capsys, "report", str(log), "--json")
        assert status == 0
        import json

        summary = json.loads(out)
        assert summary["mode"] == "full"
        assert summary["samples"] >= 1

    def test_scenario_run_accepts_telemetry(self, capsys):
        status, out = run_cli(capsys, "scenario", "run", "phase-change",
                              "--system", "base_open", "--scale", "0.002",
                              "--telemetry", "full")
        assert status == 0
        assert "telemetry[full]:" in out

    def test_campaign_store_holds_only_traces_and_results(self, capsys,
                                                          tmp_path):
        store = tmp_path / "artifacts"
        status, out = run_cli(capsys, "campaign",
                              "--workloads", "web_search",
                              "--systems", "base_open,bump",
                              "--accesses", "1500",
                              "--store", str(store), "--quiet")
        assert status == 0
        assert "2 jobs: 2 simulated, 0 from store" in out
        assert sorted(path.name for path in store.iterdir()) == [
            "results", "traces"]
        assert len(list((store / "results").glob("*.pkl"))) == 2

    def test_report_campaign_metrics_file(self, capsys, tmp_path):
        # Stores written before 1.25.0 hold metrics/campaign-*.json files;
        # report reads event logs only and refuses them with a message.
        metrics = tmp_path / "artifacts" / "metrics" / "campaign-0123.json"
        metrics.parent.mkdir(parents=True)
        metrics.write_text(json.dumps({"schema": 1, "jobs_total": 2,
                                       "worker_utilization": 0.5,
                                       "jobs": []}, indent=2))
        with pytest.raises(SystemExit) as err:
            run_cli(capsys, "report", str(metrics))
        assert "cannot read event log" in str(err.value)
        assert str(metrics) in str(err.value)

    def test_report_without_arguments_exits(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(capsys, "report")
        assert "nothing to report" in str(err.value)

    def test_report_rejects_unreadable_inputs(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(capsys, "report", str(tmp_path / "missing.jsonl"))
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        with pytest.raises(SystemExit):
            run_cli(capsys, "report", str(bad))

    def test_run_rejects_unknown_telemetry_mode(self):
        for mode in ("loud", "chunks", "spans"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["run", "web_search",
                                           "--telemetry", mode])

    def test_scenario_run_rejects_retired_telemetry_modes(self, capsys):
        for mode in ("chunks", "spans"):
            with pytest.raises(SystemExit) as err:
                build_parser().parse_args(["scenario", "run", "phase-change",
                                           "--telemetry", mode])
            assert err.value.code == 2
            message = capsys.readouterr().err
            assert mode in message and "off" in message and "full" in message


class TestFailurePaths:
    """Every broken invocation must exit nonzero with an actionable message,
    never a traceback."""

    def test_scenario_run_rejects_unknown_scenario(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(capsys, "scenario", "run", "no-such-scenario",
                    "--system", "base_open")
        message = str(err.value)
        assert "no-such-scenario" in message
        assert "known scenarios" in message

    @pytest.mark.parametrize("row", [
        "1,0x10,-64,L,2",                 # negative address
        "1,0x10,0x40,L,3000000000",       # instructions overflow int32
        "4294967296,0x10,0x40,L,2",       # core overflows int32
        "1,-1,0x40,L,2",                  # negative pc
        "1,0x10,0x10000000000000000,L,2",  # address >= 2**64
        "1.5,0x10,0x40,L,2",              # not an integer
    ])
    def test_trace_ingest_rejects_out_of_range_csv_values(self, capsys,
                                                          tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text("# core,pc,address,type,instructions\n" + row + "\n")
        with pytest.raises(SystemExit) as err:
            run_cli(capsys, "trace", "ingest", str(path), "--system",
                    "base_open")
        message = str(err.value)
        assert message.startswith(f"cannot read trace {str(path)!r}")
        assert "line 2: column" in message

    @pytest.mark.parametrize("suffix", [".npz", ".npy"])
    def test_trace_ingest_refuses_a_column_that_is_not_one_dimensional(
            self, capsys, tmp_path, suffix):
        """An (N, 1) ``core`` array in ``.npz``; 0-d structured records in ``.npy``."""
        path = tmp_path / f"bad{suffix}"
        if suffix == ".npz":
            rows = 100
            np.savez(path, core=np.zeros((rows, 1), dtype=np.int32),
                     pc=np.zeros(rows, dtype=np.uint64),
                     address=np.zeros(rows, dtype=np.uint64),
                     is_store=np.zeros(rows, dtype=bool),
                     instructions=np.ones(rows, dtype=np.int32))
        else:
            np.save(path, np.zeros((), dtype=TRACE_RECORD_DTYPE))
        with pytest.raises(SystemExit) as err:
            run_cli(capsys, "trace", "ingest", str(path), "--system",
                    "base_open")
        message = str(err.value)
        assert message.startswith(f"cannot read trace {str(path)!r}")
        assert "column 'core' has shape" in message

    def test_bad_interp_is_an_argparse_error(self, capsys):
        """There is one chunk loop, so no ``--interp`` value is accepted."""
        for value in ("quantum", "scalar"):
            with pytest.raises(SystemExit) as err:
                run_cli(capsys, "run", "web_search", "--interp", value)
            assert err.value.code == 2  # argparse usage error
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_impossible_warmup_fraction_exits_naming_its_range(self, capsys,
                                                               tmp_path):
        """The run layer rejects the fraction; every command reports it."""
        from repro.sim.runner import build_trace
        from repro.trace.io import save_trace

        trace = save_trace(build_trace("web_search", 200, num_cores=2),
                           tmp_path / "t.npy")
        for argv in (("run", "web_search", "--accesses", "500",
                      "--warmup", "1.0"),
                     ("compare", "web_search", "--accesses", "500",
                      "--warmup", "-0.5"),
                     ("scenario", "run", "idle-cores", "--scale", "0.002",
                      "--warmup", "1.5"),
                     ("trace", "ingest", str(trace), "--warmup", "1.0"),
                     ("campaign", "--workloads", "web_search", "--systems",
                      "base_open", "--accesses", "500", "--warmup", "1.0")):
            with pytest.raises(SystemExit) as err:
                run_cli(capsys, *argv)
            assert "warmup_fraction must be in [0, 1)" in str(err.value), argv

    def test_bad_cache_engine_is_an_argparse_error(self, capsys):
        """There is one cache engine, so no ``--engine`` value is accepted."""
        for argv in (("scenario", "run", "idle-cores"),):
            for value in ("flat", "dict"):
                with pytest.raises(SystemExit) as err:
                    run_cli(capsys, *argv, "--engine", value)
                assert err.value.code == 2  # argparse usage error
                assert "unrecognized arguments" in capsys.readouterr().err

    def test_dram_engine_is_an_argparse_error(self, capsys, tmp_path):
        """There is one DRAM engine, so no ``--dram-engine`` is accepted."""
        trace = tmp_path / "t.csv"
        trace.write_text("0,4096,64,R,1\n")
        for argv in (("run", "web_search"), ("compare", "web_search"),
                     ("scenario", "run", "idle-cores"),
                     ("trace", "ingest", str(trace))):
            for value in ("flat", "object"):
                with pytest.raises(SystemExit) as err:
                    run_cli(capsys, *argv, "--dram-engine", value)
                assert err.value.code == 2  # argparse usage error
                assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("snapshot", "create", "web_search"),
        ("run", "web_search", "--snapshot", "x.npz"),
        ("run", "web_search", "--warmup-snapshot"),
        ("compare", "web_search", "--warmup-snapshot"),
        ("campaign", "--warmup-snapshots"),
        ("scenario", "run", "idle-cores", "--snapshot", "x.npz"),
    ], ids=["snapshot-create", "run-snapshot", "run-warmup-snapshot",
            "compare-warmup-snapshot", "campaign-warmup-snapshots",
            "scenario-run-snapshot"])
    def test_warm_state_snapshots_are_an_argparse_error(self, capsys, argv):
        """Warm-state snapshots are retired: no command or flag is left."""
        with pytest.raises(SystemExit) as err:
            run_cli(capsys, *argv)
        assert err.value.code == 2  # argparse usage error


class TestFuzzCli:
    def test_smoke_run_passes_and_writes_a_summary(self, capsys, tmp_path):
        summary = tmp_path / "summary.json"
        status, out = run_cli(capsys, "fuzz", "--budget", "2", "--seed", "0",
                              "--summary", str(summary),
                              "--artifacts", str(tmp_path / "artifacts"))
        assert status == 0
        assert "0 failure(s)" in out
        import json

        payload = json.loads(summary.read_text())
        assert payload["failures"] == []
        assert payload["generated_examined"] == 2

    def test_corpus_replay_is_included(self, capsys, tmp_path):
        status, out = run_cli(capsys, "fuzz", "--budget", "0",
                              "--corpus", "tests/fuzz_corpus",
                              "--artifacts", str(tmp_path / "artifacts"))
        assert status == 0
        assert "corpus" in out

    def test_failure_produces_artifact_and_nonzero_exit(
            self, capsys, tmp_path, monkeypatch):
        from cache_faults import skew_flat_victims

        skew_flat_victims(monkeypatch)
        artifacts = tmp_path / "artifacts"
        status, out = run_cli(capsys, "fuzz", "--budget", "4", "--seed", "0",
                              "--artifacts", str(artifacts),
                              "--shrink-attempts", "30")
        assert status == 1
        assert "lru:default=FAIL" in out
        saved = list(artifacts.glob("*.json"))
        assert saved, "a shrunk reproducer artifact must be written"

    def test_missing_corpus_directory_exits(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(capsys, "fuzz", "--budget", "0",
                    "--corpus", str(tmp_path / "no-corpus"))
        assert err.value.code not in (0, None)

    def test_a_refused_corpus_spec_is_invalid_not_a_crash(self, capsys,
                                                          tmp_path):
        import json

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        valid = json.loads(sorted(
            (Path(__file__).parent / "fuzz_corpus").glob("*.json"))[0]
            .read_text())
        (corpus / "a-unknown-key.json").write_text(json.dumps(
            dict(valid, label="unknown-key", warmup_fracton=0.3)))
        no_scenario = {key: value for key, value in valid.items()
                       if key != "scenario"}
        (corpus / "b-no-scenario.json").write_text(json.dumps(
            dict(no_scenario, label="no-scenario")))
        artifacts = tmp_path / "artifacts"
        summary = tmp_path / "summary.json"
        status, out = run_cli(capsys, "fuzz", "--budget", "0",
                              "--corpus", str(corpus),
                              "--artifacts", str(artifacts),
                              "--summary", str(summary))
        assert status == 1
        failures = json.loads(summary.read_text())["failures"]
        assert [(f["label"], f["kind"]) for f in failures] == [
            ("unknown-key", "invalid"), ("no-scenario", "invalid")]
        assert "'warmup_fracton'" in failures[0]["error"]
        assert "missing field 'scenario'" in failures[1]["error"]
        assert "INVALID unknown-key" in out and "CRASH" not in out
        assert not artifacts.exists() or not any(artifacts.iterdir())

    def test_a_wrong_typed_corpus_spec_is_invalid_not_a_crash(self, capsys,
                                                              tmp_path):
        import json

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        spec = json.loads((Path(__file__).parent / "fuzz_corpus"
                           / "bump-small-llc.json").read_text())
        spec["label"] = "null-accesses"
        spec["scenario"]["phases"][0]["accesses"] = None
        (corpus / "null-accesses.json").write_text(json.dumps(spec))
        artifacts = tmp_path / "artifacts"
        summary = tmp_path / "summary.json"
        status, out = run_cli(capsys, "fuzz", "--budget", "0",
                              "--corpus", str(corpus),
                              "--artifacts", str(artifacts),
                              "--summary", str(summary))
        assert status == 1
        (failure,) = json.loads(summary.read_text())["failures"]
        assert (failure["label"], failure["kind"]) == ("null-accesses",
                                                       "invalid")
        assert "field 'accesses' must be a number" in failure["error"]
        assert "INVALID null-accesses" in out and "CRASH" not in out
        assert not artifacts.exists() or not any(artifacts.iterdir())
