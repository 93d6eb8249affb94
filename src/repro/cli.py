"""Command-line interface.

Installed as ``repro`` (with ``repro-bump`` kept as an alias, and reachable
as ``python -m repro``), the CLI exposes the library's main entry points
without writing any Python:

=====================  =====================================================
Command                Purpose
=====================  =====================================================
``workloads``          list the available synthetic server workloads
``characterize``       static trace statistics for one workload
``run``                simulate one workload under one system configuration
``compare``            simulate one workload under several configurations
``campaign``           run a (workload x system x seed) grid across worker
                       processes, resumable via the on-disk artifact store
``scenario``           list/describe/run the multi-tenant scenario catalog
                       (``repro scenario list|describe|run``)
``experiment``         regenerate one registry entry -- a paper figure or
                       table, an ablation study or the Section VI storage
                       tables -- and print its tables
``trace``              trace files on disk: ``trace generate`` writes a
                       workload trace, ``trace ingest`` replays a stored
                       trace file (e.g. an ``LLCTraceRecorder`` export)
                       through the simulator
``report``             render a telemetry JSONL event log: the run timeline
                       and its span table
``fuzz``               scenario fuzzer + verification oracle: generate
                       random valid scenario/config specs and check each
                       against the reference LRU, the reference DRAM and
                       the counter identities, and for chunk-size /
                       telemetry bit-identity (``--budget``, ``--seed``,
                       ``--corpus``); failures are shrunk to minimal
                       replayable reproducers
=====================  =====================================================

Every command prints plain text to stdout; exit status is zero on success,
two on argument errors (argparse's convention).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Dict, List, Optional, Sequence

from repro import __version__
from repro.analysis.figures import FIGURES
from repro.analysis.reporting import format_table
from repro.exec.campaign import run_campaign, verify_parity
from repro.exec.jobs import JobGrid
from repro.exec.progress import CampaignProgress, ConsoleProgress
from repro.exec.store import ArtifactStore, default_store
from repro.scenario.catalog import get_scenario, scenario_names
from repro.scenario.runner import run_scenario
from repro.sim.config import extended_configs, named_configs
from repro.sim.runner import build_trace, run_trace, run_workload
from repro.telemetry import MODES as TELEMETRY_MODES
from repro.telemetry import (
    read_events_jsonl,
    resolve_telemetry,
    timeline_from_events,
)
from repro.telemetry.report import (
    render_spans,
    render_timeline,
    summarize_events,
)
from repro.trace.io import save_trace
from repro.trace.stats import characterize_trace
from repro.workloads.catalog import display_name, get_workload, workload_names
from repro.workloads.generator import generate_trace_buffer

def _all_config_names() -> List[str]:
    return sorted(set(named_configs()) | set(extended_configs()))


def _resolve_config(name: str):
    try:
        return named_configs([name])[name]
    except KeyError:
        known = ", ".join(_all_config_names())
        raise SystemExit(f"unknown system {name!r}; known systems: {known}")


def _print(text: str) -> None:
    sys.stdout.write(text + "\n")


# --------------------------------------------------------------------- #
# Sub-command implementations
# --------------------------------------------------------------------- #
def cmd_workloads(args: argparse.Namespace) -> int:
    rows = [[name, display_name(name)] for name in workload_names()]
    _print(format_table(rows, headers=["name", "description"]))
    return 0


def cmd_characterize(args: argparse.Namespace) -> int:
    trace = build_trace(args.workload, args.accesses, num_cores=args.cores,
                        seed=args.seed)
    stats = characterize_trace(trace)
    rows = [[key, f"{value:.4g}"] for key, value in stats.summary().items()]
    _print(format_table(rows, headers=["metric", "value"]))
    histogram = stats.region_density_histogram()
    rows = [[bucket, f"{share:.1%}"] for bucket, share in histogram.items()]
    _print(format_table(rows, headers=["region density (static)", "share of regions"]))
    return 0


def _result_rows(result) -> List[List[str]]:
    summary = result.summary()
    return [[key, f"{value:.4g}"] for key, value in summary.items()]


def _setup_telemetry(args: argparse.Namespace):
    """Resolve the run/scenario-run telemetry flags to a recorder (or None).

    ``--events`` without an explicit ``--telemetry`` implies ``full`` --
    asking for an event log is asking for telemetry.
    """
    mode = getattr(args, "telemetry", None)
    if getattr(args, "events", None) and mode is None:
        mode = "full"
    if mode is None:
        return None  # fall back to REPRO_TELEMETRY inside the runner
    return resolve_telemetry(mode)


def _finish_telemetry(recorder, args: argparse.Namespace) -> None:
    """Print the recorder summary and write the JSONL log if requested."""
    if recorder is None:
        return
    _print(f"telemetry[full]: {len(recorder.timeline)} sample(s), "
           f"{len(recorder.tracer.events)} span/mark event(s)")
    if getattr(args, "events", None):
        path = recorder.write_jsonl(args.events)
        _print(f"wrote telemetry events to {path}")


def cmd_run(args: argparse.Namespace) -> int:
    config = _resolve_config(args.system)
    recorder = _setup_telemetry(args)
    try:
        result = run_workload(args.workload, config, num_accesses=args.accesses,
                              num_cores=args.cores, seed=args.seed,
                              warmup_fraction=args.warmup,
                              telemetry=recorder)
    except ValueError as exc:
        raise SystemExit(str(exc))
    _print(f"{display_name(args.workload)} under {config.name}")
    _print(format_table(_result_rows(result), headers=["metric", "value"]))
    _finish_telemetry(recorder, args)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    systems = [name.strip() for name in args.systems.split(",") if name.strip()]
    if not systems:
        raise SystemExit("no systems requested")
    configs = [_resolve_config(name) for name in systems]
    metrics = ["row_buffer_hit_ratio", "read_coverage", "write_coverage",
               "energy_per_access_nj", "throughput_ipc"]
    rows = []
    for config in configs:
        try:
            result = run_workload(args.workload, config,
                                  num_accesses=args.accesses,
                                  num_cores=args.cores, seed=args.seed,
                                  warmup_fraction=args.warmup)
        except ValueError as exc:
            raise SystemExit(str(exc))
        summary = result.summary()
        rows.append([config.name] + [f"{summary[metric]:.4g}" for metric in metrics])
    _print(f"{display_name(args.workload)} ({args.accesses} accesses)")
    _print(format_table(rows, headers=["system"] + metrics))
    return 0


def _parse_workload_list(raw: str) -> List[str]:
    if not raw.strip() or raw.strip().lower() == "all":
        return workload_names()
    requested = [name.strip() for name in raw.split(",") if name.strip()]
    known = set(workload_names())
    unknown = [name for name in requested if name not in known]
    if unknown:
        raise SystemExit(f"unknown workloads: {unknown}; known: {sorted(known)}")
    return requested


def cmd_campaign(args: argparse.Namespace) -> int:
    workloads = _parse_workload_list(args.workloads)
    systems = [name.strip() for name in args.systems.split(",") if name.strip()]
    if not systems:
        raise SystemExit("no systems requested")
    configs = [_resolve_config(name) for name in systems]
    try:
        seeds = [int(seed) for seed in args.seeds.split(",") if seed.strip()]
    except ValueError:
        raise SystemExit(f"seeds must be integers: {args.seeds!r}")
    if not seeds:
        raise SystemExit("no seeds requested")
    if args.workers < 1:
        raise SystemExit("--workers must be at least 1")

    grid = JobGrid(workloads=workloads, configs=configs, seeds=seeds,
                   num_accesses=args.accesses, num_cores=args.cores,
                   warmup_fraction=args.warmup)
    try:
        jobs = grid.expand()
    except ValueError as exc:  # JobSpec rejects impossible run arguments
        raise SystemExit(str(exc))
    try:
        store = ArtifactStore(args.store) if args.store else default_store()
    except OSError as exc:
        raise SystemExit(f"cannot open artifact store at {args.store!r}: {exc}")

    if args.verify_parity:
        # Parity is a code-path property, not a fidelity one: run the sample
        # at a reduced trace length so the guard stays cheap even for
        # paper-sized campaigns (the sample simulates twice and is not
        # persisted, so nothing here is reusable by the campaign proper).
        sample_accesses = min(args.accesses, 10_000)
        sample = [dataclasses.replace(job, num_accesses=sample_accesses)
                  for job in jobs[:2]]
        verify_parity(sample, workers=max(args.workers, 2))
        _print(f"parity verified on {len(sample)} job(s) at {sample_accesses} "
               "accesses: parallel results are identical to serial")

    progress = CampaignProgress() if args.quiet else ConsoleProgress()
    outcome = run_campaign(jobs, store=store, workers=args.workers,
                           progress=progress)

    metrics = ["row_buffer_hit_ratio", "read_coverage", "write_coverage",
               "energy_per_access_nj", "throughput_ipc"]
    rows = []
    for job_outcome in outcome.outcomes:
        job = job_outcome.job
        summary = job_outcome.result.summary()
        rows.append([job.workload.name, job.config.name, str(job.seed),
                     job_outcome.source]
                    + [f"{summary[metric]:.4g}" for metric in metrics])
    _print(format_table(rows, headers=["workload", "system", "seed", "source"]
                        + metrics))
    _print(
        f"{len(outcome)} jobs: {outcome.simulated_count} simulated, "
        f"{outcome.cached_count} from store, {outcome.elapsed_seconds:.1f}s"
        + (f" (store: {store.root})" if store is not None else "")
    )
    return 0


def cmd_scenario_list(args: argparse.Namespace) -> int:
    rows = []
    for name in scenario_names():
        scenario = get_scenario(name)
        rows.append([name, str(len(scenario.phases)),
                     str(scenario.total_accesses),
                     ",".join(scenario.tenant_names)])
    _print(format_table(rows, headers=["name", "phases", "accesses", "tenants"]))
    return 0


def _resolve_scenario(name: str, scale: float):
    try:
        return get_scenario(name, scale=scale)
    except KeyError:
        known = ", ".join(scenario_names())
        raise SystemExit(f"unknown scenario {name!r}; known scenarios: {known}")
    except ValueError as exc:
        raise SystemExit(str(exc))


def cmd_scenario_describe(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args.name, args.scale)
    _print(f"{scenario.name}: {scenario.description}")
    _print(f"{scenario.num_cores} cores, {scenario.total_accesses} accesses, "
           f"{len(scenario.phases)} phase(s)")
    _print(format_table(scenario.describe(),
                        headers=["phase", "accesses", "intensity", "tenants",
                                 "bursts", "idle cores"]))
    return 0


def cmd_scenario_run(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args.name, args.scale)
    config = _resolve_config(args.system)
    if args.chunk_size < 1:
        raise SystemExit("--chunk-size must be positive")
    recorder = _setup_telemetry(args)
    try:
        result = run_scenario(scenario, config, seed=args.seed,
                              warmup_fraction=args.warmup,
                              chunk_size=args.chunk_size,
                              telemetry=recorder)
    except ValueError as exc:
        raise SystemExit(str(exc))
    _print(f"{scenario.name} ({scenario.total_accesses} accesses) "
           f"under {config.name}")
    _print(format_table(_result_rows(result), headers=["metric", "value"]))
    _finish_telemetry(recorder, args)
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    figure = FIGURES.get(args.name)
    if figure is None:
        known = ", ".join(sorted(FIGURES))
        raise SystemExit(f"unknown experiment {args.name!r}; known experiments: {known}")
    workloads = _parse_workload_list(args.workloads)
    if args.accesses is None:  # the harness length: reuse its store cells
        result = figure.run(workloads)
    else:
        result = figure.experiment(figure.select(workloads),
                                   num_accesses=args.accesses)
    _print(figure.render(result))
    return 0


def cmd_trace_generate(args: argparse.Namespace) -> int:
    if args.chunk_size < 1:
        raise SystemExit("--chunk-size must be positive")
    trace = generate_trace_buffer(get_workload(args.workload), args.accesses,
                                  num_cores=args.cores, seed=args.seed,
                                  chunk_size=args.chunk_size)
    path = save_trace(trace, args.output)
    rows = [
        ["accesses", f"{len(trace)}"],
        ["store_fraction", f"{trace.store_fraction:.4g}"],
        ["instructions", f"{trace.total_instructions}"],
        ["columnar_bytes", f"{trace.nbytes}"],
        ["file_bytes", f"{path.stat().st_size}"],
        ["format", path.suffix.lstrip(".")],
    ]
    _print(f"wrote {len(trace)} accesses to {path}")
    _print(format_table(rows, headers=["metric", "value"]))
    return 0


def cmd_trace_ingest(args: argparse.Namespace) -> int:
    from repro.trace.source import IngestSource

    config = _resolve_config(args.system)
    if args.chunk_size < 1:
        raise SystemExit("--chunk-size must be positive")
    try:
        source = IngestSource(args.path, chunk_size=args.chunk_size,
                              mmap=args.mmap)
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"cannot read trace {args.path!r}: {exc}")
    try:
        result = run_trace(source, config,
                           workload_name=f"ingest:{args.path}",
                           warmup_fraction=args.warmup,
                           num_accesses=source.total_accesses)
    except (ValueError, OSError) as exc:
        raise SystemExit(str(exc))
    _print(f"replayed {source.total_accesses} accesses from {args.path} "
           f"under {config.name}")
    _print(format_table(_result_rows(result), headers=["metric", "value"]))
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    import json
    import time
    from pathlib import Path

    from repro.fuzz import (
        corpus_paths,
        generate_spec,
        load_spec,
        materialize,
        run_oracle,
        save_spec,
        shrink,
        spec_fingerprint,
    )

    if args.budget < 0:
        raise SystemExit("--budget must be non-negative")
    if args.shrink_attempts < 0:
        raise SystemExit("--shrink-attempts must be non-negative")
    deadline = None
    if args.time_budget:
        if args.time_budget <= 0:
            raise SystemExit("--time-budget must be positive (seconds)")
        deadline = time.monotonic() + args.time_budget

    artifacts = Path(args.artifacts)
    started = time.monotonic()
    examined = corpus_examined = 0
    truncated = False
    failures: List[Dict[str, object]] = []

    def _examine(spec, origin: str) -> None:
        """Oracle one spec; on failure shrink it and write the reproducer.

        A spec that does not materialize is recorded as ``invalid``: it is
        refused input, so nothing is simulated, shrunk or written.
        """
        label = spec.get("label", "fuzz")
        try:
            try:
                materialize(spec)
            except ValueError as exc:
                failures.append({"label": label, "origin": origin,
                                 "kind": "invalid", "error": str(exc)})
                _print(f"INVALID {label} [{origin}]: {exc}")
                return
            report = run_oracle(spec)
        except Exception as exc:  # a crash on a valid spec is a finding
            artifact = save_spec(
                spec, artifacts / f"{label}-crash.json")
            failures.append({
                "label": label, "origin": origin, "kind": "crash",
                "error": f"{type(exc).__name__}: {exc}",
                "artifact": str(artifact),
            })
            _print(f"CRASH {label} [{origin}]: {type(exc).__name__}: {exc} "
                   f"-> {artifact}")
            return
        if report.ok:
            if args.verbose:
                _print(report.describe())
            return
        record: Dict[str, object] = {
            "label": label, "origin": origin, "kind": "parity",
            "failed_checks": report.failed_checks,
            "cells": [c.describe() for c in report.failures],
        }
        if args.shrink_attempts:
            result = shrink(spec, checks=report.failed_checks,
                            max_attempts=args.shrink_attempts)
            minimal = result.spec
            record["shrink_attempts"] = result.attempts
            record["shrink_steps"] = result.steps
        else:
            minimal = spec
        artifact = save_spec(
            minimal,
            artifacts / f"{label}-{spec_fingerprint(minimal)[:12]}.json")
        record["artifact"] = str(artifact)
        failures.append(record)
        _print(f"{report.describe()} -> reproducer {artifact}")

    if args.corpus:
        paths = corpus_paths(args.corpus)
        if not paths and not Path(args.corpus).is_dir():
            raise SystemExit(f"corpus directory not found: {args.corpus!r}")
        for path in paths:
            try:
                spec = load_spec(path)
            except ValueError as exc:
                raise SystemExit(str(exc))
            _examine(spec, origin=f"corpus:{path.name}")
            corpus_examined += 1

    for index in range(args.budget):
        if deadline is not None and time.monotonic() >= deadline:
            truncated = True
            _print(f"time budget exhausted after {examined} of "
                   f"{args.budget} generated sample(s)")
            break
        _examine(generate_spec(args.seed, index), origin="generated")
        examined += 1

    elapsed = time.monotonic() - started
    summary = {
        "seed": args.seed,
        "budget": args.budget,
        "generated_examined": examined,
        "corpus_examined": corpus_examined,
        "truncated": truncated,
        "elapsed_seconds": round(elapsed, 3),
        "failures": failures,
    }
    if args.summary:
        Path(args.summary).write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        _print(f"wrote fuzz summary to {args.summary}")
    _print(f"fuzz: {corpus_examined} corpus + {examined} generated sample(s) "
           f"in {elapsed:.1f}s, {len(failures)} failure(s)")
    return 1 if failures else 0


def cmd_report(args: argparse.Namespace) -> int:
    import json

    if not args.path:
        raise SystemExit("nothing to report: pass a telemetry .jsonl event "
                         "log")
    try:
        events = read_events_jsonl(args.path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read event log {args.path!r}: {exc}")
    if args.json:
        _print(json.dumps(summarize_events(events), indent=2, sort_keys=True))
    else:
        _print(render_timeline(timeline_from_events(events)))
        _print("")
        _print(render_spans(events))
    return 0


# --------------------------------------------------------------------- #
# Argument parsing
# --------------------------------------------------------------------- #
def _add_trace_arguments(parser: argparse.ArgumentParser, accesses: int = 60_000) -> None:
    parser.add_argument("workload", choices=workload_names(),
                        help="synthetic server workload")
    parser.add_argument("--accesses", type=int, default=accesses,
                        help="trace length (memory accesses)")
    parser.add_argument("--cores", type=int, default=16, help="simulated cores")
    parser.add_argument("--seed", type=int, default=42, help="generator seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BuMP (MICRO 2014) reproduction: simulate, characterise, "
                    "and regenerate the paper's experiments.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    workloads = subparsers.add_parser("workloads", help="list available workloads")
    workloads.set_defaults(handler=cmd_workloads)

    characterize = subparsers.add_parser("characterize",
                                         help="static statistics of a workload trace")
    _add_trace_arguments(characterize)
    characterize.set_defaults(handler=cmd_characterize)

    run = subparsers.add_parser("run", help="simulate one workload on one system")
    _add_trace_arguments(run)
    run.add_argument("--system", default="bump", help="system configuration name")
    run.add_argument("--warmup", type=float, default=0.5,
                     help="fraction of the trace used for warmup")
    run.add_argument("--telemetry", choices=list(TELEMETRY_MODES), default=None,
                     help="observability mode (default: REPRO_TELEMETRY or "
                          "off; results are bit-identical)")
    run.add_argument("--events", default="",
                     help="write the telemetry JSONL event log here "
                          "(implies --telemetry full)")
    run.set_defaults(handler=cmd_run)

    compare = subparsers.add_parser("compare",
                                    help="simulate one workload on several systems")
    _add_trace_arguments(compare)
    compare.add_argument("--systems", default="base_open,bump",
                         help="comma-separated system names")
    compare.add_argument("--warmup", type=float, default=0.5,
                         help="fraction of the trace used for warmup")
    compare.set_defaults(handler=cmd_compare)

    campaign = subparsers.add_parser(
        "campaign",
        help="run a (workload x system x seed) grid, in parallel and resumably")
    campaign.add_argument("--workloads", default="all",
                          help="comma-separated workloads, or 'all' (default)")
    campaign.add_argument("--systems", default="base_open,bump",
                          help="comma-separated system names")
    campaign.add_argument("--seeds", default="42",
                          help="comma-separated generator seeds")
    campaign.add_argument("--accesses", type=int, default=60_000,
                          help="trace length per job")
    campaign.add_argument("--cores", type=int, default=16, help="simulated cores")
    campaign.add_argument("--warmup", type=float, default=0.5,
                          help="fraction of each trace used for warmup")
    campaign.add_argument("--workers", type=int, default=1,
                          help="worker processes (1 = serial)")
    campaign.add_argument("--store", default="",
                          help="artifact store directory (default: "
                               "$REPRO_ARTIFACT_DIR, or no persistence)")
    campaign.add_argument("--verify-parity", action="store_true",
                          help="first prove serial/parallel bit-identity on a "
                               "job sample")
    campaign.add_argument("--quiet", action="store_true",
                          help="suppress per-job progress lines")
    campaign.set_defaults(handler=cmd_campaign)

    scenario = subparsers.add_parser(
        "scenario",
        help="multi-tenant scenario catalog (list, describe, run)")
    scenario_actions = scenario.add_subparsers(dest="action", required=True)

    scenario_list = scenario_actions.add_parser(
        "list", help="list the shipped scenarios")
    scenario_list.set_defaults(handler=cmd_scenario_list)

    scenario_describe = scenario_actions.add_parser(
        "describe", help="print a scenario's phase/tenant/burst table")
    scenario_describe.add_argument("name", help="scenario name")
    scenario_describe.add_argument("--scale", type=float, default=1.0,
                                   help="phase-length scale factor")
    scenario_describe.set_defaults(handler=cmd_scenario_describe)

    scenario_run = scenario_actions.add_parser(
        "run", help="simulate one scenario, streaming at bounded memory")
    scenario_run.add_argument("name", help="scenario name")
    scenario_run.add_argument("--system", default="bump",
                              help="system configuration name")
    scenario_run.add_argument("--seed", type=int, default=42,
                              help="generator seed")
    scenario_run.add_argument("--scale", type=float, default=1.0,
                              help="phase-length scale factor")
    scenario_run.add_argument("--warmup", type=float, default=0.5,
                              help="fraction of the trace used for warmup")
    scenario_run.add_argument("--chunk-size", type=int, default=65_536,
                              help="streaming chunk granularity (accesses)")
    scenario_run.add_argument("--telemetry", choices=list(TELEMETRY_MODES),
                              default=None,
                              help="observability mode (default: "
                                   "REPRO_TELEMETRY or off; results are "
                                   "bit-identical)")
    scenario_run.add_argument("--events", default="",
                              help="write the telemetry JSONL event log here "
                                   "(implies --telemetry full)")
    scenario_run.set_defaults(handler=cmd_scenario_run)

    experiment = subparsers.add_parser(
        "experiment",
        help="regenerate one paper figure/table, ablation or Section VI table")
    experiment.add_argument("name", help="registry entry, e.g. figure9, table4, "
                                         "scheduling or section6")
    experiment.add_argument("--workloads", default="",
                            help="comma-separated workload subset (default: all)")
    experiment.add_argument("--accesses", type=int, default=None,
                            help="trace length per run (default: harness default)")
    experiment.set_defaults(handler=cmd_experiment)

    trace = subparsers.add_parser(
        "trace", help="trace files: generate to disk, ingest and replay")
    trace_actions = trace.add_subparsers(dest="action", required=True)

    trace_generate = trace_actions.add_parser(
        "generate", help="generate a workload trace and save it")
    _add_trace_arguments(trace_generate, accesses=100_000)
    trace_generate.add_argument("--output", "-o", required=True,
                                help="output file (.csv, .txt, .npz or .npy)")
    trace_generate.add_argument("--chunk-size", type=int, default=65_536,
                                help="generator chunk granularity (accesses)")
    trace_generate.set_defaults(handler=cmd_trace_generate)

    trace_ingest = trace_actions.add_parser(
        "ingest",
        help="replay a stored trace file (trace generate output or an "
             "LLCTraceRecorder export) through the simulator")
    trace_ingest.add_argument("path",
                              help="trace file (.csv, .txt, .npz or .npy)")
    trace_ingest.add_argument("--system", default="bump",
                              help="system configuration name")
    trace_ingest.add_argument("--warmup", type=float, default=0.0,
                              help="fraction of the trace used for warmup "
                                   "(default: 0, captured streams are "
                                   "usually post-warm)")
    trace_ingest.add_argument("--chunk-size", type=int, default=65_536,
                              help="replay chunk granularity (accesses)")
    trace_ingest.add_argument("--mmap", action="store_true",
                              help="memory-map .npy traces instead of "
                                   "loading them")
    trace_ingest.set_defaults(handler=cmd_trace_ingest)

    fuzz = subparsers.add_parser(
        "fuzz",
        help="fuzzing: random scenario/config specs checked against the "
             "reference LRU, the reference DRAM and counter identities, "
             "and proven bit-identical across chunk sizes and telemetry")
    fuzz.add_argument("--budget", type=int, default=100,
                      help="number of generated samples to examine "
                           "(default: 100)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="spec-generator stream seed (default: 0)")
    fuzz.add_argument("--corpus", default="",
                      help="replay every .json spec in this directory before "
                           "generating new samples")
    fuzz.add_argument("--artifacts", default="fuzz-artifacts",
                      help="directory for shrunk reproducer artifacts "
                           "(default: fuzz-artifacts)")
    fuzz.add_argument("--time-budget", type=float, default=0.0,
                      metavar="SECONDS",
                      help="stop generating new samples after this many "
                           "seconds (corpus replay always completes)")
    fuzz.add_argument("--summary", default="",
                      help="write a machine-readable JSON run summary here")
    fuzz.add_argument("--shrink-attempts", type=int, default=200,
                      help="max candidate evaluations while shrinking a "
                           "failure (0 writes the unshrunk spec)")
    fuzz.add_argument("--verbose", action="store_true",
                      help="print a line per passing sample, not only "
                           "failures")
    fuzz.set_defaults(handler=cmd_fuzz)

    report = subparsers.add_parser(
        "report",
        help="render a telemetry event log (timeline and spans)")
    report.add_argument("path", nargs="?", default="",
                        help="telemetry .jsonl event log")
    report.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of tables")
    report.set_defaults(handler=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
