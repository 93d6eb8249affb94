"""Terminal and JSON rendering for telemetry artifacts.

Backs the ``repro report`` CLI subcommand: given a JSONL event log this
module renders the run timeline (sampled intervals with derived rates) and
the span table; given a campaign metrics document it renders the fleet
table.  Every renderer has a ``summarize_*`` twin returning plain dicts for
``--json`` output -- the seed of the ROADMAP's HTML fleet reporting.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.reporting import format_table
from repro.telemetry.events import timeline_from_events
from repro.telemetry.timeline import Timeline

__all__ = [
    "render_campaign",
    "render_spans",
    "render_timeline",
    "summarize_events",
]

#: Timeline columns shown in the terminal table (the full set is in the
#: JSON summary); one row per sample would be unreadable past a few dozen
#: samples, so the renderer caps rows and says how many were elided.
_MAX_TIMELINE_ROWS = 40


def render_timeline(timeline: Timeline, max_rows: int = _MAX_TIMELINE_ROWS) -> str:
    """The sampled run as a text table of per-interval counts and rates."""
    if len(timeline) == 0:
        return "timeline: no samples recorded"
    derived = timeline.derived()
    headers = ("cycle", "accesses", "l1_hit%", "llc_hit%", "mpki",
               "dram", "row_hit%", "queue")
    rows: List[Sequence[str]] = []
    count = len(timeline)
    shown = min(count, max_rows)
    cycles = timeline.column("cycle")
    accesses = timeline.column("accesses")
    dram = timeline.column("dram_accesses")
    queue = timeline.column("queue_occupancy")
    for i in range(shown):
        rows.append((
            f"{cycles[i]:.0f}",
            f"{accesses[i]:.0f}",
            f"{100.0 * derived['l1_hit_rate'][i]:.1f}",
            f"{100.0 * derived['llc_hit_rate'][i]:.1f}",
            f"{derived['mpki'][i]:.2f}",
            f"{dram[i]:.0f}",
            f"{100.0 * derived['row_hit_rate'][i]:.1f}",
            f"{queue[i]:.0f}",
        ))
    table = format_table(rows, headers)
    if count > shown:
        table += f"\n... ({count - shown} more sample(s); use --json for all)"
    totals = timeline.totals()
    table += (f"\ntotals: {totals['accesses']:.0f} accesses, "
              f"{totals['dram_accesses']:.0f} DRAM accesses over "
              f"{count} sample(s)")
    return table


def render_spans(events: Sequence[dict]) -> str:
    """The span/mark events of a log as a text table."""
    spans = [e for e in events if e.get("event") == "span"]
    marks = [e for e in events if e.get("event") == "mark"]
    if not spans and not marks:
        return "spans: no span events recorded"
    lines: List[str] = []
    if spans:
        rows = []
        for span in sorted(spans, key=lambda e: e["start_s"]):
            counters = ", ".join(f"{k}={v:g}" if isinstance(v, float)
                                 else f"{k}={v}"
                                 for k, v in sorted(span["counters"].items()))
            rows.append((span["name"], f"{span['start_s']:.3f}",
                         f"{span['duration_s'] * 1e3:.2f}", counters))
        lines.append(format_table(
            rows, ("span", "start_s", "duration_ms", "counters")))
    if marks:
        rows = []
        for mark in marks:
            fields = ", ".join(f"{k}={v}" for k, v in sorted(mark["fields"].items()))
            rows.append((mark["name"], f"{mark['t_s']:.3f}", fields))
        lines.append(format_table(rows, ("mark", "t_s", "fields")))
    return "\n\n".join(lines)


def render_campaign(document: Dict[str, object]) -> str:
    """A campaign metrics document as summary lines plus the per-job table."""
    lines = [
        f"campaign: {document['jobs_total']} job(s) "
        f"({document['jobs_simulated']} simulated, "
        f"{document['jobs_from_store']} from store) in "
        f"{document['elapsed_seconds']:.2f}s on {document['workers']} worker(s)",
        f"worker utilization: {100.0 * float(document['worker_utilization']):.1f}%"
        f"  peak RSS: {int(document['peak_rss_bytes']) / (1 << 20):.1f} MiB",
    ]
    store = document.get("store")
    if isinstance(store, dict):
        lines.append(
            "store: "
            f"{store.get('hits', 0):.0f} hit(s), "
            f"{store.get('misses', 0):.0f} miss(es), "
            f"{store.get('puts', 0):.0f} put(s), "
            f"{store.get('evictions', 0):.0f} eviction(s), "
            f"{float(store.get('prune_bytes_reclaimed', 0)) / (1 << 20):.1f} MiB pruned")
    jobs = document.get("jobs") or []
    if jobs:
        rows = [(job["label"], job["source"], f"{job['wall_seconds']:.2f}",
                 f"{int(job['peak_rss_bytes']) / (1 << 20):.1f}", str(job["pid"]))
                for job in jobs]
        lines.append(format_table(
            rows, ("job", "source", "wall_s", "rss_MiB", "pid")))
    return "\n".join(lines)


def summarize_events(events: Sequence[dict]) -> Dict[str, object]:
    """A JSON-friendly summary of one event log (``repro report --json``)."""
    meta = next((e for e in events if e.get("event") == "meta"), None)
    timeline = timeline_from_events(events)
    spans = [e for e in events if e.get("event") == "span"]
    marks = [e for e in events if e.get("event") == "mark"]
    summary: Dict[str, object] = {
        "mode": meta["mode"] if meta else None,
        "samples": len(timeline),
        "spans": spans,
        "marks": marks,
    }
    if len(timeline):
        summary["totals"] = timeline.totals()
        summary["columns"] = {name: column.tolist()
                              for name, column in timeline.as_dict().items()}
        summary["derived"] = {name: column.tolist()
                              for name, column in timeline.derived().items()}
    return summary
