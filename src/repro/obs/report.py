"""Trace aggregation: turn a span JSONL file into a performance report.

Loads a trace written by :mod:`repro.obs.trace` (tolerating truncated or
garbled lines from killed workers), rebuilds the span tree from
``id``/``parent`` edges, and renders:

* a per-kind table — span count, cumulative seconds, **self** seconds
  (duration minus the durations of direct children, clamped at zero:
  children of a fan-out span run concurrently, so self-time of parallel
  dispatch spans reads as "time not accounted to any worker"),
* per-job latency percentiles over *leaf* job spans — spans whose kind
  ends in ``.run`` / ``.run_randomised`` with no job span below them, so
  a ``persistent.run`` wrapping a ``cached.run`` counts once.  A leaf
  batch span (``.run_many`` / ``.run_randomised_many`` with no job span
  below it, as ``direct.run_many`` runs its jobs unspanned) counts as its
  ``jobs`` attribute, each at the batch's duration divided by its job
  count.  A partly replayed ``persistent`` batch counts its ``replayed``
  attribute on top of the computed jobs spanned below it, each replayed
  job at an equal share of the batch's time outside those spans,
* the replay/compute breakdown summed from ``campaign.scenario`` span
  attributes — by construction these equal the campaign report's
  ``jobs_replayed`` / ``jobs_computed`` totals,
* a ``--compare`` mode that diffs two traces kind-by-kind, the intended
  regression-triage workflow (trace the good commit, trace the bad one,
  read the Δ column).

Only durations and edges are compared — raw timestamps are per-process
monotonic clocks and never comparable across processes.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence, Tuple

from ..jsonl import LogReader

__all__ = [
    "aggregate",
    "compare_report",
    "format_report",
    "load_trace",
]

#: Span kinds with these suffixes time one verification job end-to-end.
_JOB_SUFFIXES = (".run", ".run_randomised")

#: Span kinds with these suffixes time a batch of jobs (``jobs`` attribute).
_BATCH_SUFFIXES = (".run_many", ".run_randomised_many")

#: Kind prefixes that are orchestration, not jobs — ``campaign.run`` ends
#: in ``.run`` but times a whole sweep, not one job.
_NON_JOB_PREFIXES = ("campaign.", "pool.", "store.", "interned.", "adversary.")


def _span_record(record: Any) -> Dict[str, Any]:
    """Accept one decoded trace line as a span, or raise ``ValueError``."""
    if (
        not isinstance(record, dict)
        or "kind" not in record
        or not isinstance(record.get("t0"), (int, float))
        or not isinstance(record.get("t1"), (int, float))
    ):
        raise ValueError("not a span record")
    return record


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Read a span-per-line :mod:`repro.jsonl` trace, skipping malformed lines.

    Workers killed mid-write (death-recovery tests do this on purpose)
    can leave truncated lines; those are dropped rather than failing the
    whole report.
    """
    return list(LogReader(path, _span_record))


def _duration(span: Dict[str, Any]) -> float:
    """Span duration in seconds (clamped non-negative)."""
    return max(0.0, float(span["t1"]) - float(span["t0"]))


def _is_job_kind(kind: str) -> bool:
    """Whether spans of this kind time one verification job."""
    return kind.endswith(_JOB_SUFFIXES) and not kind.startswith(_NON_JOB_PREFIXES)


def _is_batch_kind(kind: str) -> bool:
    """Whether spans of this kind time a batch of verification jobs."""
    return kind.endswith(_BATCH_SUFFIXES) and not kind.startswith(_NON_JOB_PREFIXES)


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sequence (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[rank]


def aggregate(spans: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate loaded spans into the statistics the report renders.

    Returns a dict with ``kinds`` (per-kind count/cumulative/self seconds
    and duration percentiles), ``roots`` (spans with no in-trace parent),
    ``job_latency`` (percentiles over leaf job spans), and ``replay``
    (summed ``jobs_replayed``/``jobs_computed`` from scenario spans).
    """
    ids = {span.get("id"): span.get("parent") for span in spans}
    child_seconds: Dict[str, float] = {}
    job_child_seconds: Dict[str, float] = {}
    job_ancestors = set()
    for span in spans:
        parent = span.get("parent")
        is_job = _is_job_kind(span["kind"]) or _is_batch_kind(span["kind"])
        if parent in ids:
            child_seconds[parent] = child_seconds.get(parent, 0.0) + _duration(span)
            if is_job:
                job_child_seconds[parent] = job_child_seconds.get(parent, 0.0) + _duration(span)
        if is_job:
            # Mark every ancestor, not just the parent: pool workers'
            # job spans hang below pool.fan_out and pool.chunk spans.
            while parent in ids and parent not in job_ancestors:
                job_ancestors.add(parent)
                parent = ids[parent]

    kinds: Dict[str, Dict[str, Any]] = {}
    roots: List[Dict[str, Any]] = []
    job_durations: List[float] = []
    replayed = 0
    computed = 0
    scenario_spans = 0
    for span in spans:
        duration = _duration(span)
        self_seconds = max(0.0, duration - child_seconds.get(span.get("id"), 0.0))
        entry = kinds.setdefault(
            span["kind"],
            {"count": 0, "cumulative_s": 0.0, "self_s": 0.0, "durations": []},
        )
        entry["count"] += 1
        entry["cumulative_s"] += duration
        entry["self_s"] += self_seconds
        entry["durations"].append(duration)
        if span.get("parent") not in ids:
            roots.append(span)
        attrs = span.get("attrs") or {}
        if span.get("id") not in job_ancestors:
            if _is_job_kind(span["kind"]):
                job_durations.append(duration)
            elif _is_batch_kind(span["kind"]) and attrs.get("jobs"):
                jobs = int(attrs["jobs"])
                job_durations.extend([duration / jobs] * jobs)
        elif _is_batch_kind(span["kind"]) and attrs.get("replayed"):
            # Partly replayed: only the computed jobs have spans (below).
            replayed_jobs = int(attrs["replayed"])
            outside = max(0.0, duration - job_child_seconds.get(span.get("id"), 0.0))
            job_durations.extend([outside / replayed_jobs] * replayed_jobs)
        if span["kind"] == "campaign.scenario":
            scenario_spans += 1
            replayed += int(attrs.get("jobs_replayed", 0) or 0)
            computed += int(attrs.get("jobs_computed", 0) or 0)

    for entry in kinds.values():
        durations = sorted(entry.pop("durations"))
        entry["p50_ms"] = _percentile(durations, 0.50) * 1000.0
        entry["p95_ms"] = _percentile(durations, 0.95) * 1000.0
        entry["p99_ms"] = _percentile(durations, 0.99) * 1000.0

    job_durations.sort()
    return {
        "spans": len(spans),
        "kinds": kinds,
        "roots": roots,
        "job_latency": {
            "jobs": len(job_durations),
            "p50_ms": _percentile(job_durations, 0.50) * 1000.0,
            "p95_ms": _percentile(job_durations, 0.95) * 1000.0,
            "p99_ms": _percentile(job_durations, 0.99) * 1000.0,
        },
        "replay": {
            "scenarios": scenario_spans,
            "jobs_replayed": replayed,
            "jobs_computed": computed,
        },
    }


def _format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Right-pad a plain-text table (first column left-aligned)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    for row in [list(headers)] + [list(r) for r in rows]:
        cells = [row[0].ljust(widths[0])]
        cells += [cell.rjust(widths[i + 1]) for i, cell in enumerate(row[1:])]
        lines.append("  ".join(cells).rstrip())
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def format_report(path: str, spans: Sequence[Dict[str, Any]]) -> str:
    """Render the single-trace report (per-kind table, latency, replay)."""
    stats = aggregate(spans)
    kinds = stats["kinds"]
    total = sum(entry["self_s"] for entry in kinds.values())
    lines = [
        f"trace {path}: {stats['spans']} spans, {len(stats['roots'])} root(s), "
        f"{total:.3f}s total self time"
    ]
    rows = []
    for kind in sorted(kinds, key=lambda k: -kinds[k]["self_s"]):
        entry = kinds[kind]
        rows.append(
            (
                kind,
                str(entry["count"]),
                f"{entry['cumulative_s']:.3f}",
                f"{entry['self_s']:.3f}",
                f"{entry['p50_ms']:.2f}",
                f"{entry['p95_ms']:.2f}",
                f"{entry['p99_ms']:.2f}",
            )
        )
    lines.append("")
    lines.append(
        _format_table(("kind", "count", "cum_s", "self_s", "p50_ms", "p95_ms", "p99_ms"), rows)
    )
    latency = stats["job_latency"]
    lines.append("")
    if latency["jobs"]:
        lines.append(
            f"per-job latency ({latency['jobs']} jobs): "
            f"p50={latency['p50_ms']:.2f}ms p95={latency['p95_ms']:.2f}ms "
            f"p99={latency['p99_ms']:.2f}ms"
        )
    else:
        lines.append("per-job latency: no job spans in this trace")
    replay = stats["replay"]
    if replay["scenarios"]:
        total_jobs = replay["jobs_replayed"] + replay["jobs_computed"]
        rate = replay["jobs_replayed"] / total_jobs if total_jobs else 0.0
        lines.append(
            f"store replay ({replay['scenarios']} scenario(s)): "
            f"jobs_replayed={replay['jobs_replayed']} "
            f"jobs_computed={replay['jobs_computed']} (replay rate {rate:.1%})"
        )
    else:
        lines.append("store replay: no campaign.scenario spans in this trace")
    return "\n".join(lines)


def compare_report(
    path_a: str,
    spans_a: Sequence[Dict[str, Any]],
    path_b: str,
    spans_b: Sequence[Dict[str, Any]],
) -> str:
    """Render the two-trace diff: per-kind counts and self-time deltas.

    ``Δself_s`` is B minus A — positive means trace B spent more self
    time in that kind, the first place to look when triaging a slowdown.
    """
    stats_a = aggregate(spans_a)
    stats_b = aggregate(spans_b)
    kinds_a = stats_a["kinds"]
    kinds_b = stats_b["kinds"]
    all_kinds = sorted(set(kinds_a) | set(kinds_b))
    empty = {"count": 0, "cumulative_s": 0.0, "self_s": 0.0}
    rows: List[Tuple[str, ...]] = []
    deltas: Dict[str, float] = {}
    for kind in all_kinds:
        a = kinds_a.get(kind, empty)
        b = kinds_b.get(kind, empty)
        deltas[kind] = b["self_s"] - a["self_s"]
    for kind in sorted(all_kinds, key=lambda k: -abs(deltas[k])):
        a = kinds_a.get(kind, empty)
        b = kinds_b.get(kind, empty)
        rows.append(
            (
                kind,
                str(a["count"]),
                str(b["count"]),
                f"{a['self_s']:.3f}",
                f"{b['self_s']:.3f}",
                f"{deltas[kind]:+.3f}",
            )
        )
    lines = [
        f"comparing A={path_a} ({stats_a['spans']} spans) "
        f"vs B={path_b} ({stats_b['spans']} spans)",
        "",
        _format_table(("kind", "count_A", "count_B", "self_s_A", "self_s_B", "Δself_s"), rows),
    ]
    lat_a = stats_a["job_latency"]
    lat_b = stats_b["job_latency"]
    lines.append("")
    lines.append(
        f"per-job p50: A={lat_a['p50_ms']:.2f}ms B={lat_b['p50_ms']:.2f}ms | "
        f"p95: A={lat_a['p95_ms']:.2f}ms B={lat_b['p95_ms']:.2f}ms | "
        f"p99: A={lat_a['p99_ms']:.2f}ms B={lat_b['p99_ms']:.2f}ms"
    )
    return "\n".join(lines)
