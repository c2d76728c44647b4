"""The observability layer: span tracing, typed metrics, and trace reports.

Load-bearing claims: tracing disabled is a true no-op (no file, no
behaviour change), spans written under ParallelEngine workers merge into
one coherent tree under the parent's dispatch span for any worker count,
verdicts are byte-identical with tracing on vs off, the typed metrics
registry counts only declared counters and diffs, and ``python -m repro.obs report`` totals
agree exactly with the campaign report's replay/compute split.
"""

import json
import os

import pytest

from repro.campaign import run_campaign
from repro.campaign.spec import CampaignReport, ScenarioResult
from repro.engine import CachedEngine, ParallelEngine, get_pool, shutdown_pool
from repro.graphs import cycle_graph
from repro.local_model import NO, YES
from repro.obs import metrics, trace
from repro.obs.cli import main as obs_main
from repro.engine.base import EngineStats
from repro.obs.metrics import (
    BATCHES,
    FORKS,
    POOL_COUNTERS,
    STORE_REPLAYED,
    Metric,
    MetricsRegistry,
    diff_snapshots,
)
from repro.obs.report import aggregate, load_trace

#: The two quick campaign scenarios the replay-exactness test sweeps.
SMOKE = ["classic-cycles-vs-paths", "sec2-promise-cycles"]


class Deg2Decider:
    """Module-level (hence picklable) Id-oblivious cycle decider."""

    name = "deg2"
    radius = 1
    uses_identifiers = False

    def evaluate(self, view):
        return YES if view.center_degree() == 2 else NO


def _jobs(count=8, size=12):
    return [(cycle_graph(size, label="x"), None) for _ in range(count)]


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with tracing disabled."""
    trace.disable()
    yield
    trace.disable()


# ---------------------------------------------------------------------- #
# Tracer mechanics
# ---------------------------------------------------------------------- #


def test_disabled_tracing_is_a_noop(tmp_path):
    assert not trace.enabled()
    sp = trace.span("anything", jobs=3)
    with sp as entered:
        entered.add(more=1)
    assert sp.id is None
    assert list(tmp_path.iterdir()) == []


def test_span_tree_written_with_parents_attrs_and_errors(tmp_path):
    path = tmp_path / "t.jsonl"
    trace.enable(path)
    with trace.span("outer", kind="meta") as outer:
        with trace.span("inner", jobs=2) as inner:
            inner.add(jobs_done=2)
        with pytest.raises(RuntimeError):
            with trace.span("boom"):
                raise RuntimeError("x")
    trace.disable()
    spans = {s["kind"]: s for s in load_trace(str(path))}
    assert set(spans) == {"outer", "inner", "boom"}
    assert spans["outer"]["parent"] is None
    assert spans["inner"]["parent"] == spans["outer"]["id"]
    assert spans["boom"]["parent"] == spans["outer"]["id"]
    assert spans["inner"]["attrs"] == {"jobs": 2, "jobs_done": 2}
    assert spans["outer"]["attrs"] == {"kind": "meta"}  # attr named 'kind' is fine
    assert spans["boom"]["attrs"]["error"] == "RuntimeError"
    for s in spans.values():
        assert s["t1"] >= s["t0"]


def test_enable_tags_and_unserialisable_attrs(tmp_path):
    path = tmp_path / "t.jsonl"
    trace.enable(path, tags={"worker": 7})
    with trace.span("x", payload=object()):
        pass
    trace.disable()
    (span,) = load_trace(str(path))
    assert span["attrs"]["worker"] == 7
    assert "object object" in span["attrs"]["payload"]  # repr fallback


def test_trace_skips_garbled_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    trace.enable(path)
    with trace.span("good"):
        pass
    trace.disable()
    with open(path, "a") as fh:
        fh.write('{"kind": "trunca')
        fh.write("\nnot json\n")
    spans = load_trace(str(path))
    assert [s["kind"] for s in spans] == ["good"]


def test_tracer_heals_a_truncated_tail(tmp_path):
    path = tmp_path / "t.jsonl"
    trace.enable(path)
    for kind in ("first", "second"):
        with trace.span(kind):
            pass
    trace.disable()
    # A process killed mid-append leaves the last line without its newline.
    with open(path, "a") as fh:
        fh.write('{"kind": "trunca')
    trace.enable(path)
    with trace.span("after"):
        pass
    trace.disable()
    # The new span starts on a fresh line: only the fragment is lost.
    assert [s["kind"] for s in load_trace(str(path))] == ["first", "second", "after"]


# ---------------------------------------------------------------------- #
# Worker trace merging
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_parallel_trace_merges_into_one_tree(tmp_path, workers):
    shutdown_pool()
    jobs = _jobs()
    baseline = CachedEngine().run_many(Deg2Decider(), jobs)
    try:
        untraced = ParallelEngine(workers=workers, adaptive=False).run_many(Deg2Decider(), jobs)
        path = tmp_path / "t.jsonl"
        trace.enable(path)
        traced = ParallelEngine(workers=workers, adaptive=False).run_many(Deg2Decider(), jobs)
        trace.disable()
    finally:
        shutdown_pool()
    # Verdicts are identical tracing on vs off (and match the serial engine).
    assert traced == untraced == baseline
    spans = load_trace(str(path))
    ids = {s["id"] for s in spans}
    roots = [s for s in spans if s["parent"] not in ids]
    # Every parent resolves in-trace: the worker sidecars merged coherently.
    assert len(roots) == 1 and roots[0]["kind"] == "parallel.run_many"
    assert roots[0]["parent"] is None
    chunks = [s for s in spans if s["kind"] == "pool.chunk"]
    if workers == 1:
        # A 1-worker engine never forks (the pool would only add IPC cost);
        # the whole batch runs in-process under the root span.
        assert chunks == []
        assert {s["kind"] for s in spans} >= {"parallel.run_many", "cached.run"}
    else:
        assert chunks, "forced fan-out must produce worker chunk spans"
        fan_out = [s for s in spans if s["kind"] == "pool.fan_out"]
        assert len(fan_out) == 1
        assert all(c["parent"] == fan_out[0]["id"] for c in chunks)
        seen_workers = {c["attrs"]["worker"] for c in chunks}
        assert seen_workers <= set(range(workers))
        assert len(seen_workers) >= 2
        for c in chunks:
            assert c["attrs"]["generation"] >= 1
    # The sidecar directory is fully absorbed and removed.
    assert not os.path.exists(str(path) + ".workers")


def test_worker_pids_differ_from_parent_in_span_ids(tmp_path):
    shutdown_pool()
    path = tmp_path / "t.jsonl"
    try:
        trace.enable(path)
        ParallelEngine(workers=2, adaptive=False).run_many(Deg2Decider(), _jobs())
        trace.disable()
    finally:
        shutdown_pool()
    spans = load_trace(str(path))
    parent_pid = f"{os.getpid():x}"
    chunk_pids = {s["id"].split(".")[0] for s in spans if s["kind"] == "pool.chunk"}
    assert chunk_pids and parent_pid not in chunk_pids


# ---------------------------------------------------------------------- #
# Typed metrics registry
# ---------------------------------------------------------------------- #


def test_registry_rejects_undeclared_metric():
    reg = MetricsRegistry()
    assert reg.inc(FORKS) == 1
    assert reg.inc(FORKS, 4) == 5
    assert reg.get(FORKS) == 5
    # Same wire name, but not the declared constant: refused, nothing counted.
    with pytest.raises(ValueError, match="not a declared metric"):
        reg.inc(Metric(FORKS.name, "processes", "an impostor"))
    with pytest.raises(ValueError, match="not a declared metric"):
        reg.inc(Metric("widgets", "widgets", "never declared"))
    assert reg.snapshot() == {FORKS.name: 5}


def test_snapshot_diff_reports_only_deltas():
    reg = MetricsRegistry()
    reg.inc(FORKS, 2)
    before = reg.snapshot()
    reg.inc(FORKS, 3)
    reg.inc(BATCHES)
    deltas = diff_snapshots(before, reg.snapshot())
    assert deltas == {FORKS.name: 3, BATCHES.name: 1}


def test_engine_stats_extra_is_a_read_only_view():
    stats = EngineStats()
    stats.inc(STORE_REPLAYED, 2)
    assert stats.extra[STORE_REPLAYED.name] == 2
    assert stats.get(STORE_REPLAYED) == 2
    with pytest.raises(TypeError):
        stats.extra["store_replayed"] = 7
    with pytest.raises(AttributeError):
        stats.extra = {}
    # The view is live: later counts show through it.
    view = stats.extra
    stats.inc(STORE_REPLAYED)
    assert view[STORE_REPLAYED.name] == 3
    assert stats.as_dict() == {
        "nodes_run": 0,
        "evaluations": 0,
        "evaluation_hits": 0,
        "ball_extractions": 0,
        "ball_hits": 0,
        "store_replayed": 3,
    }


def test_engine_stats_inc_rejects_undeclared_metric():
    stats = EngineStats()
    with pytest.raises(ValueError, match="not a declared metric"):
        stats.inc(Metric("store_replayd", "jobs", "a typo"))
    assert "store_replayd" not in stats.extra
    assert stats.as_dict()["evaluations"] == 0


def test_pool_counters_come_from_the_registry():
    shutdown_pool()
    try:
        pool = get_pool()
        engine = ParallelEngine(workers=2, adaptive=False)
        jobs = _jobs()
        engine.run_many(Deg2Decider(), jobs)
        counters = pool.counters()
        # One declaration: counters() keys are exactly the typed pool metrics.
        assert set(counters) == {metric.name for metric in POOL_COUNTERS}
        # The pinned attribute API reads the same registry.
        assert pool.forks == counters[FORKS.name] >= 2
        assert pool.batches == counters["parallel_batches"] >= 1
        # The engine surfaces per-run deltas of the same keys.
        assert engine.stats.extra["parallel_batches"] >= 1
        assert engine.stats.extra["parallel_chunks"] >= 2
    finally:
        shutdown_pool()


def test_campaign_report_counter_keys_match_metric_names():
    assert set(CampaignReport.PARALLEL_COUNTER_KEYS) == {m.name for m in POOL_COUNTERS}


# ---------------------------------------------------------------------- #
# phase_seconds
# ---------------------------------------------------------------------- #


def _result(**overrides):
    base = dict(
        name="s",
        section="x",
        kind="verify",
        engine="cached",
        seconds=1.0,
        observed_correct=True,
        expected_correct=True,
        instances=1,
        sweeps=1,
        summary="ok",
    )
    base.update(overrides)
    return ScenarioResult(**base)


def test_phase_seconds_round_trips():
    result = _result(phase_seconds={"build": 0.25, "verify": 0.5, "persist": 0.0000004})
    payload = json.loads(json.dumps(result.as_dict()))
    assert payload["phase_seconds"]["build"] == 0.25
    back = ScenarioResult.from_dict(payload)
    assert back.phase_seconds["verify"] == 0.5
    assert back.phase_seconds["persist"] == 0.0  # rounded at 6 dp


def test_phase_seconds_defaults_for_legacy_payloads():
    payload = _result().as_dict()
    del payload["phase_seconds"]
    back = ScenarioResult.from_dict(payload)
    assert back.phase_seconds == {}


def test_scenario_results_record_phases():
    report = run_campaign(["classic-cycles-vs-paths"], engine="cached", quick=True)
    (result,) = report.results
    assert set(result.phase_seconds) >= {"build", "verify"}
    assert result.phase_seconds["verify"] >= 0.0


# ---------------------------------------------------------------------- #
# Campaign traces and the report CLI
# ---------------------------------------------------------------------- #


def test_campaign_trace_replay_totals_match_report_exactly(tmp_path):
    store = tmp_path / "verdicts"
    for attempt in ("cold", "warm"):
        trace_path = tmp_path / f"{attempt}.jsonl"
        trace.enable(trace_path)
        report = run_campaign(SMOKE, engine="cached", quick=True, store=store)
        trace.disable()
        stats = aggregate(load_trace(str(trace_path)))
        assert stats["replay"]["scenarios"] == len(report.results) == len(SMOKE)
        assert stats["replay"]["jobs_replayed"] == report.jobs_replayed
        assert stats["replay"]["jobs_computed"] == report.jobs_computed
        if attempt == "cold":
            assert report.jobs_replayed == 0 and report.jobs_computed > 0
        else:
            assert report.jobs_computed == 0 and report.jobs_replayed > 0


def test_job_latency_counts_the_same_jobs_on_every_backend(tmp_path):
    # direct.run_many runs its jobs without per-job spans; the report must
    # still count them (one share of the batch span each), so a sweep's
    # job count does not depend on the backend that ran it.
    counts = {}
    for engine in ("direct", "cached", "parallel"):
        trace_path = tmp_path / f"{engine}.jsonl"
        trace.enable(trace_path)
        run_campaign(SMOKE, engine=engine, workers=2 if engine == "parallel" else None, quick=True)
        trace.disable()
        counts[engine] = aggregate(load_trace(str(trace_path)))["job_latency"]["jobs"]
    assert counts["direct"] > 0
    assert counts["direct"] == counts["cached"] == counts["parallel"]


def test_pool_job_spans_make_their_batch_a_non_leaf(tmp_path):
    # Worker job spans hang below pool.fan_out / pool.chunk, not directly
    # below the batch span: the batch must not count its jobs again.
    shutdown_pool()
    try:
        trace.enable(tmp_path / "t.jsonl")
        ParallelEngine(workers=2, adaptive=False).run_many(Deg2Decider(), _jobs())
        trace.disable()
    finally:
        shutdown_pool()
    assert aggregate(load_trace(str(tmp_path / "t.jsonl")))["job_latency"]["jobs"] == len(_jobs())


def test_partly_replayed_batch_counts_its_replayed_jobs(tmp_path):
    # The replayed jobs of a partly replayed batch have no span of their
    # own; the persistent batch span carries their count instead.
    from repro.engine import PersistentEngine, VerdictStore

    jobs = [(cycle_graph(n, label="x"), None) for n in (9, 10, 11, 12)]
    store = VerdictStore(tmp_path / "store")
    PersistentEngine(store, inner="cached").run_many(Deg2Decider(), jobs[:2])
    counts = []
    for attempt in range(2):
        trace_path = tmp_path / f"pass-{attempt}.jsonl"
        trace.enable(trace_path)
        PersistentEngine(store, inner="cached").run_many(Deg2Decider(), jobs)
        trace.disable()
        counts.append(aggregate(load_trace(str(trace_path)))["job_latency"]["jobs"])
    assert counts == [4, 4]


def test_leaf_batch_span_counts_each_job_at_its_share():
    spans = [
        {"kind": "direct.run_many", "id": "d.1", "parent": None, "t0": 0.0, "t1": 4.0, "attrs": {"jobs": 4}},
        {"kind": "interned.intern", "id": "d.2", "parent": "d.1", "t0": 0.0, "t1": 1.0, "attrs": {}},
    ]
    latency = aggregate(spans)["job_latency"]
    assert latency["jobs"] == 4
    assert latency["p50_ms"] == latency["p99_ms"] == pytest.approx(1000.0)


def test_aggregate_self_time_and_job_latency():
    spans = [
        {"kind": "campaign.run", "id": "p.1", "parent": None, "t0": 0.0, "t1": 10.0, "attrs": {}},
        {"kind": "cached.run", "id": "p.2", "parent": "p.1", "t0": 1.0, "t1": 4.0, "attrs": {}},
        {"kind": "cached.run", "id": "p.3", "parent": "p.1", "t0": 4.0, "t1": 5.0, "attrs": {}},
        {"kind": "campaign.scenario", "id": "p.4", "parent": "p.1", "t0": 5.0, "t1": 6.0, "attrs": {}},
        {
            "kind": "persistent.run_many",
            "id": "p.5",
            "parent": "p.4",
            "t0": 5.0,
            "t1": 6.0,
            "attrs": {"replayed": 7, "computed": 3},
        },
    ]
    stats = aggregate(spans)
    # self = 10 - (3 + 1 + 1); campaign.run is orchestration, not a job.
    assert stats["kinds"]["campaign.run"]["self_s"] == pytest.approx(5.0)
    assert stats["job_latency"]["jobs"] == 2
    assert stats["job_latency"]["p50_ms"] == pytest.approx(1000.0)
    assert stats["job_latency"]["p99_ms"] == pytest.approx(3000.0)
    assert stats["replay"] == {"scenarios": 1, "jobs_replayed": 7, "jobs_computed": 3}
    assert [r["id"] for r in stats["roots"]] == ["p.1"]


def test_nested_job_spans_count_once():
    spans = [
        {"kind": "persistent.run", "id": "p.1", "parent": None, "t0": 0.0, "t1": 2.0, "attrs": {}},
        {"kind": "cached.run", "id": "p.2", "parent": "p.1", "t0": 0.0, "t1": 2.0, "attrs": {}},
    ]
    assert aggregate(spans)["job_latency"]["jobs"] == 1


def test_obs_cli_exit_codes_and_compare(tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    trace.enable(path)
    with trace.span("cached.run"):
        pass
    trace.disable()
    assert obs_main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "cached.run" in out and "per-job latency" in out
    assert obs_main(["report", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spans"] == 1
    assert obs_main(["report", str(path), "--compare", str(path)]) == 0
    assert "Δself_s" in capsys.readouterr().out
    assert obs_main(["report", str(tmp_path / "missing.jsonl")]) == 2
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert obs_main(["report", str(empty)]) == 2


def test_global_metrics_feed_intern_counters():
    metrics.reset_global_metrics()
    graph = cycle_graph(10, label="obs")
    from repro.engine.interned import intern_graph

    assert intern_graph(graph) is not None
    assert intern_graph(graph) is not None  # second call hits the cache
    snap = metrics.global_metrics().snapshot()
    assert snap.get("intern_cache_misses", 0) >= 1
    assert snap.get("intern_cache_hits", 0) >= 1
