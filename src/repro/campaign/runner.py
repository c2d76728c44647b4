"""Campaign runner: execute scenario specs and collect JSON reports.

The runner materialises each :class:`~repro.campaign.spec.ScenarioSpec`,
executes it through the selected execution engine (a fresh engine per
scenario so statistics are attributable), and assembles a
:class:`~repro.campaign.spec.CampaignReport` with per-scenario verdicts,
wall-clock timings and :class:`~repro.engine.base.EngineStats` counters.
Reports are written atomically as JSON under ``benchmarks/`` by default,
next to the engine benchmark records, so the performance and correctness
trajectory of the reproduction is tracked across PRs by the same CI
artifacts.

Two mechanisms make repeated campaigns cheap — and partial ones
recoverable:

* ``store=`` wraps every scenario's engine in one shared
  :class:`~repro.engine.persistent.VerdictStore`
  (:class:`~repro.engine.persistent.PersistentEngine`), so jobs settled in
  any earlier run — or earlier scenario of the same run — are replayed
  from disk instead of recomputed; reports record the replayed/computed
  split per scenario.
* recorded results stand in for runs: before running a cell, the one
  sweep loop looks up the cell's recorded result — in the report being
  resumed (:func:`resume_campaign`), then in the append-only result log
  (``log_path=``) — and carries it over when it still settles the spec
  (:meth:`~repro.campaign.spec.ScenarioResult.settles`: the recorded
  digest matches and a verdict is present).  The log gains one JSON line
  per completed cell *as the sweep progresses*, so a million-cell sweep
  killed halfway resumes from the log instead of starting over, and the
  final report is assembled only at the end (atomically, via
  :func:`write_report`).

``run_campaign`` and ``resume_campaign`` consume any *iterable* of specs
(not just materialised lists): fed from
:meth:`~repro.workloads.matrix.WorkloadMatrix.iter_cells` or a
:class:`~repro.workloads.sampling.SamplePlan`, a sweep streams cells one
at a time and never holds the whole cross in memory.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple, Union

from ..adversary.search import find_counterexample
from ..decision.decider import verify_decider
from ..decision.randomized import evaluate_pq_decider
from ..engine.base import EngineLike, ExecutionEngine, resolve_engine
from ..engine.parallel import ParallelEngine
from ..engine.persistent import VerdictStore
from ..jsonl import LogReader, append, open_append
from ..obs import trace
from .scenarios import bundled_scenarios, get_scenario
from .spec import CampaignReport, ScenarioResult, ScenarioSpec

__all__ = [
    "run_scenario",
    "run_campaign",
    "resume_campaign",
    "replay_summary",
    "load_result_log",
    "write_report",
    "DEFAULT_REPORT_PATH",
]

#: Default location of campaign reports, next to the benchmark records.
DEFAULT_REPORT_PATH = Path(__file__).resolve().parents[3] / "benchmarks" / "BENCH_campaign.json"

#: Anything accepted by ``store=`` arguments: an open store, a directory
#: path to open one at, or ``None`` for no cross-run persistence.
StoreLike = Union[None, str, Path, VerdictStore]


def _engine_for(spec: ScenarioSpec, engine: EngineLike, workers: Optional[int]) -> ExecutionEngine:
    """Resolve the engine one scenario runs on.

    ``engine=None`` uses the spec's declared backend; a string overrides it
    for the whole campaign; an instance is shared as-is.  ``workers`` only
    makes sense for the parallel backend: given alone it *implies*
    ``engine="parallel"``, while combining it with any other explicit
    backend is an error rather than a silent no-op.
    """
    if workers is not None and engine is None:
        return ParallelEngine(workers=workers)
    if engine is None:
        engine = spec.engine
    if isinstance(engine, str) and engine == "parallel" and workers is not None:
        return ParallelEngine(workers=workers)
    if workers is not None:
        raise ValueError(
            f"workers={workers} only applies to the 'parallel' backend, "
            f"not {engine if isinstance(engine, str) else type(engine).__name__!r}"
        )
    return resolve_engine(engine)


def _resolve_store(store: StoreLike) -> Tuple[Optional[VerdictStore], bool]:
    """Open a store if needed; the flag says whether this call owns (closes) it."""
    if store is None:
        return None, False
    if isinstance(store, VerdictStore):
        return store, False
    return VerdictStore(store), True


def _resolve_spec(item: Union[ScenarioSpec, str], seed: Optional[int]) -> ScenarioSpec:
    """The spec ``item`` names (or is), with ``seed`` overriding its declared seed."""
    spec = get_scenario(item) if isinstance(item, str) else item
    if seed is not None and seed != spec.seed:
        spec = dataclasses.replace(spec, seed=seed)
    return spec


def run_scenario(
    spec_or_name: Union[ScenarioSpec, str],
    engine: EngineLike = None,
    workers: Optional[int] = None,
    quick: bool = False,
    store: StoreLike = None,
    seed: Optional[int] = None,
) -> ScenarioResult:
    """Execute one scenario and return its result record.

    With ``store`` given, the scenario's engine is wrapped in the verdict
    store so already-settled jobs replay from disk; the result records how
    many jobs were replayed vs computed.  ``seed`` overrides the spec's
    declared sampling/search seed (the CLI's ``--seed``); it participates
    in the spec digest, so results recorded under one seed never satisfy a
    resume under another.
    """
    spec = _resolve_spec(spec_or_name, seed)
    eng = _engine_for(spec, engine, workers)
    verdict_store, owns_store = _resolve_store(store)
    if verdict_store is not None:
        eng = eng.with_store(verdict_store)
    try:
        return _execute(spec, eng, quick)
    finally:
        if owns_store and verdict_store is not None:
            verdict_store.close()


def _execute(spec: ScenarioSpec, eng: ExecutionEngine, quick: bool) -> ScenarioResult:
    with trace.span("campaign.scenario", name=spec.name, kind=spec.kind) as scenario_span:
        result = _execute_phases(spec, eng, quick)
        scenario_span.add(
            engine=result.engine,
            jobs_replayed=result.jobs_replayed,
            jobs_computed=result.jobs_computed,
            ok=result.ok,
        )
    return result


def _execute_phases(spec: ScenarioSpec, eng: ExecutionEngine, quick: bool) -> ScenarioResult:
    eng.reset_stats()
    phase: Dict[str, float] = {}
    build_start = time.perf_counter()
    with trace.span("campaign.build", name=spec.name):
        sizes = spec.ladder(quick)
        workload = spec.build(spec, sizes)
    phase["build"] = time.perf_counter() - build_start
    verify_span = trace.span("campaign.verify", name=spec.name, kind=spec.kind)
    verify_span.__enter__()
    start = time.perf_counter()
    try:
        if spec.kind == "verify":
            report = verify_decider(
                workload.decider,
                workload.prop,
                family=workload.family,
                id_space=workload.id_space,
                samples=spec.samples,
                seed=spec.seed,
                assignments_factory=workload.assignments_factory,
                engine=eng,
            )
            seconds = time.perf_counter() - start
            observed = report.correct
            instances = report.instances_checked
            sweeps = report.assignments_checked
            computed, replayed = report.jobs_computed, report.jobs_replayed
            summary = report.summary()
            details = report.as_dict()
        elif spec.kind == "estimate":
            trials = spec.trial_count(quick)
            report = evaluate_pq_decider(
                workload.decider,
                workload.family,
                p=workload.target_p,
                q=workload.target_q,
                trials=trials,
                seed=spec.seed,
                ids_factory=workload.ids_factory,
                engine=eng,
            )
            seconds = time.perf_counter() - start
            observed = report.satisfied
            instances = len(workload.family)
            sweeps = trials * instances
            computed, replayed = report.trials_computed, report.trials_replayed
            summary = report.summary()
            details = {
                "target_p": workload.target_p,
                "target_q": workload.target_q,
                "trials_per_instance": trials,
                "worst_yes_acceptance": report.worst_yes_acceptance,
                "worst_no_rejection": report.worst_no_rejection,
                "trials_computed": computed,
                "trials_replayed": replayed,
            }
        elif spec.kind == "search":
            outcome = find_counterexample(
                workload.decider,
                prop=workload.prop,
                family=workload.family,
                strategy=spec.strategy,
                id_space=workload.id_space,
                pool_factory=workload.pool_factory,
                max_evaluations=spec.search_budget(quick),
                batch_size=spec.batch_size,
                seed=spec.seed,
                engine=eng,
            )
            seconds = time.perf_counter() - start
            # A search scenario "observes correct" when no defeat was found;
            # the bundled traps expect the hunt to succeed (expect_correct=False).
            observed = not outcome.found
            instances = outcome.instances_tried
            sweeps = outcome.executions
            computed, replayed = outcome.jobs_computed, outcome.jobs_replayed
            summary = outcome.summary()
            details = outcome.as_dict()
        else:
            raise ValueError(f"unknown scenario kind {spec.kind!r} in {spec.name!r}")
    finally:
        phase["verify"] = time.perf_counter() - start
        verify_span.__exit__(*sys.exc_info())
    return ScenarioResult(
        name=spec.name,
        section=spec.section,
        kind=spec.kind,
        engine=getattr(eng, "name", str(eng)),
        seconds=seconds,
        observed_correct=observed,
        expected_correct=spec.expect_correct,
        instances=instances,
        sweeps=sweeps,
        summary=summary,
        engine_stats=eng.stats.as_dict(),
        details=details,
        spec_digest=spec.digest(quick),
        jobs_computed=computed,
        jobs_replayed=replayed,
        phase_seconds=phase,
    )


def load_result_log(path: Union[str, Path]) -> Dict[str, ScenarioResult]:
    """Load an append-only JSONL result log into a name-indexed dict.

    Each line is one :meth:`ScenarioResult.as_dict` payload, in the shared
    :mod:`repro.jsonl` format.  The log is written incrementally by a
    running sweep, so a crash can leave a truncated (or otherwise
    malformed) trailing line — such lines are skipped rather than fatal,
    which is exactly what makes the log usable for crash recovery.  When
    the same scenario appears more than once (e.g. re-run after its spec
    changed), the latest line wins.
    """
    if not Path(path).exists():
        return {}
    return {result.name: result for result in LogReader(path, ScenarioResult.from_dict)}


def _append_result(handle, result: ScenarioResult) -> None:
    """Append one result line to the open log and push it to disk.

    The fsynced append is timed into ``result.phase_seconds["persist"]``
    (the logged line itself cannot contain it — the result is serialised
    before the write finishes — but the final report does).
    """
    started = time.perf_counter()
    with trace.span("campaign.log_append", name=result.name):
        append(handle, result.as_dict(), fsync=True)
    result.phase_seconds["persist"] = time.perf_counter() - started


def run_campaign(
    scenarios: Optional[Iterable[Union[ScenarioSpec, str]]] = None,
    engine: EngineLike = None,
    workers: Optional[int] = None,
    quick: bool = False,
    name: str = "podc13-reproduction",
    store: StoreLike = None,
    seed: Optional[int] = None,
    log_path: Union[str, Path, None] = None,
) -> CampaignReport:
    """Execute an iterable of scenarios (default: the whole bundle) into one report.

    ``scenarios`` may be any iterable — a list of names, a generator of
    specs from :meth:`~repro.workloads.matrix.WorkloadMatrix.iter_scenarios`,
    or a sample plan's stream — and is consumed lazily, one spec at a
    time.  ``store`` opens (or reuses) one verdict store shared by every
    scenario of the campaign, so both cross-run *and* cross-scenario
    repeats replay.  ``seed`` overrides every scenario's declared
    sampling/search seed.

    ``log_path`` makes the sweep *incremental*: every completed result is
    appended to the JSONL log immediately (flushed and fsynced, so a crash
    loses at most the in-flight cell), and before running a cell any
    logged result that still settles its spec
    (:meth:`~repro.campaign.spec.ScenarioResult.settles`) is carried over
    as resumed.  Re-invoking the same sweep after a crash therefore re-runs
    only the cells the previous attempt never finished.
    """
    engine_label = engine if isinstance(engine, str) else getattr(engine, "name", "per-scenario")
    report = CampaignReport(name=name, engine=str(engine_label), quick=quick)
    _sweep(report, scenarios, {}, engine, workers, store, seed, log_path)
    return report


def _sweep(
    report: CampaignReport,
    scenarios: Optional[Iterable[Union[ScenarioSpec, str]]],
    recorded: Dict[str, ScenarioResult],
    engine: EngineLike,
    workers: Optional[int],
    store: StoreLike,
    seed: Optional[int],
    log_path: Union[str, Path, None],
) -> None:
    """The one sweep loop: append one result per spec to ``report``.

    ``scenarios`` is consumed lazily, so a million-cell matrix iterator
    (or a sample plan's spec stream) passes through one spec at a time.
    A spec's recorded result — from ``recorded`` first, then from the log
    at ``log_path`` — stands in for running it when it settles the spec;
    it is appended with ``resumed=True``.  Every other spec runs, and its
    result is appended to the log as soon as it completes.
    """
    quick = report.quick
    verdict_store, owns_store = _resolve_store(store)
    sources = [recorded]
    log_handle = None
    if log_path is not None:
        sources.append(load_result_log(log_path))
        log_handle = open_append(log_path)
    with trace.span("campaign.run", name=report.name, quick=quick) as sp:
        try:
            for item in scenarios if scenarios is not None else bundled_scenarios():
                spec = _resolve_spec(item, seed)
                for source in sources:
                    old = source.get(spec.name)
                    if old is not None and old.settles(spec, quick):
                        old.resumed = True
                        report.results.append(old)
                        break
                else:
                    result = run_scenario(
                        spec, engine=engine, workers=workers, quick=quick, store=verdict_store
                    )
                    report.results.append(result)
                    if log_handle is not None:
                        _append_result(log_handle, result)
        finally:
            if log_handle is not None:
                log_handle.close()
            if owns_store and verdict_store is not None:
                verdict_store.close()
            sp.add(scenarios=len(report.results))


def resume_campaign(
    report_path: Union[str, Path],
    scenarios: Optional[Iterable[Union[ScenarioSpec, str]]] = None,
    engine: EngineLike = None,
    workers: Optional[int] = None,
    quick: Optional[bool] = None,
    store: StoreLike = None,
    seed: Optional[int] = None,
    log_path: Union[str, Path, None] = None,
) -> Tuple[CampaignReport, int]:
    """Re-run only the missing/stale scenarios of an existing report.

    The report at ``report_path`` is loaded and the requested scenarios
    (default: the whole bundle; any iterable, consumed lazily) are swept
    as by :func:`run_campaign`, with the report's results consulted before
    the log at ``log_path``: a recorded result that settles its spec is
    carried over unchanged, and every other scenario is re-run (through
    ``store`` when given).  ``quick=None`` inherits the original report's
    mode, so a resumed campaign stays comparable with itself.

    Returns the merged report and the number of scenarios reused.
    """
    previous = CampaignReport.from_dict(json.loads(Path(report_path).read_text()))
    if quick is None:
        quick = previous.quick
    merged = CampaignReport(name=previous.name, engine=previous.engine, quick=quick)
    _sweep(merged, scenarios, {r.name: r for r in previous.results}, engine, workers, store, seed, log_path)
    reused = sum(result.resumed for result in merged.results)
    # Results present in the old report but outside the requested scenario
    # list are preserved, so a partial resume never drops history.  They
    # are carried over like reused ones, so replay gates skip them too.
    requested = {result.name for result in merged.results}
    for result in previous.results:
        if result.name not in requested:
            result.resumed = True
            merged.results.append(result)
    return merged, reused


def replay_summary(report: CampaignReport) -> Tuple[int, int, float, int]:
    """Summarise a report's verdict-store replay for ``--min-replayed`` gates.

    Counts only scenarios the producing invocation actually ran: results
    carried over by ``--resume`` keep the counters of the run that produced
    them, which say nothing about the store's warmth now.  Returns
    ``(replayed, total, fraction, resumed_excluded)``; an empty total
    gates as fully replayed (fraction 1.0).
    """
    fresh = [r for r in report.results if not r.resumed]
    replayed = sum(r.jobs_replayed for r in fresh)
    total = replayed + sum(r.jobs_computed for r in fresh)
    fraction = replayed / total if total else 1.0
    return replayed, total, fraction, len(report.results) - len(fresh)


def write_report(
    report: CampaignReport,
    path: Union[str, Path, None] = None,
    now: Optional[int] = None,
) -> Path:
    """Serialise a campaign report to JSON atomically and return the path written.

    The payload is written to a temporary file in the target directory and
    moved into place with :func:`os.replace`, so an interrupted campaign
    (or a killed CI job) can never truncate an existing report.  ``now``
    injects the ``recorded_at_unix`` timestamp for tests; it defaults to
    the current time.
    """
    path = Path(path) if path is not None else DEFAULT_REPORT_PATH
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = report.as_dict()
    payload["python"] = sys.version.split()[0]
    payload["recorded_at_unix"] = int(time.time()) if now is None else int(now)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path
