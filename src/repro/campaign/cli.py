"""``python -m repro.campaign`` — run experiment campaigns from the command line.

Examples
--------

List the bundled scenarios::

    PYTHONPATH=src python -m repro.campaign --list

Run the whole bundle on the caching backend and write the JSON report::

    PYTHONPATH=src python -m repro.campaign

Run two scenarios on a 2-worker parallel engine, quickly::

    PYTHONPATH=src python -m repro.campaign classic-cycles-vs-paths \\
        sec2-promise-cycles --engine parallel --workers 2 --quick \\
        --output benchmarks/out/BENCH_campaign_smoke.json

Sweep against a persistent verdict store — the second invocation replays
settled jobs from disk instead of recomputing them::

    PYTHONPATH=src python -m repro.campaign --quick --workers 2 \\
        --store /tmp/verdicts
    PYTHONPATH=src python -m repro.campaign --quick --workers 2 \\
        --store /tmp/verdicts --min-replayed 0.9

Resume an interrupted or partially stale campaign — only scenarios whose
spec digest or verdict is missing/stale are re-run, and the merged report
is written back::

    PYTHONPATH=src python -m repro.campaign \\
        --resume benchmarks/BENCH_campaign.json --store /tmp/verdicts

The process exits non-zero when any scenario misbehaves (a decider that
should verify does not, or an expected failure fails to appear), so CI can
gate on campaign runs directly.  ``--min-replayed`` additionally gates on
the fraction of jobs replayed from the store.

:func:`add_sweep_options` and :func:`run_sweep` are the sweep options and
run/report/gate sequence this command shares with ``python -m repro.workloads``
and ``python -m repro.adversary``.
"""

from __future__ import annotations

import argparse
import itertools
import math
from pathlib import Path
from typing import Any, Callable, Iterable, List, Optional, Sequence, Union

from ..analysis.reporting import format_table
from ..obs import trace
from .runner import (
    DEFAULT_REPORT_PATH,
    replay_summary,
    resume_campaign,
    run_campaign,
    write_report,
)
from .scenarios import bundled_scenarios, scenario_names
from .spec import ScenarioSpec

__all__ = ["main", "build_parser", "add_sweep_options", "run_sweep", "in_range"]


def in_range(convert: Callable[[str], float], low: float, high: float = math.inf) -> Callable[[str], Any]:
    """An argparse ``type=`` that converts and checks ``low <= value <= high`` (a usage error otherwise)."""

    def parse(text: str) -> Any:
        value = convert(text)
        if not low <= value <= high:  # also false for NaN
            raise argparse.ArgumentTypeError(f"must be in [{low}, {high}], got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value" errors
    return parse


def add_sweep_options(parser: argparse.ArgumentParser, default_report: Optional[Path]) -> None:
    """Declare the shared sweep options; ``default_report`` is where the report goes by default.

    With ``default_report=None`` a sweep writes a report only where
    ``--output`` (or ``--resume``) names one.
    """
    group = parser.add_argument_group("sweep options")
    group.add_argument(
        "--engine",
        default=None,
        choices=["direct", "synchronous", "cached", "parallel"],
        help="execution backend override (default: each scenario's declared backend)",
    )
    group.add_argument(
        "--workers",
        type=in_range(int, 1),
        default=None,
        metavar="N",
        help="worker processes for the parallel backend (implies --engine parallel)",
    )
    group.add_argument(
        "--quick",
        action="store_true",
        help="quick ladders, fewer Monte-Carlo trials and reduced search budgets",
    )
    group.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="persistent verdict store directory shared by every scenario of the "
        "sweep: settled jobs are replayed from disk across runs instead of recomputed",
    )
    group.add_argument(
        "--resume",
        default=None,
        metavar="REPORT",
        help="merge into an existing report, re-running only the scenarios whose "
        "spec digest or verdict is missing/stale "
        "(the merged report is written back to REPORT unless --output is given)",
    )
    group.add_argument(
        "--min-replayed",
        type=in_range(float, 0, 1),
        default=None,
        metavar="FRACTION",
        help="fail unless at least this fraction (0..1) of jobs was replayed from "
        "the store (requires --store); used by CI to prove warm sweeps",
    )
    group.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help=f"where to write the JSON report (default: {default_report or 'none'})",
    )
    group.add_argument(
        "--no-report", action="store_true", help="skip writing the JSON report file"
    )
    group.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a structured JSONL span trace of the whole sweep to "
        "PATH (inspect it with `python -m repro.obs report PATH`)",
    )
    parser.set_defaults(default_report=default_report)


def run_sweep(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    specs: Iterable[Union[ScenarioSpec, str]],
    *,
    quick: Optional[bool],
    label: str = "campaign",
    **runner: Any,
) -> int:
    """Check the sweep options, run or resume ``specs``, report, gate; return the exit code.

    ``quick=None`` lets a resumed report keep its recorded mode.  ``runner``
    holds the per-command :func:`run_campaign` keywords (``name``, ``seed``,
    ``log_path``); a resumed report keeps the name recorded in it.
    """
    if args.workers is not None and args.engine is not None and args.engine != "parallel":
        parser.error("--workers requires the parallel backend (drop --engine or use --engine parallel)")
    if args.min_replayed is not None and args.store is None:
        parser.error("--min-replayed requires --store")
    if args.resume is not None and not Path(args.resume).exists():
        parser.error(f"--resume report {args.resume} does not exist")
    shared = dict(engine=args.engine, workers=args.workers, store=args.store)
    if args.trace is not None:
        trace.enable(args.trace)
    try:
        if args.resume is not None:
            # zip advances ``counted`` once per spec consumed, so the specs stay
            # lazy and next(counted) is how many were requested.
            counted = itertools.count()
            runner.pop("name", None)
            report, reused = resume_campaign(
                args.resume, scenarios=(spec for spec, _ in zip(specs, counted)),
                quick=quick, **shared, **runner,
            )
            print(f"resumed from {args.resume}: {reused} scenario(s) reused, "
                  f"{next(counted) - reused} re-run")
        else:
            report = run_campaign(specs, quick=bool(quick), **shared, **runner)
        print(report.summary_table())
        for result in report.results:
            first = result.details.get("first_counterexample")
            if first:
                print(
                    f"  {result.name}: first counter-example {first['kind']} on "
                    f"n={first['num_nodes']} under assignment {first['assignment']}"
                )
        parallel_totals = report.parallel_stats()
        if parallel_totals.get("parallel_batches"):
            print(
                "parallel: {parallel_batches} batch(es), {parallel_chunks} chunk(s), "
                "{parallel_forks} fork(s), {payload_ships} payload ship(s) "
                "({payload_ship_bytes} bytes), {coalesced_batches} coalesced".format(**parallel_totals)
            )
        default = args.resume if args.resume is not None else args.default_report
        target = args.output if args.output is not None else default
        if not args.no_report and target is not None:
            print(f"report written to {write_report(report, target)}")
        ok = report.ok
        if args.min_replayed is not None:
            replayed, total, share, resumed = replay_summary(report)
            passed = share >= args.min_replayed
            print(
                f"store replay: {replayed}/{total} jobs ({share:.1%}, floor {args.min_replayed:.1%}"
                + (f"; {resumed} resumed scenario(s) excluded)" if resumed else ")")
                + ("" if passed else " FAIL: below the floor")
            )
            ok = ok and passed
        print(f"{label} {'OK' if ok else 'FAILED'}")
        return 0 if ok else 1
    finally:
        if args.trace is not None:
            trace.disable()
            print(f"trace written to {args.trace}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Run verification/estimation campaigns over the paper's scenarios.",
    )
    parser.add_argument(
        "scenarios",
        nargs="*",
        metavar="SCENARIO",
        help=f"scenario names to run (default: all). Known: {', '.join(scenario_names())}",
    )
    parser.add_argument("--list", action="store_true", help="list addressable scenarios and exit")
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="override every scenario's sampling/search seed (default: each "
        "spec's declared seed); the seed participates in spec digests, so "
        "--resume never reuses results recorded under a different seed",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="force the full ladders; with --resume this overrides the "
        "resumed report's recorded quick mode (which is otherwise inherited)",
    )
    add_sweep_options(parser, DEFAULT_REPORT_PATH)
    return parser


def _list_scenarios() -> str:
    rows = [spec.as_row() for spec in bundled_scenarios()]
    return format_table(
        ["name", "section", "kind", "engine", "sizes", "title"],
        rows,
        title=f"addressable campaign scenarios ({len(rows)})",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        print(_list_scenarios())
        return 0
    names: List[str] = args.scenarios or scenario_names()
    unknown = sorted(set(names) - set(scenario_names()))
    if unknown:
        parser.error(f"unknown scenario(s) {unknown}; see --list")
    if args.quick and args.full:
        parser.error("--quick and --full are mutually exclusive")
    # quick: explicit flags win; otherwise a resume inherits the report's mode
    # so the merged report stays comparable with itself.
    quick = True if args.quick else (False if args.full else None)
    return run_sweep(parser, args, names, quick=quick, seed=args.seed)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m
    raise SystemExit(main())
