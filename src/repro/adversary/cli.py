"""``python -m repro.adversary`` — hunt defeating identifier assignments.

A hunt is an ordinary campaign ``search`` scenario: this command applies
``--strategy`` / ``--budget`` / ``--compare`` to the bundled search specs
and runs them through the sweep path it shares with ``python -m
repro.campaign`` (:func:`repro.campaign.cli.run_sweep`), so every sweep
option (``--store``, ``--resume``, ``--min-replayed``, ``--trace``, ...)
applies to hunts too.  The workload matrix's search cells are hunted by
``python -m repro.workloads --run --kind search``.

Examples
--------

List the bundled adversarial targets (the campaign's ``search`` scenarios)::

    PYTHONPATH=src python -m repro.adversary --list

Hunt one target with its declared strategy and print the shrunk minimal
witness::

    PYTHONPATH=src python -m repro.adversary adv-mis-parity --quick

Compare every strategy's executions-to-defeat on all targets::

    PYTHONPATH=src python -m repro.adversary --compare --quick

Hunt against a persistent verdict store — the second pass replays every
probe from disk::

    PYTHONPATH=src python -m repro.adversary --quick --store /tmp/hunt-store
    PYTHONPATH=src python -m repro.adversary --quick --store /tmp/hunt-store \\
        --min-replayed 1.0

No report file is written unless ``--output`` (or ``--resume``) names one.
The process exits non-zero when any target misbehaves: a trap that should
be defeated survives its budget, or a hunt on a sound decider finds a
defeat.
"""

from __future__ import annotations

import argparse
import dataclasses
from typing import List, Optional, Sequence

from ..analysis.reporting import format_table
from ..campaign.cli import add_sweep_options, in_range, run_sweep
from ..campaign.scenarios import bundled_scenarios
from ..campaign.spec import ScenarioSpec
from .strategies import strategy_names

__all__ = ["main", "build_parser", "search_scenarios"]


def search_scenarios() -> List[ScenarioSpec]:
    """The addressable adversarial targets: bundled campaign scenarios of kind ``search``."""
    return [spec for spec in bundled_scenarios() if spec.kind == "search"]


def build_parser() -> argparse.ArgumentParser:
    targets = ", ".join(spec.name for spec in search_scenarios())
    parser = argparse.ArgumentParser(
        prog="python -m repro.adversary",
        description="Hunt identifier assignments that defeat candidate deciders, "
        "and shrink what you catch.",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        metavar="TARGET",
        help=f"adversarial targets to hunt (default: all). Known: {targets}",
    )
    parser.add_argument("--list", action="store_true", help="list addressable targets and exit")
    parser.add_argument(
        "--strategy",
        default=None,
        choices=strategy_names(),
        help="search strategy override (default: each target's declared strategy)",
    )
    parser.add_argument(
        "--budget",
        type=in_range(int, 1),
        default=None,
        metavar="N",
        help="per-instance execution budget override",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="hunt each target with every strategy (one TARGET/STRATEGY scenario each)",
    )
    add_sweep_options(parser, None)
    return parser


def _list_targets() -> str:
    rows = [
        [spec.name, spec.strategy, spec.max_evaluations, spec.batch_size,
         "x".join(str(s) for s in spec.sizes) or "-", spec.title]
        for spec in search_scenarios()
    ]
    return format_table(
        ["name", "strategy", "budget", "batch", "sizes", "title"],
        rows,
        title=f"bundled adversarial targets ({len(rows)})",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        print(_list_targets())
        return 0
    known = {spec.name: spec for spec in search_scenarios()}
    names = args.targets or list(known)
    unknown = sorted(set(names) - set(known))
    if unknown:
        parser.error(f"unknown target(s) {unknown}; see --list")
    if args.compare and args.strategy is not None:
        parser.error("--compare runs every strategy; drop --strategy")
    # Overrides land in the spec, whose digest covers strategy and budget,
    # so --resume never reuses a hunt recorded under other settings.
    budget = {} if args.budget is None else dict(max_evaluations=args.budget, quick_max_evaluations=0)
    specs = [dataclasses.replace(known[name], **budget) for name in names]
    if args.compare:
        specs = [
            dataclasses.replace(spec, name=f"{spec.name}/{strategy}", strategy=strategy)
            for spec in specs
            for strategy in strategy_names()
        ]
    elif args.strategy is not None:
        specs = [dataclasses.replace(spec, strategy=args.strategy) for spec in specs]
    return run_sweep(parser, args, specs, quick=args.quick or None, label="adversary",
                     name="adversarial-hunts")


if __name__ == "__main__":  # pragma: no cover - exercised via python -m
    raise SystemExit(main())
