"""Benchmark-regression gate for speedup records.

Compares freshly measured benchmark records against the committed
baselines and fails (exit 1) when a record's gated value drops below its
acceptance floor.  Two invocation forms exist:

**Single-record form** (positional paths): ``--key`` selects which value
the record carries; the default gates the CachedEngine-vs-direct record
(``BENCH_engines.json``)::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_engines.py -q   # writes benchmarks/out/
    python benchmarks/check_regression.py benchmarks/BENCH_engines.json benchmarks/out/BENCH_engines.json

**Consolidated form** (repeatable ``--gate BASELINE:CURRENT:KEY:FLOOR``
triples): one invocation gates every benchmark record, which is how CI
collapses its per-record gating steps into a single one::

    python benchmarks/check_regression.py \\
        --gate benchmarks/BENCH_engines.json:benchmarks/out/BENCH_engines.json:speedup_direct_over_cached:3.0 \\
        --gate benchmarks/BENCH_adversary.json:benchmarks/out/BENCH_adversary.json:speedup_exhaustive_over_guided:2.0 \\
        --gate benchmarks/BENCH_workloads.json:benchmarks/out/BENCH_workloads.json:cells_per_second_serial:2.0

Every gate is evaluated (no short-circuit) so one CI run reports every
regression at once.  The default floor (3x) matches the assertion inside
the engine benchmark itself; the gate exists so the comparison against the
committed trajectory is an explicit, artifact-producing CI step rather
than a side effect of the test run, and so ``--max-drop`` can additionally
flag large relative regressions against the baseline (it applies to every
gate of the consolidated form too).

Exit codes: 0 = no regression, 1 = regression detected, 2 = a record is
unusable (missing/zero/negative/NaN value) — an unusable baseline fails
loudly instead of turning ``--max-drop`` into a vacuous comparison.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

SPEEDUP_KEY = "speedup_direct_over_cached"

#: Exit code for an unusable record (distinct from 1 = genuine regression).
EXIT_INVALID_RECORD = 2


def load_speedup(path: Path, role: str, key: str = SPEEDUP_KEY) -> float:
    """Load and validate one record's speedup; exit 2 on an unusable value.

    A zero, negative or non-finite speedup can only come from a broken
    measurement (a zero timing, a corrupted record); comparing against it
    would make every ratio vacuous — ``--max-drop`` in particular would
    silently pass against ``ratio = inf`` — so it must be an explicit
    failure, not a green gate.
    """
    payload = json.loads(path.read_text())
    try:
        speedup = float(payload[key])
    except KeyError:
        print(f"INVALID: {role} record {path}: missing {key!r} key", file=sys.stderr)
        raise SystemExit(EXIT_INVALID_RECORD) from None
    except (TypeError, ValueError):
        print(
            f"INVALID: {role} record {path}: {key!r} is not a number "
            f"({payload.get(key)!r})",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_INVALID_RECORD) from None
    if not math.isfinite(speedup) or speedup <= 0:
        print(
            f"INVALID: {role} record {path}: {key} = {speedup!r} is not a "
            "positive finite speedup; the gate cannot compare against it "
            "(re-measure the benchmark instead of passing vacuously)",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_INVALID_RECORD)
    return speedup


def parse_gate(raw: str) -> tuple:
    """Parse one ``BASELINE:CURRENT:KEY:FLOOR`` triple-colon gate spec.

    The split is from the right (floor, then key) so POSIX paths — which
    cannot themselves be validated here — keep any exotic characters; a
    malformed spec is an invalid-record error (exit 2), not a regression.
    """
    parts = raw.rsplit(":", 2)
    if len(parts) != 3 or ":" not in parts[0]:
        print(
            f"INVALID: gate spec {raw!r} is not of the form BASELINE:CURRENT:KEY:FLOOR",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_INVALID_RECORD)
    paths, key, floor_text = parts
    baseline_path, _, fresh_path = paths.rpartition(":")
    try:
        floor = float(floor_text)
    except ValueError:
        print(
            f"INVALID: gate spec {raw!r}: floor {floor_text!r} is not a number",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_INVALID_RECORD) from None
    return Path(baseline_path), Path(fresh_path), key, floor


def evaluate_gate(
    baseline_path: Path, fresh_path: Path, key: str, floor: float, max_drop=None
) -> bool:
    """Evaluate one gate; print its verdict and return ``True`` on failure."""
    baseline = load_speedup(baseline_path, "baseline", key)
    fresh = load_speedup(fresh_path, "fresh", key)
    # Speedup records are ratios ("x"); other gated values (throughputs
    # like cells_per_second_*) are plain magnitudes — don't mislabel them.
    unit = "x" if "speedup" in key else ""
    ratio = fresh / baseline
    print(
        f"{key}: baseline {baseline:.2f}{unit}, fresh {fresh:.2f}{unit} "
        f"({ratio:.2f}x of baseline); floor {floor:.2f}{unit}"
    )
    failed = False
    if fresh < floor:
        print(f"FAIL: fresh {key} {fresh:.2f}{unit} is below the {floor:.2f}{unit} floor")
        failed = True
    if max_drop is not None and fresh < baseline * (1.0 - max_drop):
        print(
            f"FAIL: fresh {key} {fresh:.2f}{unit} dropped more than "
            f"{max_drop:.0%} below the baseline {baseline:.2f}{unit}"
        )
        failed = True
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="Every committed BENCH_*.json record, its gated key, floor and "
        "regeneration command is documented in docs/BENCHMARKS.md.",
    )
    parser.add_argument(
        "baseline", type=Path, nargs="?", default=None, help="committed benchmark record"
    )
    parser.add_argument(
        "fresh", type=Path, nargs="?", default=None, help="freshly measured benchmark record"
    )
    parser.add_argument(
        "--gate",
        action="append",
        default=[],
        metavar="BASELINE:CURRENT:KEY:FLOOR",
        help="consolidated gate spec (repeatable); replaces the positional form "
        "so one invocation gates several benchmark records",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="hard floor on the fresh speedup (positional form only; default: 3.0)",
    )
    parser.add_argument(
        "--key",
        default=None,
        metavar="KEY",
        help=f"record key holding the gated speedup (positional form only; default: {SPEEDUP_KEY!r})",
    )
    parser.add_argument(
        "--max-drop",
        type=float,
        default=None,
        metavar="FRACTION",
        help="optionally also fail when a fresh value drops more than this "
        "fraction below its baseline (e.g. 0.5 = fresh must be >= half the baseline)",
    )
    args = parser.parse_args(argv)

    if args.gate:
        if args.baseline is not None or args.fresh is not None:
            parser.error("--gate replaces the positional BASELINE/CURRENT arguments")
        if args.key is not None or args.min_speedup is not None:
            # Each gate spec carries its own key and floor; silently
            # ignoring these flags would drop a floor the caller set.
            parser.error("--key/--min-speedup do not apply to --gate specs "
                         "(put KEY and FLOOR inside each --gate)")
        gates = [parse_gate(raw) for raw in args.gate]
    else:
        if args.baseline is None or args.fresh is None:
            parser.error("either --gate or the positional BASELINE CURRENT pair is required")
        key = args.key if args.key is not None else SPEEDUP_KEY
        floor = args.min_speedup if args.min_speedup is not None else 3.0
        gates = [(args.baseline, args.fresh, key, floor)]

    failed = False
    for baseline_path, fresh_path, key, floor in gates:
        failed |= evaluate_gate(baseline_path, fresh_path, key, floor, args.max_drop)
    if not failed:
        print(f"OK: no benchmark regression across {len(gates)} gate(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
