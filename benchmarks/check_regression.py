"""Benchmark-regression gate for benchmark records.

Compares freshly measured benchmark records against the committed
baselines and fails (exit 1) when a record's gated value drops below its
acceptance floor.  Each repeatable ``--gate BASELINE:CURRENT:KEY:FLOOR``
spec gates one key of one record, so one invocation gates every record::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_engines.py -q   # writes benchmarks/out/
    python benchmarks/check_regression.py \\
        --gate benchmarks/BENCH_engines.json:benchmarks/out/BENCH_engines.json:speedup_direct_over_cached:3.0 \\
        --gate benchmarks/BENCH_workloads.json:benchmarks/out/BENCH_workloads.json:cells_per_second_serial:2.0

Every gate is evaluated (no short-circuit) so one CI run reports every
regression at once.  A timed key is a ratio or rate of medians; when the
fresh record carries the key's bootstrap interval and round count, they
are printed beside it to show how much room the gate had.

Exit codes: 0 = no regression, 1 = regression detected, 2 = a record is
unusable (missing/zero/negative/NaN value) or a gate spec is malformed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

#: Exit code for an unusable record (distinct from 1 = genuine regression).
EXIT_INVALID_RECORD = 2


def load_record(path: Path, role: str, key: str) -> tuple:
    """Load one record and validate its ``key``; exit 2 on an unusable value.

    A zero, negative or non-finite value can only come from a broken
    measurement (a zero timing, a corrupted record); comparing against it
    would make the gate vacuous, so it must be an explicit failure, not a
    green gate.  Returns ``(value, record)``.
    """
    payload = json.loads(path.read_text())
    try:
        value = float(payload[key])
    except KeyError:
        print(f"INVALID: {role} record {path}: missing {key!r} key", file=sys.stderr)
        raise SystemExit(EXIT_INVALID_RECORD) from None
    except (TypeError, ValueError):
        print(f"INVALID: {role} record {path}: {key!r} is not a number ({payload.get(key)!r})", file=sys.stderr)
        raise SystemExit(EXIT_INVALID_RECORD) from None
    if not math.isfinite(value) or value <= 0:
        print(
            f"INVALID: {role} record {path}: {key} = {value!r} is not a "
            "positive finite speedup; the gate cannot compare against it "
            "(re-measure the benchmark instead of passing vacuously)",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_INVALID_RECORD)
    return value, payload


def parse_gate(raw: str) -> tuple:
    """Parse one ``BASELINE:CURRENT:KEY:FLOOR`` gate spec.

    The split is from the right (floor, then key) so POSIX paths — which
    cannot themselves be validated here — keep any exotic characters; a
    malformed spec is an invalid-record error (exit 2), not a regression.
    """
    parts = raw.rsplit(":", 2)
    if len(parts) != 3 or ":" not in parts[0]:
        print(f"INVALID: gate spec {raw!r} is not of the form BASELINE:CURRENT:KEY:FLOOR", file=sys.stderr)
        raise SystemExit(EXIT_INVALID_RECORD)
    paths, key, floor_text = parts
    baseline_path, _, fresh_path = paths.rpartition(":")
    try:
        floor = float(floor_text)
    except ValueError:
        print(f"INVALID: gate spec {raw!r}: floor {floor_text!r} is not a number", file=sys.stderr)
        raise SystemExit(EXIT_INVALID_RECORD) from None
    return Path(baseline_path), Path(fresh_path), key, floor


def evaluate_gate(baseline_path: Path, fresh_path: Path, key: str, floor: float) -> bool:
    """Evaluate one gate; print its verdict and return ``True`` on failure."""
    baseline, _ = load_record(baseline_path, "baseline", key)
    fresh, record = load_record(fresh_path, "fresh", key)
    # Speedup records are ratios ("x"); other gated values (throughputs
    # like cells_per_second_*) are plain magnitudes — don't mislabel them.
    unit = "x" if "speedup" in key else ""
    interval = record.get("ci95", {}).get(key)
    room = f" [95% interval {interval[0]:.2f}-{interval[1]:.2f}, {record['rounds']} rounds]" if interval else ""
    print(
        f"{key}: baseline {baseline:.2f}{unit}, fresh {fresh:.2f}{unit}{room} "
        f"({fresh / baseline:.2f}x of baseline); floor {floor:.2f}{unit}"
    )
    if fresh < floor:
        print(f"FAIL: fresh {key} {fresh:.2f}{unit} is below the {floor:.2f}{unit} floor")
        return True
    return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="Every committed BENCH_*.json record, its gated key, floor and "
        "regeneration command is documented in docs/BENCHMARKS.md.",
    )
    parser.add_argument(
        "--gate",
        action="append",
        required=True,
        metavar="BASELINE:CURRENT:KEY:FLOOR",
        help="gate KEY of the CURRENT record at FLOOR, against the BASELINE record (repeatable)",
    )
    args = parser.parse_args(argv)
    gates = [parse_gate(raw) for raw in args.gate]

    failed = False
    for gate in gates:
        failed |= evaluate_gate(*gate)
    if not failed:
        print(f"OK: no benchmark regression across {len(gates)} gate(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
