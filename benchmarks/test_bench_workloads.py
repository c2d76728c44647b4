"""Quick-matrix sweep throughput: serial CachedEngine vs 2-worker ParallelEngine.

Expands the full default workload matrix and runs every cell in quick mode
three times — once on the serial caching backend (a fresh ``CachedEngine``
per cell, the pre-pool baseline), once on a *cold* 2-worker
``ParallelEngine`` (pays the one-off fork tax and warms the persistent
pool), and once more on the now-*warm* pool — asserting that all sweeps
produce identical per-cell spec digests and verdicts.

The headline ``speedup_parallel_over_serial`` is the warm sweep's ratio:
the persistent pool's whole point is that workers and the shared
fingerprint-keyed engine survive across sweeps, so campaign-style repeated
runs hit warm ball caches instead of re-deriving every verdict.  The cold
ratio is recorded alongside (not gated — on cells this small the one-off
fork tax can eat the win), and CI gates both the serial throughput and
the warm speedup through the consolidated ``check_regression.py --gate``
invocation.
"""

import time

from repro.campaign.runner import run_campaign
from repro.engine import reset_shared_local_engine, shutdown_pool
from repro.workloads import default_matrix


_MATRIX_SEED = 0


def _timed_sweep(engine, workers=None):
    specs = default_matrix(seed=_MATRIX_SEED).scenarios()
    start = time.perf_counter()
    report = run_campaign(
        specs,
        engine=engine,
        workers=workers,
        quick=True,
        name=f"bench-workloads({engine})",
    )
    return report, time.perf_counter() - start


def _verdicts(report):
    return [(r.name, r.spec_digest, r.observed_correct) for r in report.results]


def test_bench_workloads_cell_throughput(write_record):
    # Start from a genuinely cold process-wide state: no live workers, no
    # warm shared engine left behind by earlier tests in the same process.
    shutdown_pool()
    reset_shared_local_engine()
    try:
        serial, t_serial = _timed_sweep("cached")
        cold, t_cold = _timed_sweep("parallel", workers=2)
        warm, t_warm = _timed_sweep("parallel", workers=2)
    finally:
        shutdown_pool()

    assert serial.ok, "serial quick matrix sweep misbehaved"
    assert cold.ok, "cold parallel quick matrix sweep misbehaved"
    assert warm.ok, "warm parallel quick matrix sweep misbehaved"
    cells = len(serial.results)
    assert cells >= 40, f"matrix expanded only {cells} cells"
    # Same seed => same workloads and verdicts regardless of the backend
    # and regardless of how warm the pool is.
    assert _verdicts(serial) == _verdicts(cold) == _verdicts(warm)

    cps_serial = cells / t_serial if t_serial > 0 else float("inf")
    cps_parallel = cells / t_warm if t_warm > 0 else float("inf")
    speedup_warm = t_serial / t_warm if t_warm > 0 else float("inf")
    payload = {
        "workload": "quick workload-matrix sweep (all cells)",
        "matrix_seed": _MATRIX_SEED,
        "cells": cells,
        "kinds": {
            "verify": sum(1 for r in serial.results if r.kind == "verify"),
            "search": sum(1 for r in serial.results if r.kind == "search"),
        },
        "seconds": {
            "serial": round(t_serial, 6),
            "parallel_2_cold": round(t_cold, 6),
            "parallel_2_warm": round(t_warm, 6),
        },
        "cells_per_second_serial": round(cps_serial, 3),
        "cells_per_second_parallel": round(cps_parallel, 3),
        "speedup_parallel_over_serial": round(speedup_warm, 3),
        "speedup_parallel_over_serial_cold": round(
            t_serial / t_cold if t_cold > 0 else float("inf"), 3
        ),
        "parallel_counters": {
            "cold": cold.parallel_stats(),
            "warm": warm.parallel_stats(),
        },
        "verdicts_identical_serial_vs_parallel": True,
        "recorded_at_unix": int(time.time()),
    }
    write_record("workloads", payload)

    # The in-test floors mirror the CI gates: quick cells are tiny, so even
    # a slow shared runner clears single-digit cells/s by a wide margin, and
    # a warm persistent pool must beat the fresh-engine-per-cell baseline.
    assert cps_serial >= 2.0, f"serial quick sweep slowed to {cps_serial:.2f} cells/s"
    assert speedup_warm >= 1.5, (
        f"warm parallel sweep only {speedup_warm:.2f}x over serial "
        f"(serial {t_serial:.3f}s, warm {t_warm:.3f}s)"
    )
