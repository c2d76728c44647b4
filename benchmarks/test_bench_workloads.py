"""Quick-matrix sweep throughput: serial CachedEngine vs 2-worker ParallelEngine.

Expands the full default workload matrix and runs every cell in quick mode
three ways, interleaved — on the serial caching backend (a fresh
``CachedEngine`` per cell, the pre-pool baseline), on a *cold* 2-worker
``ParallelEngine`` (the pool and the shared in-process engine are reset
before each such sweep, so it pays the one-off start-up again), and on
the *warm* one (nothing reset) — asserting that all sweeps produce
identical per-cell spec digests and verdicts.

The headline ``speedup_parallel_over_serial`` is the warm sweep's ratio:
the persistent pool's whole point is that workers and the shared
fingerprint-keyed engine survive across sweeps, so campaign-style repeated
runs hit warm ball caches instead of re-deriving every verdict.  The cold
ratio is recorded alongside (not gated — on cells this small the one-off
start-up can eat the win), and CI gates both the serial throughput and
the warm speedup through the consolidated ``check_regression.py --gate``
invocation.
"""

from functools import partial

from _measure import measure, rate, ratio, record

from repro.campaign.runner import run_campaign
from repro.engine import reset_shared_local_engine, shutdown_pool
from repro.workloads import default_matrix


_MATRIX_SEED = 0
ROUNDS, WARMUP = 3, 0


def _sweep(engine, workers=None, cold=False):
    """A factory for one quick-matrix sweep; ``cold`` first resets the pool and shared engine."""
    if cold:
        shutdown_pool()
        reset_shared_local_engine()
    specs = default_matrix(seed=_MATRIX_SEED).scenarios()
    return partial(run_campaign, specs, engine=engine, workers=workers, quick=True, name=f"bench-workloads({engine})")


def _verdicts(report):
    return [(r.name, r.spec_digest, r.observed_correct) for r in report.results]


def test_bench_workloads_cell_throughput(write_record):
    # Start from a genuinely cold process-wide state: no live workers, no
    # warm shared engine left behind by earlier tests in the same process.
    shutdown_pool()
    reset_shared_local_engine()
    try:
        timings, reports = measure(
            {
                "serial": partial(_sweep, "cached"),
                "parallel_2_cold": partial(_sweep, "parallel", workers=2, cold=True),
                "parallel_2_warm": partial(_sweep, "parallel", workers=2),
            },
            rounds=ROUNDS,
            warmup=WARMUP,
        )
    finally:
        shutdown_pool()
    serial, cold, warm = (reports[name] for name in ("serial", "parallel_2_cold", "parallel_2_warm"))

    assert serial.ok, "serial quick matrix sweep misbehaved"
    assert cold.ok, "cold parallel quick matrix sweep misbehaved"
    assert warm.ok, "warm parallel quick matrix sweep misbehaved"
    cells = len(serial.results)
    assert cells >= 40, f"matrix expanded only {cells} cells"
    # Same seed => same workloads and verdicts regardless of the backend
    # and regardless of how warm the pool is.
    assert _verdicts(serial) == _verdicts(cold) == _verdicts(warm)

    cps_serial = rate(cells, timings["serial"])
    speedup_warm = ratio(timings["serial"], timings["parallel_2_warm"])
    payload = {
        "workload": "quick workload-matrix sweep (all cells)",
        "matrix_seed": _MATRIX_SEED,
        "cells": cells,
        "kinds": {
            "verify": sum(1 for r in serial.results if r.kind == "verify"),
            "search": sum(1 for r in serial.results if r.kind == "search"),
        },
        **record(
            timings, ROUNDS, WARMUP,
            cells_per_second_serial=cps_serial,
            cells_per_second_parallel=rate(cells, timings["parallel_2_warm"]),
            speedup_parallel_over_serial=speedup_warm,
            speedup_parallel_over_serial_cold=ratio(timings["serial"], timings["parallel_2_cold"]),
        ),
        "parallel_counters": {
            "cold": cold.parallel_stats(),
            "warm": warm.parallel_stats(),
        },
        "verdicts_identical_serial_vs_parallel": True,
    }
    write_record("workloads", payload)

    # The in-test floors mirror the CI gates: quick cells are tiny, so even
    # a slow shared runner clears single-digit cells/s by a wide margin, and
    # a warm persistent pool must beat the fresh-engine-per-cell baseline.
    assert cps_serial[0] >= 2.0, f"serial quick sweep slowed to {cps_serial[0]:.2f} cells/s"
    assert speedup_warm[0] >= 1.5, (
        f"warm parallel sweep only {speedup_warm[0]:.2f}x over serial (95% interval {speedup_warm[1]})"
    )
