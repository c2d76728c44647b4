"""Persistent-pool mechanics on a large sweep: forks, payload ships, warm speedup.

Runs one large ``run_many`` sweep (radius-1 id-oblivious decider over a
ladder of grid and torus graphs, ~8600 nodes in total) three ways:

* **serial** — a fresh cold :class:`CachedEngine`, the fresh-engine-per-
  sweep baseline every campaign cell used to pay;
* **parallel cold** — a forced-pool 2-worker :class:`ParallelEngine` on a
  freshly forked pool (pays the fork tax and ships each worker its own
  slice of the jobs once);
* **parallel warm** — the same engine and job list again: the generation
  matches, so the run messages carry no jobs and the workers answer
  from their warm caches.

The record gates the pool's two load-bearing properties: warm sweeps
re-fork **nothing** (``forks_per_sweep_after_warmup == 0``) and beat the
cold-serial baseline by >= 3x (``speedup_parallel_over_serial``, gated in
CI through the consolidated ``check_regression.py --gate`` invocation).
Payload-ship bytes are recorded so a regression that silently re-ships
the job slices every batch shows up in the JSON diff.
"""

import time

from repro.engine import (
    CachedEngine,
    ParallelEngine,
    get_pool,
    reset_shared_local_engine,
    shutdown_pool,
)
from repro.graphs import grid_graph, torus_graph
from repro.local_model import NO, YES


#: Warm sweeps after the cold one; the headline warm time is their minimum.
WARM_SWEEPS = 3


class LocallyGridDecider:
    """Module-level (hence picklable) radius-1 check that a ball looks grid-like."""

    name = "locally-grid"
    radius = 1
    uses_identifiers = False

    def evaluate(self, view):
        graph = view.graph
        degrees = [graph.degree(v) for v in graph.nodes()]
        if max(degrees) > 4:
            return NO
        if view.center_degree() == 4:
            return YES
        return YES if min(degrees) >= 2 else NO


def _jobs():
    """A ladder of grid and torus instances, ~8600 nodes in total."""
    jobs = []
    for k in range(8):
        jobs.append((grid_graph(20 + 2 * k, 20, label="x"), None))
        jobs.append((torus_graph(20, 20 + 2 * k, label="x"), None))
    return jobs


def test_bench_parallel_pool_mechanics(write_record):
    shutdown_pool()
    reset_shared_local_engine()
    decider = LocallyGridDecider()
    jobs = _jobs()
    total_nodes = sum(graph.num_nodes() for graph, _ in jobs)

    start = time.perf_counter()
    expected = CachedEngine().run_many(decider, jobs)
    t_serial = time.perf_counter() - start

    # Forced-pool configuration: this record measures the pool itself, so
    # every batch goes to the pool whatever its size.
    engine = ParallelEngine(workers=2, adaptive=False)
    pool = get_pool()
    try:
        start = time.perf_counter()
        assert engine.run_many(decider, jobs) == expected
        t_cold = time.perf_counter() - start
        forks_cold = pool.forks
        ships_cold = pool.payload_ships
        bytes_cold = pool.payload_ship_bytes
        assert forks_cold >= 2, "the cold sweep must have forked the pool"
        assert bytes_cold > 0, "the cold sweep must have shipped the payload"

        warm_times = []
        for _ in range(WARM_SWEEPS):
            start = time.perf_counter()
            assert engine.run_many(decider, jobs) == expected
            warm_times.append(time.perf_counter() - start)
        forks_per_sweep = (pool.forks - forks_cold) / WARM_SWEEPS
        warm_ship_bytes = pool.payload_ship_bytes - bytes_cold
        warm_ships = pool.payload_ships - ships_cold
    finally:
        shutdown_pool()

    t_warm = min(warm_times)
    speedup = t_serial / t_warm if t_warm > 0 else float("inf")
    payload = {
        "workload": (
            f"run_many sweep: {len(jobs)} grid/torus graphs, "
            f"{total_nodes} nodes, radius-1 id-oblivious decider"
        ),
        "jobs": len(jobs),
        "nodes": total_nodes,
        "workers": 2,
        "seconds": {
            "serial_cold": round(t_serial, 6),
            "parallel_2_cold": round(t_cold, 6),
            "parallel_2_warm": round(t_warm, 6),
        },
        "speedup_parallel_over_serial": round(speedup, 3),
        "speedup_parallel_over_serial_cold": round(
            t_serial / t_cold if t_cold > 0 else float("inf"), 3
        ),
        "forks_cold_sweep": forks_cold,
        "forks_per_sweep_after_warmup": forks_per_sweep,
        "payload_ship_bytes_cold_sweep": bytes_cold,
        "payload_ship_bytes_warm_sweeps": warm_ship_bytes,
        "warm_sweeps": WARM_SWEEPS,
        "verdicts_identical_serial_vs_parallel": True,
        "recorded_at_unix": int(time.time()),
    }
    write_record("parallel", payload)

    # The in-test floors mirror the CI gate.
    assert forks_per_sweep == 0, f"warm sweeps re-forked ({forks_per_sweep}/sweep)"
    assert warm_ships == 0, "warm sweeps re-shipped an unchanged payload"
    assert speedup >= 3.0, (
        f"warm pool sweep only {speedup:.2f}x over cold serial "
        f"(serial {t_serial:.3f}s, warm {t_warm:.3f}s)"
    )
