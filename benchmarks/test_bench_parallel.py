"""Persistent-pool mechanics and the pool's cold speed on a large sweep.

Runs one large ``run_many`` sweep (radius-1 id-oblivious decider over a
ladder of grid and torus graphs, ~8600 nodes in total) on a forced-pool
2-worker :class:`ParallelEngine`, which sends every batch to the pool, and
serially:

* **cold, distinct work** — every sample relabels the ladder, so no cache
  keyed by graph content can answer it.  It is timed on the pool and on a
  fresh interned :class:`DirectEngine`, the fastest serial backend.
  ``speedup_parallel_cold_2``, their ratio, is the number the
  keep-or-delete decision on the pool needs; it has no floor.
* **warm replay** — the pool re-runs the job list it ran last: the
  generation matches, so the run messages carry no jobs and the workers
  answer from their warm caches.

The record gates the pool's two load-bearing properties: warm sweeps
re-fork and re-ship **nothing** (``forks_per_sweep_after_warmup == 0``)
and beat the cold serial sweep by >= 3x (``speedup_parallel_over_serial``,
gated in CI through the consolidated ``check_regression.py --gate``
invocation).  Payload-ship bytes are recorded so a regression that
silently re-ships the job slices every batch shows up in the JSON diff.
"""

from functools import partial
from itertools import count

from _measure import measure, ratio, record

from repro.engine import (
    DirectEngine,
    ParallelEngine,
    get_pool,
    reset_shared_local_engine,
    shutdown_pool,
)
from repro.graphs import grid_graph, torus_graph
from repro.local_model import NO, YES

ROUNDS, WARMUP = 3, 0


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


def _jobs(label):
    """A ladder of grid and torus instances, ~8600 nodes in total, labelled ``label``."""
    jobs = []
    for k in range(8):
        jobs.append((grid_graph(20 + 2 * k, 20, label=label), None))
        jobs.append((torus_graph(20, 20 + 2 * k, label=label), None))
    return jobs


def test_bench_parallel_pool_mechanics(write_record):
    shutdown_pool()
    reset_shared_local_engine()
    decider = LocallyGridDecider()
    labels, ladders = count(), {}
    engine = ParallelEngine(workers=2, adaptive=False)
    pool = get_pool()

    def pooled():
        return engine

    def on_new_ladder(make_engine):
        """A factory: ``make_engine()`` sweeps a freshly relabelled ladder."""
        ladders[make_engine] = _jobs(f"x{next(labels)}")
        return partial(make_engine().run_many, decider, ladders[make_engine])

    try:
        timings, outputs = measure(
            {
                "serial": partial(on_new_ladder, DirectEngine),
                "parallel_2": partial(on_new_ladder, pooled),
            },
            rounds=ROUNDS,
            warmup=WARMUP,
        )
        forks_cold, ships_cold, bytes_cold = pool.forks, pool.payload_ships, pool.payload_ship_bytes
        assert forks_cold >= 2, "the cold sweeps must have forked the pool"
        assert bytes_cold > 0, "the cold sweeps must have shipped the payload"

        # The job list the pool ran last: every worker already holds its generation.
        replay = ladders[pooled]
        warm, warm_outputs = measure(
            {"parallel_2_warm": lambda: partial(engine.run_many, decider, replay)}, rounds=ROUNDS, warmup=WARMUP
        )
        forks_per_sweep = (pool.forks - forks_cold) / (WARMUP + ROUNDS)
        warm_ship_bytes = pool.payload_ship_bytes - bytes_cold
        warm_ships = pool.payload_ships - ships_cold
    finally:
        shutdown_pool()
    outputs.update(warm_outputs)
    # Labels do not reach the decider: every variant returns the same verdicts.
    assert all(out == outputs["serial"] for out in outputs.values())

    timings.update(warm)
    total_nodes = sum(graph.num_nodes() for graph, _ in replay)
    speedup = ratio(timings["serial"], timings["parallel_2_warm"])
    payload = {
        "workload": (
            f"run_many sweep: {len(replay)} grid/torus graphs, "
            f"{total_nodes} nodes, radius-1 id-oblivious decider"
        ),
        "jobs": len(replay),
        "nodes": total_nodes,
        "workers": 2,
        **record(
            timings, ROUNDS, WARMUP,
            speedup_parallel_over_serial=speedup,
            speedup_parallel_cold_2=ratio(timings["serial"], timings["parallel_2"]),
        ),
        "forks_cold_sweeps": forks_cold,
        "forks_per_sweep_after_warmup": forks_per_sweep,
        "payload_ship_bytes_cold_sweeps": bytes_cold,
        "payload_ship_bytes_warm_sweeps": warm_ship_bytes,
        "verdicts_identical_serial_vs_parallel": True,
    }
    write_record("parallel", payload)

    # The in-test floors mirror the CI gate.
    assert forks_per_sweep == 0, f"warm sweeps re-forked ({forks_per_sweep}/sweep)"
    assert warm_ships == 0, "warm sweeps re-shipped an unchanged payload"
    assert speedup[0] >= 3.0, f"warm pool sweep only {speedup[0]:.2f}x over cold serial (95% interval {speedup[1]})"
