"""Warm-vs-cold bench for the persistent verdict store.

Runs the ``verify_decider`` cycles-vs-paths sweep (the same workload the
engine bench gates on) against on-disk verdict stores: the cold variant
computes and persists every job into an empty store, the warm variant —
through a fresh engine and a freshly opened store, as a new CI run would —
replays a store an untimed cold pass filled.  The bench asserts
byte-identical verdicts and full replay, and records the measured replay
speedup in ``benchmarks/out/BENCH_persistent.json`` with the other fresh
benchmark records.  The speedup is recorded rather than gated: the
replayed/computed job split is the deterministic signal, wall-clock is
the trajectory.
"""

from functools import partial
from itertools import count

from _measure import measure, ratio, record

from repro.engine import CachedEngine

ROUNDS, WARMUP = 3, 1


def test_bench_persistent_replay_speedup(cycles_vs_paths, tmp_path, write_record):
    sweep = cycles_vs_paths.verify
    stores, opened = count(), {False: [], True: []}

    def on_store(filled):
        """A factory: a fresh engine on a new store, ``filled`` by an untimed cold pass and reopened."""
        engine = CachedEngine().with_store(tmp_path / f"verdicts-{next(stores)}")
        if filled:
            sweep(engine=engine)
            engine.store.close()
            engine = CachedEngine().with_store(engine.store.path)
        opened[filled].append(engine)
        return partial(sweep, engine=engine)

    try:
        timings, reports = measure(
            {"cold": partial(on_store, False), "warm": partial(on_store, True)}, rounds=ROUNDS, warmup=WARMUP
        )
        store_stats = opened[True][-1].store.stats()
    finally:
        for engine in opened[False] + opened[True]:
            engine.store.close()
    cold, warm = reports["cold"], reports["warm"]

    assert cold.correct and warm.correct
    assert cold.assignments_checked == warm.assignments_checked
    assert cold.jobs_replayed == 0 and cold.jobs_computed == cold.assignments_checked
    assert warm.jobs_computed == 0 and warm.jobs_replayed == warm.assignments_checked

    payload = {
        "workload": "verify_decider cycles-vs-paths (persistent store)",
        "sizes": list(cycles_vs_paths.sizes),
        "id_samples_per_instance": cycles_vs_paths.samples,
        "assignments_checked": cold.assignments_checked,
        **record(timings, ROUNDS, WARMUP, replay_speedup_cold_over_warm=ratio(timings["cold"], timings["warm"])),
        "jobs": {
            "cold_computed": cold.jobs_computed,
            "warm_replayed": warm.jobs_replayed,
        },
        "store_stats": store_stats,
        "verdicts_identical_cold_vs_warm": True,
    }
    write_record("persistent", payload)
