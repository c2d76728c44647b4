"""Warm-vs-cold bench for the persistent verdict store.

Runs the ``verify_decider`` cycles-vs-paths sweep (the same workload the
engine bench gates on) twice against one :class:`VerdictStore`: the cold
pass computes and persists every job, the warm pass — through a fresh
engine and a freshly opened store, as a new CI run would — replays them
from disk.  The bench asserts byte-identical verdicts and full replay, and
records the measured replay speedup in ``benchmarks/out/BENCH_persistent.json``
with the other fresh benchmark records.  The speedup is recorded rather than gated:
the replayed/computed job split is the deterministic signal, wall-clock is
the trajectory.
"""

import json
import time

from repro.decision import FunctionProperty, InstanceFamily, verify_decider
from repro.engine import CachedEngine, VerdictStore
from repro.graphs import cycle_graph, path_graph
from repro.local_model import NO, YES, FunctionIdObliviousAlgorithm


_SIZES = (64, 96, 128)
_SAMPLES = 16


def _cycle_property():
    return FunctionProperty(
        lambda g: g.num_nodes() >= 3 and all(g.degree(v) == 2 for v in g.nodes()),
        name="uniform-cycle",
    )


def _cycle_path_family():
    return InstanceFamily(
        name=f"cycles-vs-paths(n in {_SIZES})",
        yes_instances=[cycle_graph(n, label="x") for n in _SIZES],
        no_instances=[path_graph(n, label="x") for n in _SIZES],
    )


def _cycle_decider():
    def evaluate(view):
        if view.center_degree() != 2:
            return NO
        if any(view.label_of(v) != "x" for v in view.nodes()):
            return NO
        return YES

    return FunctionIdObliviousAlgorithm(evaluate, radius=1, name="cycle-decider")


def _timed_sweep(engine):
    start = time.perf_counter()
    report = verify_decider(
        _cycle_decider(), _cycle_property(), family=_cycle_path_family(),
        samples=_SAMPLES, seed=11, engine=engine,
    )
    return report, time.perf_counter() - start


def test_bench_persistent_replay_speedup(tmp_path, write_record):
    store_dir = tmp_path / "verdicts"

    cold_engine = CachedEngine().with_store(store_dir)
    cold, t_cold = _timed_sweep(cold_engine)
    cold_engine.store.close()

    # A fresh engine + freshly opened store: what the next CI run sees.
    warm_engine = CachedEngine().with_store(store_dir)
    warm, t_warm = _timed_sweep(warm_engine)

    assert cold.correct and warm.correct
    assert cold.assignments_checked == warm.assignments_checked
    assert cold.jobs_replayed == 0 and cold.jobs_computed == cold.assignments_checked
    assert warm.jobs_computed == 0 and warm.jobs_replayed == warm.assignments_checked

    speedup = t_cold / t_warm if t_warm > 0 else float("inf")
    store = warm_engine.store
    payload = {
        "workload": "verify_decider cycles-vs-paths (persistent store)",
        "sizes": list(_SIZES),
        "id_samples_per_instance": _SAMPLES,
        "assignments_checked": cold.assignments_checked,
        "seconds": {"cold": round(t_cold, 6), "warm": round(t_warm, 6)},
        "replay_speedup_cold_over_warm": round(speedup, 3),
        "jobs": {
            "cold_computed": cold.jobs_computed,
            "warm_replayed": warm.jobs_replayed,
        },
        "store_stats": store.stats(),
        "verdicts_identical_cold_vs_warm": True,
        "recorded_at_unix": int(time.time()),
    }
    write_record("persistent", payload)
