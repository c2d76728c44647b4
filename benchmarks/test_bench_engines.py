"""Ablation bench: the three execution engines for local algorithms.

DESIGN.md calls out the choice between direct ball evaluation (the paper's
mathematical definition) and the synchronous message-passing simulator (the
"networked state machines" view); the engine layer adds the cached backend
(batched BFS + memoised evaluation) on top.  This bench checks all three
agree, compares their cost on the same workloads, asserts the headline
speedup of the caching backend on the ``verify_decider`` cycle/path sweep,
and emits a machine-readable ``BENCH_engines.json`` under ``benchmarks/out/``
so CI can gate it against the committed record.
"""

from functools import partial

from _measure import measure, ratio, record

from repro.decision import assignments_for, decide
from repro.engine import CachedEngine, DirectEngine, SynchronousEngine
from repro.graphs import grid_graph, sequential_assignment
from repro.local_model import NO, YES, FunctionAlgorithm, run_algorithm, simulate_algorithm

GRID = grid_graph(6, 6, label="g")
IDS = sequential_assignment(GRID)
ALGORITHM = FunctionAlgorithm(
    lambda view: YES if view.max_visible_identifier() % 2 == 0 else NO, radius=2, name="parity"
)


def test_bench_engine_ball_evaluation(benchmark):
    outputs = benchmark(run_algorithm, ALGORITHM, GRID, IDS)
    assert len(outputs) == GRID.num_nodes()


def test_bench_engine_message_passing(benchmark):
    outputs, stats = benchmark(simulate_algorithm, ALGORITHM, GRID, IDS)
    assert outputs == run_algorithm(ALGORITHM, GRID, IDS)
    assert stats.rounds == ALGORITHM.radius + 1


def test_bench_engine_cached(benchmark):
    engine = CachedEngine()

    def run_cached():
        return run_algorithm(ALGORITHM, GRID, IDS, engine=engine)

    outputs = benchmark(run_cached)
    assert outputs == run_algorithm(ALGORITHM, GRID, IDS)


# ---------------------------------------------------------------------- #
# The verify_decider cycle/path sweep — the headline caching workload
# ---------------------------------------------------------------------- #

ROUNDS, WARMUP = 11, 2


def _verdict_matrix(workload, engine):
    """Per-(instance, assignment) accept bits — must be identical across backends."""
    return [
        decide(workload.decider, graph, ids, engine=engine)
        for graph, _expected in workload.family.labelled_instances()
        for ids in assignments_for(graph, samples=workload.samples, seed=11)
    ]


class DictDirectEngine(DirectEngine):
    """Per-node dict-based ball evaluation for every job: one :meth:`DirectEngine.run` per job."""

    def _run_many_core(self, algorithm, jobs):
        return [DirectEngine.run(self, algorithm, graph, ids) for graph, ids in jobs]


def test_bench_verify_decider_cached_speedup(cycles_vs_paths, write_record):
    # The dict baseline keeps this record's historical meaning: the
    # caching backend measured against per-node dict-based ball
    # evaluation (the paper's literal semantics).  Every variant but
    # ``cached`` sweeps on a fresh engine; ``cached`` keeps one engine, so
    # its steady state is the memo that repeated verification runs hit,
    # and ``cached_cold`` times the fresh engine that builds that memo.
    cached = CachedEngine()
    sweep = cycles_vs_paths.verify
    timings, reports = measure(
        {
            "direct": lambda: partial(sweep, engine=DictDirectEngine()),
            "direct_interned": lambda: partial(sweep, engine=DirectEngine()),
            "cached": lambda: partial(sweep, engine=cached),
            "cached_cold": lambda: partial(sweep, engine=CachedEngine()),
        },
        rounds=ROUNDS,
        warmup=WARMUP,
    )
    reports["synchronous"] = sweep(engine=SynchronousEngine())

    # All backends verify the decider cleanly and agree byte-for-byte
    # on every individual verdict.
    checked = reports["direct"].assignments_checked
    for report in reports.values():
        assert report.correct, report.summary()
        assert report.instances_checked == 2 * len(cycles_vs_paths.sizes)
        assert report.assignments_checked == checked
    matrix_direct = _verdict_matrix(cycles_vs_paths, DictDirectEngine())
    assert matrix_direct == _verdict_matrix(cycles_vs_paths, DirectEngine())
    assert matrix_direct == _verdict_matrix(cycles_vs_paths, CachedEngine())
    assert matrix_direct == _verdict_matrix(cycles_vs_paths, SynchronousEngine())

    speedup = ratio(timings["direct"], timings["cached"])
    speedup_interned = ratio(timings["direct"], timings["direct_interned"])
    payload = {
        "workload": "verify_decider cycles-vs-paths",
        "sizes": list(cycles_vs_paths.sizes),
        "id_samples_per_instance": cycles_vs_paths.samples,
        "assignments_checked": checked,
        **record(
            timings, ROUNDS, WARMUP,
            speedup_direct_over_cached=speedup,
            speedup_interned_over_dict_direct=speedup_interned,
            speedup_cached_over_direct_cold=ratio(timings["direct_interned"], timings["cached_cold"]),
        ),
        "cached_engine_stats": cached.stats.as_dict(),
        "cached_store_stats": cached.cache_stats(),
        "verdicts_identical_across_backends": True,
    }
    write_record("engines", payload)

    # The acceptance bar for the caching backend: at least 3x over direct
    # ball evaluation on this sweep (observed well above that locally).
    assert speedup[0] >= 3.0, f"CachedEngine speedup only {speedup[0]:.2f}x (95% interval {speedup[1]})"
    # The interned core: at least 5x over the dict-based direct
    # path on the same sweep (observed ~6.5x locally; the engine-only part,
    # net of shared assignment generation, is well above 10x).
    assert speedup_interned[0] >= 5.0, (
        f"interned DirectEngine speedup only {speedup_interned[0]:.2f}x (95% interval {speedup_interned[1]})"
    )
    # The memo store must actually be doing the work: one evaluation per
    # distinct ball type, hits for everything else.
    assert cached.stats.evaluation_hits > cached.stats.evaluations
