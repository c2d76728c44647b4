"""Equivalence of the ParallelEngine with the serial backends.

The sharding contract: for any worker count — including the degenerate
1-worker pool — the parallel backend produces verdicts and randomised-
estimation statistics identical to the direct and cached backends.  The
tests force sharding with ``adaptive=False`` so the pool paths are actually
exercised on the small test instances.  Every decider here is built from
module-level functions, so it pickles and its batches reach the pool.
"""

import pytest

from repro.decision import (
    FunctionProperty,
    InstanceFamily,
    assignments_for,
    decide,
    estimate_acceptance_probability,
    verify_decider,
)
from repro.engine import (
    CachedEngine,
    DirectEngine,
    ParallelEngine,
    partition_chunks,
    resolve_engine,
)
from repro.errors import AlgorithmError
from repro.graphs import BoundedIdentifierSpace, cycle_graph, grid_graph, path_graph, sequential_assignment
from repro.local_model import (
    NO,
    YES,
    FunctionAlgorithm,
    FunctionIdObliviousAlgorithm,
    FunctionRandomisedAlgorithm,
    run_algorithm,
    run_randomised_algorithm,
)
from repro.separation.bounded_ids import (
    BoundedIdsLDDecider,
    SmallInstancesProperty,
    section2_family,
    small_bound,
)


def _parallel(workers):
    # adaptive=False sends every batch of two or more jobs to the pool, so
    # the pool paths run even on the small test inputs.
    return ParallelEngine(workers=workers, adaptive=False)


# ---------------------------------------------------------------------- #
# Partitioning
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("count,shards", [(0, 4), (1, 4), (5, 2), (8, 3), (12, 12), (7, 100)])
def test_partition_chunks_covers_range_contiguously(count, shards):
    chunks = partition_chunks(count, shards)
    assert len(chunks) <= max(1, shards)
    flattened = [i for chunk in chunks for i in chunk]
    assert flattened == list(range(count))
    assert all(chunk.step == 1 and len(chunk) > 0 for chunk in chunks)
    # Determinism: the partition is a pure function of (count, shards).
    assert chunks == partition_chunks(count, shards)


def test_partition_chunks_balanced():
    sizes = [len(chunk) for chunk in partition_chunks(10, 4)]
    assert max(sizes) - min(sizes) <= 1


# ---------------------------------------------------------------------- #
# Engine resolution
# ---------------------------------------------------------------------- #


def test_resolve_engine_knows_parallel():
    engine = resolve_engine("parallel")
    assert isinstance(engine, ParallelEngine)
    with pytest.raises(AlgorithmError, match="parallel"):
        resolve_engine("bogus")


def test_workers_must_be_positive():
    with pytest.raises(ValueError):
        ParallelEngine(workers=0)


# ---------------------------------------------------------------------- #
# Cycles-vs-paths: verdict-for-verdict equivalence
# ---------------------------------------------------------------------- #


def _cycle_path_family(sizes=(12, 16)):
    return InstanceFamily(
        name="cycles-vs-paths",
        yes_instances=[cycle_graph(n, label="x") for n in sizes],
        no_instances=[path_graph(n, label="x") for n in sizes],
    )


def _cycle_property():
    return FunctionProperty(
        lambda g: g.num_nodes() >= 3 and all(g.degree(v) == 2 for v in g.nodes()),
        name="uniform-cycle",
    )


def _cycle_verdict(view):
    if view.center_degree() != 2:
        return NO
    if any(view.label_of(v) != "x" for v in view.nodes()):
        return NO
    return YES


def _cycle_decider():
    return FunctionIdObliviousAlgorithm(_cycle_verdict, radius=1, name="cycle-decider")


def _parity_verdict(view):
    return YES if view.max_visible_identifier() % 2 == 0 else NO


def _always_yes(view):
    return YES


def _pool_batches(engine):
    return engine.stats.extra.get("parallel_batches", 0)


def _verdict_matrix(engine):
    family = _cycle_path_family()
    decider = _cycle_decider()
    matrix = []
    for graph, _expected in family.labelled_instances():
        for ids in assignments_for(graph, samples=5, seed=3):
            matrix.append(decide(decider, graph, ids, engine=engine))
    return matrix


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_verdict_matrix_identical_to_direct(workers):
    assert _verdict_matrix(DirectEngine()) == _verdict_matrix(_parallel(workers))


def test_verify_decider_reports_match_across_backends():
    family = _cycle_path_family()
    prop = _cycle_property()
    reports = {}
    pooled = _parallel(2)
    for key, engine in [
        ("direct", DirectEngine()),
        ("cached", CachedEngine()),
        ("parallel-2", pooled),
        ("parallel-1", _parallel(1)),
    ]:
        reports[key] = verify_decider(_cycle_decider(), prop, family=family, samples=5, engine=engine)
    assert _pool_batches(pooled) >= 1
    baseline = reports["direct"]
    for report in reports.values():
        assert report.correct
        assert report.instances_checked == baseline.instances_checked
        assert report.assignments_checked == baseline.assignments_checked


# ---------------------------------------------------------------------- #
# Property P (Section 2): the multi-stage LD decider under sharding
# ---------------------------------------------------------------------- #


def test_property_p_scenario_matches_direct():
    fam = section2_family(r=2, tree_depth=4, bound_fn=small_bound)
    prop = SmallInstancesProperty(bound_fn=small_bound, tree_depth=4)
    space = BoundedIdentifierSpace(small_bound)

    def verify(engine):
        decider = BoundedIdsLDDecider(bound_fn=small_bound, tree_depth=4)
        return verify_decider(decider, prop, family=fam, id_space=space, samples=2, engine=engine)

    direct = verify(DirectEngine())
    pooled = _parallel(2)
    parallel = verify(pooled)
    assert _pool_batches(pooled) >= 1
    assert direct.correct and parallel.correct
    assert direct.assignments_checked == parallel.assignments_checked
    assert direct.summary() == parallel.summary()


# ---------------------------------------------------------------------- #
# Single-graph runs
# ---------------------------------------------------------------------- #


def test_single_graph_runs_stay_in_process():
    # Only job lists reach the pool: one large graph runs in-process even
    # on an engine that sends every job list of two or more jobs there.
    from repro.engine import POOL_MIN_UNITS, get_pool

    graph = grid_graph(24, 24, label="g")
    ids = sequential_assignment(graph)
    parity = FunctionAlgorithm(_parity_verdict, radius=2, name="parity")
    assert graph.num_nodes() * (parity.radius + 1) >= 3 * POOL_MIN_UNITS
    forks_before = get_pool().forks
    engine = _parallel(2)
    assert engine.run(parity, graph, ids) == DirectEngine().run(parity, graph, ids)
    coin = _coin_decider()
    assert engine.run_randomised(coin, graph, ids, seed=7) == DirectEngine().run_randomised(coin, graph, ids, seed=7)
    assert get_pool().forks == forks_before
    assert "parallel_batches" not in engine.stats.extra
    assert engine.stats.nodes_run == 2 * graph.num_nodes()


def test_stats_are_exact_with_one_chunk_per_worker():
    # 16 jobs on 3 workers: one chunk per worker, each chunk contributing
    # its own counters exactly once, on cold and warm sweeps alike.
    graphs = [cycle_graph(12, label="x") for _ in range(16)]
    engine = ParallelEngine(workers=3, adaptive=False)
    for _ in range(3):
        engine.reset_stats()
        outputs = engine.run_many(_cycle_decider(), [(g, None) for g in graphs])
        assert len(outputs) == 16
        assert engine.stats.nodes_run == 16 * 12
        assert _pool_batches(engine) == 1
        assert engine.stats.extra["parallel_chunks"] == 3


def test_empty_sweeps_short_circuit_without_forking():
    # An empty batch must never touch the pool (no forks, no payload
    # ships), even on an engine that sends every other batch there.
    from repro.engine import get_pool

    forks_before = get_pool().forks
    engine = ParallelEngine(workers=3, adaptive=False)
    assert engine.run_many(_cycle_decider(), []) == []
    assert engine.run_randomised_many(_coin_decider(), []) == []
    empty = InstanceFamily(name="empty", yes_instances=[], no_instances=[])
    report = verify_decider(_cycle_decider(), _cycle_property(), family=empty, engine=engine)
    assert report.correct and report.instances_checked == 0
    assert "parallel_batches" not in engine.stats.extra
    assert get_pool().forks == forks_before


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_verdicts_identical_across_workers_and_partitioning(workers):
    # Serial and parallel verdicts byte-identical for workers in {1, 2, 4}
    # (each worker count splits the jobs into different chunks),
    # deterministic and randomised drivers alike.
    engine = _parallel(workers)
    serial = CachedEngine()
    det = _cycle_decider()
    jobs = [(cycle_graph(n, label="x"), None) for n in (12, 16, 9, 24, 7, 13)]
    assert engine.run_many(det, jobs) == serial.run_many(det, jobs)
    coin = _coin_decider()
    rjobs = [(g, None, 100 + k) for k, (g, _) in enumerate(jobs)]
    assert engine.run_randomised_many(coin, rjobs) == serial.run_randomised_many(coin, rjobs)
    if workers > 1:
        assert _pool_batches(engine) == 2
    graph = grid_graph(6, 6, label="g")
    ids = sequential_assignment(graph)
    parity = FunctionAlgorithm(_parity_verdict, radius=1, name="parity")
    assert engine.run(parity, graph, ids) == serial.run(parity, graph, ids)
    assert engine.run_randomised(coin, graph, seed=7) == serial.run_randomised(coin, graph, seed=7)


def test_one_worker_pool_is_serial_but_equivalent():
    graph = cycle_graph(32, label="x")
    engine = _parallel(1)
    outputs = run_algorithm(_cycle_decider(), graph, engine=engine)
    assert outputs == run_algorithm(_cycle_decider(), graph)
    # workers=1 must not fork at all.
    assert "parallel_batches" not in engine.stats.extra


# ---------------------------------------------------------------------- #
# Randomised runs and estimation statistics
# ---------------------------------------------------------------------- #


def _coin_verdict(view, rng):
    return YES if rng.random() < 0.7 else NO


def _coin_decider():
    return FunctionRandomisedAlgorithm(_coin_verdict, radius=1, name="biased-coin")


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_randomised_run_is_shard_independent(workers):
    graph = cycle_graph(40, label="x")
    serial = run_randomised_algorithm(_coin_decider(), graph, seed=11)
    sharded = run_randomised_algorithm(_coin_decider(), graph, seed=11, engine=_parallel(workers))
    assert serial == sharded


def test_estimation_statistics_match_serial_backends():
    graph = cycle_graph(24, label="x")
    pooled = _parallel(2)
    estimates = {
        key: estimate_acceptance_probability(_coin_decider(), graph, trials=10, seed=5, engine=engine)
        for key, engine in [
            ("direct", DirectEngine()),
            ("cached", CachedEngine()),
            ("parallel-2", pooled),
            ("parallel-1", _parallel(1)),
        ]
    }
    assert _pool_batches(pooled) >= 1
    baseline = estimates["direct"]
    for estimate in estimates.values():
        assert estimate.accepts == baseline.accepts
        assert estimate.trials == baseline.trials
        assert estimate.acceptance_rate == baseline.acceptance_rate


# ---------------------------------------------------------------------- #
# Counter-example surfacing (the report carries the assignment)
# ---------------------------------------------------------------------- #


def test_first_counterexample_cites_assignment():
    family = _cycle_path_family(sizes=(8,))
    prop = _cycle_property()
    always_yes = FunctionIdObliviousAlgorithm(_always_yes, radius=1, name="always-yes")
    pooled = _parallel(2)
    report = verify_decider(always_yes, prop, family=family, samples=2, engine=pooled)
    assert _pool_batches(pooled) >= 1
    assert not report.correct
    first = report.first_counterexample
    assert first is not None
    assert first.kind == "false-accept"
    assert first.ids is not None and len(first.ids) == first.graph.num_nodes()
    assert "first:" in report.summary()
    payload = report.as_dict()
    assert payload["first_counterexample"]["assignment"]
    assert payload["correct"] is False
