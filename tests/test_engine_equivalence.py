"""Equivalence of the three execution backends, and the engine-layer fixes.

The engine contract: running the same algorithm on the same input through
the direct, synchronous and cached backends yields *identical* outputs —
the backends may only differ in how views are produced and whether
evaluations are reused.  The tests sweep seeded random graphs from the
generator library (the property-based harness style used across this
test-suite), both with and without identifiers, plus full
``verify_decider`` sweeps whose verdicts must be byte-identical.

Also covered here: the stable ``(seed, index)`` node-seed derivation
(reproducible across processes and PYTHONHASHSEED values) and the
``assignments_for`` dedup key regression (distinct nodes with equal reprs).
"""

import os
import random
import subprocess
import sys

import pytest

from repro.analysis import neighbourhood_keys
from repro.decision import assignments_for, decide, estimate_acceptance_probability, verify_decider
from repro.engine import (
    CachedEngine,
    DirectEngine,
    LRUStore,
    ParallelEngine,
    SynchronousEngine,
    derive_node_seed,
    resolve_engine,
)
from repro.errors import AlgorithmError
from repro.graphs import (
    LabelledGraph,
    cycle_graph,
    grid_graph,
    path_graph,
    random_graph,
    random_tree,
    sequential_assignment,
)
from repro.graphs.identifiers import random_assignment
from repro.local_model import (
    NO,
    YES,
    FunctionAlgorithm,
    FunctionIdObliviousAlgorithm,
    FunctionRandomisedAlgorithm,
    RandomisedLocalAlgorithm,
    run_randomised_algorithm,
    simulate_algorithm,
)
from repro.properties.colouring import ProperColouringDecider, ProperColouringProperty
from repro.properties.paths import RegularPathProperty


def _id_sum_parity(view):
    return YES if sum(view.identifiers()) % 2 == 0 else NO


def _degree_and_labels(view):
    return (view.center_degree(), tuple(sorted(map(repr, view.labels().values()))))


ID_ALG = FunctionAlgorithm(_id_sum_parity, radius=1, name="id-sum-parity")
ID_ALG_R2 = FunctionAlgorithm(_id_sum_parity, radius=2, name="id-sum-parity-r2")
OBL_ALG = FunctionIdObliviousAlgorithm(_degree_and_labels, radius=1, name="degree-labels")
OBL_ALG_R2 = FunctionIdObliviousAlgorithm(_degree_and_labels, radius=2, name="degree-labels-r2")


def _graph_zoo(seed):
    rng = random.Random(seed)
    yield cycle_graph(rng.randrange(3, 12), label="c")
    yield path_graph(rng.randrange(1, 10), label="p")
    yield grid_graph(rng.randrange(2, 5), rng.randrange(2, 5), label="g")
    yield random_tree(rng.randrange(2, 12), seed=seed, label="t")
    yield random_graph(rng.randrange(2, 10), 0.4, seed=seed, label="r")


def _engines():
    return [DirectEngine(), SynchronousEngine(), CachedEngine()]


@pytest.mark.parametrize("seed", range(5))
def test_backends_agree_on_random_graphs(seed):
    for graph in _graph_zoo(seed):
        ids = random_assignment(graph, rng=random.Random(seed + 1))
        for algorithm, assignment in [
            (ID_ALG, ids),
            (ID_ALG_R2, ids),
            (OBL_ALG, None),
            (OBL_ALG_R2, None),
            (OBL_ALG, ids),  # oblivious algorithms must ignore identifiers
        ]:
            outputs = [e.run(algorithm, graph, assignment) for e in _engines()]
            assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("seed", range(3))
def test_cached_engine_is_stable_across_reruns_and_assignments(seed):
    cached = CachedEngine()
    direct = DirectEngine()
    for graph in _graph_zoo(seed):
        for assignment in (
            sequential_assignment(graph),
            random_assignment(graph, rng=random.Random(seed)),
        ):
            expected = direct.run(ID_ALG, graph, assignment)
            assert cached.run(ID_ALG, graph, assignment) == expected
            # Second run is served from the memo store but must not change.
            assert cached.run(ID_ALG, graph, assignment) == expected
    assert cached.stats.evaluation_hits > 0
    assert cached.stats.ball_hits > 0


def test_cached_engine_memoises_isomorphic_views():
    cached = CachedEngine()
    graph = cycle_graph(32, label="x")
    outputs = cached.run(OBL_ALG, graph)
    # Every node of a labelled cycle has the same oblivious view type.
    assert len(set(outputs.values())) == 1
    assert cached.stats.evaluations == 1
    assert cached.stats.evaluation_hits == 31


def test_cached_engine_shares_its_memo_between_equal_content_deciders():
    cached = CachedEngine()
    graph = cycle_graph(16, label="x")
    first = RegularPathProperty(["x"], [("y",)]).decider()
    second = RegularPathProperty(["x"], [("y",)]).decider()
    assert first is not second
    expected = cached.run(first, graph)
    cached.reset_stats()
    assert cached.run(second, graph) == expected
    assert cached.stats.evaluations == 0
    assert cached.stats.evaluation_hits > 0


def test_verify_decider_verdicts_identical_across_backends():
    cases = [
        (ProperColouringDecider(k=None), ProperColouringProperty(k=None)),
        (
            RegularPathProperty("ab", ["aa"], name="no-aa").decider(),
            RegularPathProperty("ab", ["aa"], name="no-aa"),
        ),
    ]
    for decider, prop in cases:
        reports = [
            verify_decider(decider, prop, samples=2, seed=3, engine=e) for e in _engines()
        ]
        baseline = reports[0]
        for report in reports[1:]:
            assert report.correct == baseline.correct
            assert report.instances_checked == baseline.instances_checked
            assert report.assignments_checked == baseline.assignments_checked
            assert len(report.counter_examples) == len(baseline.counter_examples)


def test_decide_accepts_engine_names():
    graph = cycle_graph(5, label="c")
    ids = sequential_assignment(graph)
    answers = {decide(ID_ALG, graph, ids, engine=name) for name in ("direct", "synchronous", "cached")}
    assert len(answers) == 1
    with pytest.raises(AlgorithmError):
        resolve_engine("warp-drive")


def test_neighbourhood_keys_match_across_backends():
    graph = grid_graph(3, 4, label="g")
    direct_keys = neighbourhood_keys(graph, 2)
    cached_keys = neighbourhood_keys(graph, 2, engine=CachedEngine())
    assert direct_keys == cached_keys


# ---------------------------------------------------------------------- #
# Stable per-node seeding
# ---------------------------------------------------------------------- #


RAND_ALG = FunctionRandomisedAlgorithm(
    lambda view, rng: rng.randrange(2**32), radius=1, name="noise"
)


def test_derive_node_seed_is_a_fixed_pure_function():
    # splitmix64 reference stream from seed 0; must never drift, because
    # recorded experiment outputs depend on it.
    assert derive_node_seed(0, 0) == 16294208416658607535
    assert derive_node_seed(0, 1) == 7960286522194355700
    assert derive_node_seed(0, 0) == derive_node_seed(0, 0)
    assert derive_node_seed(0, 0) != derive_node_seed(1, 0)
    assert derive_node_seed(0, 0) != derive_node_seed(0, 1)


def test_randomised_runs_are_reproducible_and_backend_independent():
    graph = random_graph(9, 0.4, seed=5, label=("s", 1))
    a = run_randomised_algorithm(RAND_ALG, graph, seed=42)
    b = run_randomised_algorithm(RAND_ALG, graph, seed=42)
    assert a == b
    c = run_randomised_algorithm(RAND_ALG, graph, seed=42, engine=CachedEngine())
    assert a == c
    # Distinct nodes get independent streams.
    assert len(set(a.values())) > 1
    assert run_randomised_algorithm(RAND_ALG, graph, seed=43) != a


def test_node_seeds_do_not_depend_on_pythonhashseed():
    script = (
        "import sys; sys.path.insert(0, 'src')\n"
        "from repro.graphs import path_graph\n"
        "from repro.local_model import FunctionRandomisedAlgorithm, run_randomised_algorithm\n"
        "alg = FunctionRandomisedAlgorithm(lambda v, r: r.randrange(2**32), radius=1, name='n')\n"
        "g = path_graph(6, label='x')\n"
        "print(sorted(run_randomised_algorithm(alg, g, seed=7).items()))\n"
    )
    outputs = []
    for hash_seed in ("1", "271828"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------- #
# Randomised batches
# ---------------------------------------------------------------------- #


def _noise(view, rng):
    return rng.randrange(2**32)


class _IdSaltedNoise(RandomisedLocalAlgorithm):
    """A randomised algorithm in the full LOCAL model: coins salted by identifiers."""

    radius = 1

    @property
    def uses_identifiers(self):
        return True

    def evaluate(self, view, rng):
        return (sum(view.identifiers()), rng.randrange(2**32))


#: Module-level, so both pickle and the parallel batches reach the pool.
OBL_NOISE = FunctionRandomisedAlgorithm(_noise, radius=1, name="noise-r1")
ID_NOISE = _IdSaltedNoise(name="id-salted-noise")

BATCH_ENGINES = {
    "direct": DirectEngine,
    "synchronous": SynchronousEngine,
    "cached": CachedEngine,
    "parallel-2": lambda: ParallelEngine(workers=2, adaptive=False),
}


@pytest.mark.parametrize("name", sorted(BATCH_ENGINES))
def test_randomised_batches_equal_per_job_runs(name):
    # A batch produces the views of a run of jobs on one input once; every
    # job's outputs must still equal its own run_randomised, on one
    # repeated graph, on interleaved graphs, and under distinct assignments.
    engine = BATCH_ENGINES[name]()
    a = random_graph(9, 0.4, seed=5, label=("s", 1))
    b = grid_graph(3, 3, label="g")
    ids_1 = random_assignment(a, rng=random.Random(1))
    ids_2 = random_assignment(a, rng=random.Random(2))
    cases = [
        (OBL_NOISE, [(a, None, seed) for seed in range(4)]),
        (OBL_NOISE, [(a, None, 10), (b, None, 11), (a, None, 12)]),
        (OBL_NOISE, [(a, ids_1, 20), (a, ids_2, 21), (a, ids_1, 22)]),
        (ID_NOISE, [(a, ids_1, 30), (a, ids_1, 31), (a, ids_2, 32), (a, ids_2, 33), (a, ids_1, 34)]),
    ]
    oracle = DirectEngine()
    for algorithm, jobs in cases:
        per_job = [engine.run_randomised(algorithm, graph, ids, seed) for graph, ids, seed in jobs]
        assert engine.run_randomised_many(algorithm, jobs) == per_job
        assert per_job == [oracle.run_randomised(algorithm, graph, ids, seed) for graph, ids, seed in jobs]
    # The salted outputs really depend on the assignment...
    assert [out[0] for out in per_job[0].values()] != [out[0] for out in per_job[2].values()]
    # ...and the parallel batches really ran on the pool.
    if name.startswith("parallel"):
        assert engine.stats.extra["parallel_batches"] == len(cases)


def test_acceptance_estimate_extracts_each_ball_once():
    # Four trials on one graph share its views: n extractions, not 4n.
    graph = random_graph(9, 0.4, seed=5, label=("s", 1))
    engine = DirectEngine()
    estimate = estimate_acceptance_probability(
        FunctionRandomisedAlgorithm(lambda view, rng: YES, radius=1, name="yes"), graph, trials=4, engine=engine
    )
    assert estimate.trials == estimate.accepts == 4
    assert engine.stats.ball_extractions == graph.num_nodes()
    assert engine.stats.evaluations == 4 * graph.num_nodes()


# ---------------------------------------------------------------------- #
# assignments_for dedup regression
# ---------------------------------------------------------------------- #


class _EqualReprNode:
    """Hashable node whose repr collides with every other instance."""

    def __repr__(self):
        return "node"


def test_assignments_for_distinguishes_nodes_with_equal_reprs():
    a, b = _EqualReprNode(), _EqualReprNode()
    graph = LabelledGraph([a, b], [(a, b)])
    assignments = assignments_for(graph, exhaustive_pool=[0, 1])
    # sequential 0..1 plus both injective pool assignments; the two pool
    # assignments differ only in which *node* gets which identifier, which a
    # repr-based dedup key used to conflate.
    assert len(assignments) == 2
    assert assignments[0] != assignments[1]


# ---------------------------------------------------------------------- #
# Engine plumbing details
# ---------------------------------------------------------------------- #


def test_simulate_algorithm_accepts_engine_and_nodes_subset():
    graph = grid_graph(3, 3, label="g")
    ids = sequential_assignment(graph)
    cached = CachedEngine()
    full, _ = simulate_algorithm(ID_ALG, graph, ids)
    subset_nodes = list(graph.nodes())[:4]
    subset, _ = simulate_algorithm(ID_ALG, graph, ids, nodes=subset_nodes, engine=cached)
    assert subset == {v: full[v] for v in subset_nodes}


def test_cached_engine_does_not_memoise_wl_fallback_keys():
    # Non-isomorphic stars-of-cycles: an apex over one 10-cycle versus an
    # apex over two 5-cycles.  Both apex balls have a >8-node colour class,
    # so their oblivious keys take the collision-prone "wl-fallback" form
    # and may compare equal, and their interned keys exceed the
    # search budget; the caching engine must not serve one view's output
    # for the other.
    def ring_graph(parts):
        nodes = ["apex"]
        edges = []
        for tag, size in enumerate(parts):
            ring = [(tag, i) for i in range(size)]
            nodes.extend(ring)
            edges.extend((ring[i], ring[(i + 1) % size]) for i in range(size))
            edges.extend(("apex", r) for r in ring)
        return LabelledGraph(nodes, edges, {v: "x" for v in nodes})

    from repro.engine.interned import interned_view_key
    from repro.graphs import extract_neighbourhood

    one_ring = extract_neighbourhood(ring_graph([10]), "apex", 1)
    two_rings = extract_neighbourhood(ring_graph([5, 5]), "apex", 1)
    assert one_ring.oblivious_key()[0] == "wl-fallback"
    # The same apex views as the caching engine itself produces them
    # (interned payloads), whose keys give up on the 10-node class.
    interned_one = CachedEngine().views(ring_graph([10]), 1)["apex"]
    interned_two = CachedEngine().views(ring_graph([5, 5]), 1)["apex"]
    assert interned_view_key(interned_one, use_ids=False) is None
    assert interned_view_key(interned_two, use_ids=False) is None

    def neighbours_form_one_ring(view):
        ring = [v for v in view.nodes() if v != view.center]
        comp_graph = LabelledGraph(
            ring,
            [(u, w) for u in ring for w in view.graph.neighbours(u) if w != view.center and repr(u) < repr(w)],
            {v: "x" for v in ring},
        )
        return YES if comp_graph.is_connected() else NO

    alg = FunctionIdObliviousAlgorithm(neighbours_form_one_ring, radius=1, name="one-ring")
    for yes_view, no_view in ((one_ring, two_rings), (interned_one, interned_two)):
        cached = CachedEngine()
        assert cached.evaluate_view(alg, yes_view) == YES
        assert cached.evaluate_view(alg, no_view) == NO  # would be YES if memoised on the fallback key
        assert cached.stats.evaluation_hits == 0


def test_cached_engine_raises_graph_error_for_unknown_node():
    from repro.errors import GraphError

    graph = cycle_graph(5, label="c")
    with pytest.raises(GraphError):
        CachedEngine().run(OBL_ALG, graph, nodes=["not-a-node"])


def test_lru_store_bounds_and_counts():
    store = LRUStore(maxsize=2)
    store.put("a", 1)
    store.put("b", 2)
    assert store.get("a") == 1  # refreshes "a"
    store.put("c", 3)  # evicts "b", the least recently used
    assert store.get("b") is None
    assert store.get("a") == 1 and store.get("c") == 3
    assert store.evictions == 1
    assert store.hits == 3 and store.misses == 1
    first = store.intern(("k", 1))
    assert store.intern(("k", 1)) is first
