"""Equivalence of the interned-graph core and the per-node dict oracle.

The interned core (:mod:`repro.engine.interned`) is the only production
path for ball extraction and canonical view keys; the per-node dict path
(:func:`extract_neighbourhood`, :meth:`Neighbourhood.oblivious_key`,
per-job :meth:`DirectEngine.run`) is the paper-literal oracle.  These
tests pin the contract that makes that sound: **both paths are observably
identical** — same views, same canonical-key partitions, same verdicts and
counterexamples from ``verify_decider``, and byte-identical cross-run
store digests — across random graphs (hypothesis), all 12 bundled
workload graph families, and parallel worker counts 1/2/4.
"""

import hashlib
import json
import pickle
import random

from hypothesis import given, settings, strategies as st
import pytest

from repro.decision import FunctionProperty, InstanceFamily, assignments_for, verify_decider
from repro.engine import CachedEngine, DirectEngine, ParallelEngine
from repro.engine.interned import intern_graph, interned_id_free_views, interned_view_key
from repro.errors import GraphError, IdentifierError
from repro.graphs import (
    BoundedIdentifierSpace,
    IdAssignment,
    LabelledGraph,
    UnboundedIdentifierSpace,
    cycle_graph,
    path_graph,
    random_assignment,
    random_graph,
    sequential_assignment,
)
from repro.graphs.neighbourhood import extract_neighbourhood
from repro.local_model import NO, YES, FunctionAlgorithm, FunctionIdObliviousAlgorithm, LocalAlgorithm
from repro.workloads.families import bundled_families


class DictDirectEngine(DirectEngine):
    """The per-job dict oracle: every job runs through per-node :meth:`DirectEngine.run`."""

    def _run_many_core(self, algorithm, jobs):
        return [DirectEngine.run(self, algorithm, graph, ids) for graph, ids in jobs]


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    p = draw(st.floats(min_value=0.0, max_value=1.0))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    label = draw(st.sampled_from(["a", "b", None, 3]))
    return random_graph(n, p, seed=seed, label=label)


# ---------------------------------------------------------------------- #
# Ball extraction equivalence (property-based)
# ---------------------------------------------------------------------- #


@given(small_graphs(), st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_interned_views_match_dict_extraction(g, radius):
    views = interned_id_free_views(g, radius)
    assert set(views) == set(g.nodes())
    for v in g.nodes():
        ref = extract_neighbourhood(g, v, radius)
        got = views[v]
        assert got.center == ref.center and got.radius == ref.radius
        assert got.distances == ref.distances
        assert set(got.graph.nodes()) == set(ref.graph.nodes())
        assert {frozenset(e) for e in got.graph.edges()} == {frozenset(e) for e in ref.graph.edges()}
        assert got.graph.labels() == ref.graph.labels()


@given(small_graphs(), small_graphs(), st.integers(min_value=0, max_value=2))
@settings(max_examples=30, deadline=None)
def test_interned_canonical_keys_partition_like_dict_keys(g1, g2, radius):
    # The interned keys must induce exactly the same equivalence classes as
    # the dict-based canonical tuples — across views of different graphs.
    views = list(interned_id_free_views(g1, radius).values())
    views += list(interned_id_free_views(g2, radius).values())
    keyed = [(view, interned_view_key(view, use_ids=False)) for view in views]
    keyed = [(view, key) for view, key in keyed if key is not None]
    for i, (view_a, key_a) in enumerate(keyed):
        for view_b, key_b in keyed[i + 1 :]:
            assert (key_a == key_b) == (view_a.oblivious_key() == view_b.oblivious_key())


@given(small_graphs(), st.integers(min_value=0, max_value=2), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_interned_keys_survive_node_renaming(g, radius, rnd):
    # The same graph with renamed nodes inserted in shuffled order: every
    # view is isomorphic to its counterpart but lists its nodes in another
    # order, so a key that depended on that order would differ.
    order = list(g.nodes())
    rnd.shuffle(order)
    name = {v: ("renamed", i) for i, v in enumerate(order)}
    edges = [(name[u], name[w]) for u, w in g.edges()]
    rnd.shuffle(edges)
    h = LabelledGraph([name[v] for v in order], edges, {name[v]: g.label(v) for v in order})
    ids_g = sequential_assignment(g)
    ids_h = IdAssignment({name[v]: i for v, i in ids_g.items()})
    views_g = interned_id_free_views(g, radius)
    views_h = interned_id_free_views(h, radius)
    for v in g.nodes():
        view_g, view_h = views_g[v], views_h[name[v]]
        assert interned_view_key(view_g, use_ids=False) == interned_view_key(view_h, use_ids=False)
        assert interned_view_key(view_g.with_ids(ids_g), use_ids=True) == interned_view_key(
            view_h.with_ids(ids_h), use_ids=True
        )


@given(small_graphs(), small_graphs(), st.integers(min_value=0, max_value=2), st.sampled_from([0, 2**63]))
@settings(max_examples=30, deadline=None)
def test_interned_id_keys_partition_like_structure_keys(g1, g2, radius, start):
    # Both graphs draw identifiers from the same range, so views of
    # different graphs can carry equal identifiers and must then get equal
    # keys exactly when they are isomorphic.  ``start=2**63`` is the
    # unbounded (¬B) regime: identifiers beyond any fixed-width integer.
    views = []
    for g in (g1, g2):
        ids = sequential_assignment(g, start=start)
        views += [view.with_ids(ids) for view in interned_id_free_views(g, radius).values()]
    keyed = [(view, interned_view_key(view, use_ids=True)) for view in views]
    # Identifier views need no search, so every interned one gets a key.
    assert all(view.interned is not None and key is not None for view, key in keyed)
    for i, (view_a, key_a) in enumerate(keyed):
        for view_b, key_b in keyed[i + 1 :]:
            assert (key_a == key_b) == (view_a.structure_key() == view_b.structure_key())


def test_unbounded_identifiers_are_memoised_end_to_end():
    # Model (¬B): identifiers at and beyond 2**63.  Cycles and paths with
    # the same sequential identifiers share their interior views, so the
    # per-view memo must serve them across graphs — with outputs identical
    # to the unmemoised direct engine.
    alg = FunctionAlgorithm(
        lambda view: YES if view.max_visible_identifier() % 3 else NO, radius=1, name="big-id-mod-3"
    )
    cached, direct = CachedEngine(), DirectEngine()
    for start in (2**63, 2**64 + 5):
        for graph in (cycle_graph(9, label="x"), path_graph(9, label="x"), path_graph(12, label="x")):
            ids = sequential_assignment(graph, start=start)
            assert cached.run(alg, graph, ids) == direct.run(alg, graph, ids)
    assert cached.stats.evaluation_hits > 0


# ---------------------------------------------------------------------- #
# Engine-level equivalence: all 12 families × workers 1/2/4
# ---------------------------------------------------------------------- #

# "Every node has degree at most 2" — genuinely locally decidable, so one
# radius-1 oblivious decider is correct on every family (cycles, paths and
# degenerate families are yes-instances; stars, grids, cliques are no).
_DEGREE_PROP = FunctionProperty(
    lambda g: all(g.degree(v) <= 2 for v in g.nodes()), name="max-degree-2"
)


def _degree_decider():
    return FunctionIdObliviousAlgorithm(
        lambda view: YES if view.center_degree() <= 2 else NO, radius=1, name="deg<=2"
    )


def _id_parity_trap():
    # Deliberately wrong (id-dependent) decider: produces counterexamples
    # on odd-id assignments, exercising the failure-recording paths.
    return FunctionAlgorithm(
        lambda view: YES if view.center_id() % 2 == 0 else NO, radius=1, name="id-parity-trap"
    )


def _family_instances(family):
    return [family.build(size, 7) for size in family.ladder(quick=True)]


def _instance_family(family):
    instances = _family_instances(family)
    yes = [g for g in instances if _DEGREE_PROP.contains(g)]
    no = [g for g in instances if not _DEGREE_PROP.contains(g)]
    return InstanceFamily(
        name=f"interned-equivalence-{family.name}", yes_instances=yes, no_instances=no
    )


def _report_fingerprint(report):
    return (
        report.correct,
        report.instances_checked,
        report.assignments_checked,
        [ce.as_dict() for ce in report.counter_examples],
    )


def _engines():
    yield "dict-direct", DictDirectEngine()
    yield "interned-direct", DirectEngine()
    yield "cached", CachedEngine()
    for workers in (1, 2, 4):
        yield f"parallel-{workers}", ParallelEngine(workers=workers, adaptive=False)


@pytest.mark.parametrize("family", bundled_families(), ids=lambda f: f.name)
def test_family_verdicts_agree_across_engines_and_workers(family):
    instances = _instance_family(family)
    for decider in (_degree_decider(), _id_parity_trap()):
        reference = None
        for name, engine in _engines():
            report = verify_decider(
                decider, _DEGREE_PROP, family=instances, samples=2, seed=3, engine=engine
            )
            fingerprint = _report_fingerprint(report)
            if reference is None:
                reference = fingerprint
            else:
                assert fingerprint == reference, f"{family.name}/{decider.name}: {name} diverged"


# ---------------------------------------------------------------------- #
# Cross-run store digests
# ---------------------------------------------------------------------- #


def _store_contents(path):
    entries = {}
    for segment in path.glob("*.jsonl"):
        for line in segment.read_text().splitlines():
            record = json.loads(line)
            entries[record["k"]] = record["v"]
    return entries


def test_store_digests_identical_across_paths(tmp_path):
    family = _instance_family(bundled_families()[0])
    paths = {"dict": tmp_path / "dict", "interned": tmp_path / "interned"}
    stores = {}
    for name, engine_class in (("dict", DictDirectEngine), ("interned", DirectEngine)):
        engine = engine_class().with_store(paths[name])
        for decider in (_degree_decider(), _id_parity_trap()):
            verify_decider(decider, _DEGREE_PROP, family=family, samples=2, seed=3, engine=engine)
        engine.shutdown()
        stores[name] = _store_contents(paths[name])
    assert stores["dict"], "sweep persisted nothing"
    assert stores["dict"] == stores["interned"]


# ---------------------------------------------------------------------- #
# Edge cases: empty graphs, large graphs, negative radii
# ---------------------------------------------------------------------- #


def test_empty_graph_interns_to_no_views():
    assert intern_graph(LabelledGraph([])).n == 0
    assert interned_id_free_views(LabelledGraph([]), 1) == {}
    with pytest.raises(GraphError):  # the radius is checked before interning
        interned_id_free_views(LabelledGraph([]), -1)


def test_large_cycle_interns_and_matches_dict_oracle():
    # A large sparse graph: interning has no node cap.
    g = cycle_graph(4096, label="big")
    assert intern_graph(g).n == 4096
    jobs = [(g, sequential_assignment(g))]
    for decider in (_degree_decider(), _id_parity_trap()):
        reference = DictDirectEngine().run_many(decider, jobs)
        assert DirectEngine().run_many(decider, jobs) == reference
        assert CachedEngine().run_many(decider, jobs) == reference


@pytest.mark.parametrize("size", [5, 4096])
def test_negative_radius_raises_on_every_engine(size):
    g = cycle_graph(size, label=f"neg{size}")
    for engine in (DirectEngine(), CachedEngine()):
        with pytest.raises(GraphError):
            engine.views(g, -1)


def test_run_many_id_aware_matches_dict_path():
    g = cycle_graph(8, label="w")
    ids_a = sequential_assignment(g)
    ids_b = sequential_assignment(g, start=5)
    algorithm = FunctionAlgorithm(
        lambda view: YES if view.max_visible_identifier() % 3 == 0 else NO, radius=2, name="mod3"
    )
    jobs = [(g, ids_a), (g, ids_b)]
    assert DirectEngine().run_many(algorithm, jobs) == DictDirectEngine().run_many(algorithm, jobs)


# ---------------------------------------------------------------------- #
# The id sweep: lazy restrictions, coverage checks, validation, assignments
# ---------------------------------------------------------------------- #


class _ViewRecorder(LocalAlgorithm):
    """An id-using radius-``r`` algorithm that keeps every view it is shown."""

    def __init__(self, radius):
        super().__init__(radius=radius, name=f"recorder-{radius}")
        self.views = []

    def evaluate(self, view):
        self.views.append(view)
        return YES


def _assert_same_restriction(view, ids):
    """``view.ids`` behaves exactly like the eager ``ids.restrict(ball nodes)``.

    Equality, hashing and pickling materialise a restriction, so each is
    checked on one that nothing has materialised yet.
    """
    expected = ids.restrict(view.nodes())

    def fresh():
        return view.with_ids(ids).ids

    assert pickle.loads(pickle.dumps(view.ids)) == expected
    assert fresh() == expected and expected == fresh()
    assert hash(fresh()) == hash(expected)
    got = fresh()
    assert len(got) == len(expected) == len(view.nodes())
    assert sorted(got.items(), key=repr) == sorted(expected.items(), key=repr)


@pytest.mark.parametrize("family", bundled_families(), ids=lambda f: f.name)
def test_lazily_restricted_view_ids_equal_eager_restriction(family):
    rng = random.Random(family.name)
    for graph in _family_instances(family):
        for radius in (1, 2):
            ids = random_assignment(graph, rng=rng)
            recorder = _ViewRecorder(radius)
            DirectEngine().run_many(recorder, [(graph, ids)])
            cached = CachedEngine().views(graph, radius, ids)
            assert len(recorder.views) == len(cached) == graph.num_nodes()
            for view in recorder.views + list(cached.values()):
                _assert_same_restriction(view, ids)
                outside = [v for v in graph.nodes() if v not in view.distances]
                for v in outside[:2]:
                    assert v not in view.ids
                    with pytest.raises(KeyError):
                        view.ids[v]


def test_assignment_missing_a_node_is_rejected_before_evaluation():
    g = cycle_graph(6, label="gap")
    partial = IdAssignment({v: i for i, v in enumerate(g.nodes()) if v != 3})
    recorder = _ViewRecorder(1)
    with pytest.raises(IdentifierError):
        DirectEngine().run_many(recorder, [(g, sequential_assignment(g)), (g, partial)])
    assert len(recorder.views) == g.num_nodes()  # the first job ran, the second not at all
    with pytest.raises(IdentifierError):
        CachedEngine().views(g, 1, partial)
    with pytest.raises(IdentifierError):
        interned_id_free_views(g, 1)[2].with_ids(partial)  # ball {1, 2, 3}
    assert interned_id_free_views(g, 1)[0].with_ids(partial).ids == {5: 5, 0: 0, 1: 1}


def _seed_validation(mapping):
    """The per-item validation loop IdAssignment used before its whole-map check."""
    seen = {}
    for v, i in mapping.items():
        if not isinstance(i, int) or isinstance(i, bool):
            raise IdentifierError(f"identifier of node {v!r} must be an int, got {i!r}")
        if i < 0:
            raise IdentifierError(f"identifier of node {v!r} must be non-negative, got {i}")
        if i in seen:
            raise IdentifierError(
                f"identifier {i} assigned to both {seen[i]!r} and {v!r}; assignments must be one-to-one"
            )
        seen[i] = v
    return dict(mapping)


class _IntSubclass(int):
    pass


_identifier_values = st.one_of(
    st.integers(min_value=-3, max_value=12),
    st.booleans(),
    st.integers(min_value=0, max_value=12).map(_IntSubclass),
    st.sampled_from([1.0, "1", None, 2**70, -(2**70)]),
)


@given(st.dictionaries(st.integers(min_value=0, max_value=20), _identifier_values, max_size=8))
@settings(max_examples=300, deadline=None)
def test_id_assignment_accepts_and_rejects_like_the_item_loop(mapping):
    try:
        expected = _seed_validation(mapping)
    except IdentifierError as exc:
        with pytest.raises(IdentifierError) as caught:
            IdAssignment(mapping)
        assert str(caught.value) == str(exc)
    else:
        ids = IdAssignment(mapping)
        assert ids == expected and list(ids.items()) == list(expected.items())


#: sha256 of every assignment ``assignments_for`` produces for the fixed
#: graphs, spaces and seeds of :func:`_assignments_digest`, as recorded when
#: duplicates were keyed by the whole assignment: keying them by identifier
#: tuple must change neither the draws nor which duplicates are dropped.
_ASSIGNMENTS_DIGEST = "cdb8f064874c48f57989ef5ee5d8683475631a8f5a914edc1a99b626446d425e"


def _assignments_digest():
    digest = hashlib.sha256()
    graphs = [family.build(size, 7) for family in bundled_families() for size in family.ladder(quick=True)[:2]]
    for graph in graphs:
        for space in (UnboundedIdentifierSpace(), BoundedIdentifierSpace()):
            for seed in (0, 1, 5):
                for a in assignments_for(graph, id_space=space, samples=4, seed=seed):
                    digest.update(repr(list(a.items())).encode())
    for a in assignments_for(path_graph(3), exhaustive_pool=range(4)):
        digest.update(repr(list(a.items())).encode())
    return digest.hexdigest()


def test_assignments_for_output_is_unchanged_for_fixed_seeds():
    assert _assignments_digest() == _ASSIGNMENTS_DIGEST
