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

import json

from hypothesis import given, settings, strategies as st
import pytest

from repro.decision import FunctionProperty, InstanceFamily, verify_decider
from repro.engine import CachedEngine, DirectEngine, ParallelEngine
from repro.engine.interned import intern_graph, interned_id_free_views, interned_view_key
from repro.errors import GraphError
from repro.graphs import LabelledGraph, cycle_graph, random_graph, sequential_assignment
from repro.graphs.neighbourhood import extract_neighbourhood
from repro.local_model import NO, YES, FunctionAlgorithm, FunctionIdObliviousAlgorithm
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
    # The bytes keys must induce exactly the same equivalence classes as
    # the dict-based canonical tuples — across views of different graphs.
    views = list(interned_id_free_views(g1, radius).values())
    views += list(interned_id_free_views(g2, radius).values())
    keyed = [(view, interned_view_key(view, use_ids=False)) for view in views]
    keyed = [(view, key) for view, key in keyed if key is not None]
    for i, (view_a, key_a) in enumerate(keyed):
        for view_b, key_b in keyed[i + 1 :]:
            assert (key_a == key_b) == (view_a.oblivious_key() == view_b.oblivious_key())


@given(small_graphs(), st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=9))
@settings(max_examples=30, deadline=None)
def test_interned_id_keys_partition_like_structure_keys(g, radius, start):
    ids = sequential_assignment(g, start=start)
    views = [view.with_ids(ids) for view in interned_id_free_views(g, radius).values()]
    keyed = [(view, interned_view_key(view, use_ids=True)) for view in views]
    keyed = [(view, key) for view, key in keyed if key is not None]
    for i, (view_a, key_a) in enumerate(keyed):
        for view_b, key_b in keyed[i + 1 :]:
            assert (key_a == key_b) == (view_a.structure_key() == view_b.structure_key())


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
