"""Unit tests for repro.graphs.labelled_graph."""

import random

import pytest

from repro.errors import GraphError, LabelError
from repro.graphs import LabelledGraph, cycle_graph, grid_graph, path_graph
from repro.workloads import bundled_families


def test_basic_construction_and_accessors():
    g = LabelledGraph([0, 1, 2], [(0, 1), (1, 2)], {0: "a", 1: "b"})
    assert g.num_nodes() == 3
    assert g.num_edges() == 2
    assert g.label(0) == "a"
    assert g.label(2) is None
    assert g.degree(1) == 2
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    assert set(g.neighbours(1)) == {0, 2}
    assert 1 in g and 5 not in g


def test_duplicate_nodes_rejected():
    with pytest.raises(GraphError):
        LabelledGraph([0, 0], [])


def test_self_loops_rejected():
    with pytest.raises(GraphError):
        LabelledGraph([0, 1], [(0, 0)])


def test_edges_must_reference_known_nodes():
    with pytest.raises(GraphError):
        LabelledGraph([0, 1], [(0, 2)])


def test_labels_for_unknown_nodes_rejected():
    with pytest.raises(LabelError):
        LabelledGraph([0], [], {1: "x"})


def test_parallel_edges_collapse():
    g = LabelledGraph([0, 1], [(0, 1), (1, 0)])
    assert g.num_edges() == 1


def test_equality_and_hash():
    g1 = LabelledGraph([0, 1], [(0, 1)], {0: "a"})
    g2 = LabelledGraph([0, 1], [(1, 0)], {0: "a"})
    g3 = LabelledGraph([0, 1], [(0, 1)], {0: "b"})
    assert g1 == g2
    assert hash(g1) == hash(g2)
    assert g1 != g3


def test_bfs_distances_and_ball():
    g = path_graph(6)
    dist = g.bfs_distances(0)
    assert dist == {i: i for i in range(6)}
    assert g.ball_nodes(2, 1) == frozenset({1, 2, 3})
    assert g.ball_nodes(0, 0) == frozenset({0})
    with pytest.raises(GraphError):
        g.ball_nodes(0, -1)


def test_connectivity_and_components():
    g = LabelledGraph([0, 1, 2, 3], [(0, 1), (2, 3)])
    assert not g.is_connected()
    comps = g.connected_components()
    assert sorted(sorted(c) for c in comps) == [[0, 1], [2, 3]]
    assert cycle_graph(5).is_connected()


def test_diameter():
    assert path_graph(5).diameter() == 4
    assert cycle_graph(6).diameter() == 3
    with pytest.raises(GraphError):
        LabelledGraph([0, 1], []).diameter()


def test_induced_subgraph_preserves_labels_and_edges():
    g = grid_graph(3, 3, label="x")
    sub = g.induced_subgraph([(0, 0), (0, 1), (1, 1)])
    assert sub.num_nodes() == 3
    assert sub.num_edges() == 2
    assert all(sub.label(v) == "x" for v in sub.nodes())


def _named_variants(graph):
    """``graph`` with distinct labels, under its own, string and tuple node names."""
    labelled = graph.map_labels(lambda v, lab: ("lab", repr(v)))
    yield labelled
    yield labelled.relabel_nodes({v: f"s{v!r}" for v in labelled.nodes()})
    yield labelled.relabel_nodes({v: ("t", repr(v)) for v in labelled.nodes()})


@pytest.mark.parametrize("family", bundled_families(), ids=lambda fam: fam.name)
def test_induced_subgraph_equals_the_validating_constructor(family):
    # induced_subgraph restricts the parent's adjacency without
    # re-validating it; the result must equal the validating constructor
    # on the same nodes, in the order the subset rule picks: the parent's
    # order from a quarter of the graph up, the subset's own order below.
    rng = random.Random(family.name)
    for graph in _named_variants(family.build(max(family.sizes), 7)):
        nodes = graph.nodes()
        n = len(nodes)
        for size in sorted({0, 1, max(0, n // 4 - 1), n // 4, -(-n // 4), n // 2, n}):
            subset = rng.sample(nodes, min(size, n))
            sub = graph.induced_subgraph(subset)
            keep = set(subset)
            ordered = [v for v in nodes if v in keep] if len(keep) * 4 >= n else list(keep)
            edges = [(u, w) for u, w in graph.edges() if u in keep and w in keep]
            expected = LabelledGraph(ordered, edges, {v: graph.label(v) for v in keep})
            assert sub == expected and hash(sub) == hash(expected)
            assert sub.nodes() == expected.nodes() == tuple(ordered)
            assert all(sub.neighbours(v) == expected.neighbours(v) for v in ordered)
            assert all(isinstance(sub.neighbours(v), frozenset) for v in ordered)
            assert sub.num_edges() == len(edges)
        with pytest.raises(GraphError, match="not in the graph"):
            graph.induced_subgraph([nodes[0], "no-such-node"])


def test_relabel_nodes_roundtrip():
    g = path_graph(4, label="p")
    mapping = {i: f"v{i}" for i in range(4)}
    h = g.relabel_nodes(mapping)
    assert h.has_edge("v0", "v1")
    assert h.label("v2") == "p"
    with pytest.raises(GraphError):
        g.relabel_nodes({i: 0 for i in range(4)})


def test_with_labels_and_map_labels():
    g = path_graph(3)
    h = g.with_labels({0: 7})
    assert h.label(0) == 7 and g.label(0) is None
    k = h.map_labels(lambda v, lab: (v, lab))
    assert k.label(0) == (0, 7)


def test_add_nodes_and_edges_is_nonmutating():
    g = path_graph(2)
    h = g.add_nodes_and_edges(["x"], [("x", 0)], {"x": "new"})
    assert h.num_nodes() == 3 and g.num_nodes() == 2
    assert h.has_edge("x", 0)
    with pytest.raises(GraphError):
        g.add_nodes_and_edges([0])


def test_disjoint_union():
    g = path_graph(2, label="a")
    h = cycle_graph(3, label="b")
    u = g.disjoint_union(h)
    assert u.num_nodes() == 5
    assert u.num_edges() == 1 + 3
    assert not u.is_connected()


def test_networkx_roundtrip():
    g = cycle_graph(5, label="c")
    nxg = g.to_networkx()
    back = LabelledGraph.from_networkx(nxg)
    assert back == g
