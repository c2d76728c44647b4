"""Maximal matching, encoded as a labelled graph property.

A matching is encoded in the node labels: each matched node's label names
the neighbour it is matched to (so an edge ``{u, v}`` is in the matching iff
``x(u) = ("matched", id-of-v)`` — since node names are not visible to local
algorithms, the label instead records the *matched neighbour's own tag*).
To keep the encoding purely local we use the convention that both endpoints
of a matched edge carry the same randomly chosen edge tag; unmatched nodes
carry ``None``.

Properly encoded maximal matchings are locally checkable with horizon 2 and
no identifiers:

* a matched node rejects unless exactly one neighbour carries the same tag;
* an unmatched node rejects if it has an unmatched neighbour (maximality).
"""

from __future__ import annotations

from typing import Dict, Iterator

from ..decision.property import Property
from ..graphs.generators import cycle_graph, path_graph
from ..graphs.labelled_graph import LabelledGraph, Node
from ..graphs.neighbourhood import Neighbourhood
from ..local_model.algorithm import IdObliviousAlgorithm
from ..local_model.outputs import NO, YES, Verdict

__all__ = ["MaximalMatchingProperty", "MaximalMatchingDecider", "greedy_matching", "encode_matching"]


def encode_matching(graph: LabelledGraph, matching: Dict[Node, Node]) -> LabelledGraph:
    """Label a graph with a matching given as a symmetric partner map.

    Each matched pair receives a shared ``("matched", tag)`` label, where the
    tag is derived deterministically from the pair's position so that
    distinct matched edges sharing an endpoint neighbourhood get distinct
    tags with overwhelming likelihood in the generated families.
    """
    labels: Dict[Node, object] = {v: None for v in graph.nodes()}
    tag = 0
    seen = set()
    for u, v in matching.items():
        if u in seen or v in seen:
            continue
        seen.add(u)
        seen.add(v)
        labels[u] = ("matched", tag)
        labels[v] = ("matched", tag)
        tag += 1
    return graph.with_labels(labels)


class MaximalMatchingProperty(Property):
    """The property "the labels encode a maximal matching"."""

    name = "maximal-matching"

    def contains(self, graph: LabelledGraph) -> bool:
        labels = graph.labels()
        matched_nodes = {}
        for v, lab in labels.items():
            if lab is None:
                continue
            if not (isinstance(lab, tuple) and len(lab) == 2 and lab[0] == "matched"):
                return False
            matched_nodes[v] = lab
        # Every matched node must have exactly one neighbour with the same tag,
        # and no non-neighbour conflicts within its neighbourhood are relevant.
        for v, lab in matched_nodes.items():
            partners = [u for u in graph.neighbours(v) if labels[u] == lab]
            if len(partners) != 1:
                return False
        # Maximality: no edge with both endpoints unmatched.
        for (u, v) in graph.edges():
            if labels[u] is None and labels[v] is None:
                return False
        return True

    def yes_instances(self) -> Iterator[LabelledGraph]:
        yield encode_matching(path_graph(4), {0: 1, 1: 0, 2: 3, 3: 2})
        yield encode_matching(cycle_graph(6), {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4})
        yield encode_matching(path_graph(3), {0: 1, 1: 0})
        yield encode_matching(cycle_graph(5), {0: 1, 1: 0, 2: 3, 3: 2})

    def no_instances(self) -> Iterator[LabelledGraph]:
        # Both endpoints unmatched on an edge (not maximal).
        yield path_graph(4).with_labels({0: None, 1: None, 2: None, 3: None})
        # A node claims a match but no neighbour shares the tag.
        yield path_graph(3).with_labels({0: ("matched", 0), 1: None, 2: None})
        # Two neighbours share the same tag with a third (not a matching).
        yield path_graph(3).with_labels({0: ("matched", 0), 1: ("matched", 0), 2: ("matched", 0)})


class MaximalMatchingDecider(IdObliviousAlgorithm):
    """Horizon-1 Id-oblivious decider for encoded maximal matchings."""

    def __init__(self) -> None:
        super().__init__(radius=1, name="matching-decider")

    def evaluate(self, view: Neighbourhood) -> Verdict:
        mine = view.center_label()
        neighbours = view.nodes_at_distance(1)
        if mine is None:
            # Maximality: some neighbour must be matched.
            if any(view.label_of(u) is None for u in neighbours):
                return NO
            return YES
        if not (isinstance(mine, tuple) and len(mine) == 2 and mine[0] == "matched"):
            return NO
        partners = [u for u in neighbours if view.label_of(u) == mine]
        return YES if len(partners) == 1 else NO


def greedy_matching(graph: LabelledGraph) -> LabelledGraph:
    """Return a copy of the graph labelled with a greedily computed maximal matching.

    Nodes are visited in insertion order and each takes its first unmatched
    neighbour in insertion order, so the matching does not depend on the
    iteration order of neighbour sets (which follows ``PYTHONHASHSEED``
    for string node names).
    """
    index = {v: i for i, v in enumerate(graph.nodes())}
    matched: Dict[Node, Node] = {}
    for u in graph.nodes():
        if u in matched:
            continue
        for v in sorted(graph.neighbours(u), key=index.__getitem__):
            if v not in matched:
                matched[u] = v
                matched[v] = u
                break
    return encode_matching(graph, matched)
