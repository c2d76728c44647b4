"""Proper k-colouring: the paper's first example of a labelled graph property.

"(G, x) ∈ P if x is a proper 3-colouring of G" (Section 1.2).  Proper
colouring is the textbook member of ``LD*``: a node only needs to compare
its own colour with its neighbours' colours, which requires horizon 1 and no
identifiers at all.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..decision.property import Property
from ..graphs.generators import cycle_graph, path_graph
from ..graphs.labelled_graph import LabelledGraph
from ..graphs.neighbourhood import Neighbourhood
from ..local_model.algorithm import IdObliviousAlgorithm
from ..local_model.outputs import NO, YES, Verdict

__all__ = ["ProperColouringProperty", "ProperColouringDecider", "greedy_colouring"]


class ProperColouringProperty(Property):
    """The property "the labels form a proper colouring with at most k colours".

    A label is interpreted as a colour; ``None`` labels are never proper.
    With ``k = None`` any number of colours is allowed (only the "proper"
    part is checked).
    """

    def __init__(self, k: Optional[int] = 3) -> None:
        self.k = k
        self.name = f"proper-{k}-colouring" if k is not None else "proper-colouring"

    def contains(self, graph: LabelledGraph) -> bool:
        labels = graph.labels()
        if any(lab is None for lab in labels.values()):
            return False
        if self.k is not None and len(set(labels.values())) > self.k:
            return False
        return all(labels[u] != labels[v] for (u, v) in graph.edges())

    def yes_instances(self) -> Iterator[LabelledGraph]:
        yield cycle_graph(4).with_labels({i: i % 2 for i in range(4)})
        yield cycle_graph(6).with_labels({i: i % 2 for i in range(6)})
        yield path_graph(5).with_labels({i: i % 2 for i in range(5)})
        yield cycle_graph(5).with_labels({0: 0, 1: 1, 2: 0, 3: 1, 4: 2})

    def no_instances(self) -> Iterator[LabelledGraph]:
        yield cycle_graph(4).with_labels({i: 0 for i in range(4)})
        yield cycle_graph(5).with_labels({i: i % 2 for i in range(5)})  # odd cycle, 2 colours
        yield path_graph(3).with_labels({0: 1, 1: 1, 2: 0})


class ProperColouringDecider(IdObliviousAlgorithm):
    """Horizon-1 Id-oblivious decider: reject iff my colour clashes with a neighbour (or is missing).

    Note that the *number of colours* cannot be bounded by a horizon-1 local
    algorithm in general (a node only sees its own neighbourhood); for
    ``k``-colourings where colours are required to come from ``{0,...,k-1}``
    the decider also rejects out-of-range colours, which makes it a correct
    decider for :class:`ProperColouringProperty` with that colour-set
    convention.
    """

    def __init__(self, k: Optional[int] = 3) -> None:
        super().__init__(radius=1, name=f"colouring-decider(k={k})")
        self.k = k

    def evaluate(self, view: Neighbourhood) -> Verdict:
        mine = view.center_label()
        if mine is None:
            return NO
        if self.k is not None and isinstance(mine, int) and not 0 <= mine < self.k:
            return NO
        for u in view.nodes_at_distance(1):
            if view.label_of(u) == mine:
                return NO
        return YES


def greedy_colouring(graph: LabelledGraph) -> LabelledGraph:
    """Return a copy of the graph whose labels are a greedy proper colouring.

    Used by tests and examples to produce yes-instances on arbitrary
    topologies; the number of colours is at most max-degree + 1.
    """
    colours = {}
    for v in graph.nodes():
        used = {colours[u] for u in graph.neighbours(v) if u in colours}
        colour = 0
        while colour in used:
            colour += 1
        colours[v] = colour
    return graph.with_labels(colours)
