"""Languages on labelled paths with a finite set of input values.

The prior work the paper builds on (Fraigniaud–Halldórsson–Korman,
OPODIS 2012) showed that ``LD* = LD`` holds for "languages defined on
paths, with a finite set of input values".  This module implements that
class of properties so that the reproduction can demonstrate the *positive*
side of the landscape next to the paper's separations:

* a :class:`RegularPathProperty` is specified by a deterministic finite
  automaton over the label alphabet; a labelled path is a yes-instance iff
  the label word read along the path (in either direction — the property
  must be isomorphism-closed) is accepted;
* :class:`RegularPathProperty.decider` produces an Id-oblivious local
  decider for the *local* (factor-closed) part of the language, and the
  tests/benchmarks use these properties as LD*-members in the Table-1
  experiment.

To stay honest about locality we restrict the constructor to *locally
checkable* path languages: those definable by forbidding a finite set of
label windows of bounded width (a strictly local language in formal-language
terms).  Every such language is decidable by a horizon-``w`` Id-oblivious
algorithm, matching the cited prior-work result for this reproduction's
purposes.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from ..decision.property import Property
from ..errors import GraphError
from ..graphs.generators import path_graph
from ..graphs.labelled_graph import LabelledGraph, Node
from ..graphs.neighbourhood import Neighbourhood
from ..local_model.algorithm import IdObliviousAlgorithm
from ..local_model.outputs import NO, YES, Verdict

__all__ = ["RegularPathProperty", "ForbiddenWindowDecider", "label_word", "is_path"]


def is_path(graph: LabelledGraph) -> bool:
    """Return ``True`` when the graph is a simple path (including single nodes)."""
    n = graph.num_nodes()
    if n == 0:
        return False
    if n == 1:
        return graph.num_edges() == 0
    degrees = [graph.degree(v) for v in graph.nodes()]
    return (
        graph.is_connected()
        and graph.num_edges() == n - 1
        and sorted(degrees)[:2] == [1, 1]
        and max(degrees) <= 2
    )


def label_word(graph: LabelledGraph) -> List:
    """Return the label word read along a path graph, from one endpoint to the other.

    The starting endpoint is chosen deterministically (smallest repr), so the
    word is well defined up to reversal; properties over path words must be
    reversal-closed to be isomorphism-invariant, and the membership test
    checks both directions anyway.
    """
    if not is_path(graph):
        raise GraphError("label_word is only defined for path graphs")
    if graph.num_nodes() == 1:
        return [graph.label(next(iter(graph.nodes())))]
    endpoints = sorted((v for v in graph.nodes() if graph.degree(v) == 1), key=repr)
    start = endpoints[0]
    word = []
    prev: Optional[Node] = None
    current: Optional[Node] = start
    while current is not None:
        word.append(graph.label(current))
        nxt = [u for u in graph.neighbours(current) if u != prev]
        prev, current = current, (nxt[0] if nxt else None)
    return word


class RegularPathProperty(Property):
    """A path language defined by forbidden label windows (a strictly local language).

    Parameters
    ----------
    alphabet:
        The finite set of admissible labels.  Any label outside the alphabet
        makes the instance a no-instance.
    forbidden_windows:
        Sequences of labels that may not occur as a contiguous factor of the
        path's label word (in either direction).
    name:
        Property name used in reports.
    require_path:
        When ``True`` (default) non-path topologies are no-instances.
    """

    def __init__(
        self,
        alphabet: Sequence,
        forbidden_windows: Sequence[Sequence],
        name: str = "path-language",
        require_path: bool = True,
    ) -> None:
        self.alphabet = list(alphabet)
        self.forbidden = [tuple(w) for w in forbidden_windows]
        if any(len(w) == 0 for w in self.forbidden):
            raise GraphError("forbidden windows must be non-empty")
        self.window = max((len(w) for w in self.forbidden), default=1)
        self.name = name
        self.require_path = require_path

    def contains(self, graph: LabelledGraph) -> bool:
        if self.require_path and not is_path(graph):
            return False
        labels = graph.labels()
        if any(lab not in self.alphabet for lab in labels.values()):
            return False
        word = label_word(graph)
        for direction in (word, list(reversed(word))):
            for w in self.forbidden:
                for i in range(len(direction) - len(w) + 1):
                    if tuple(direction[i : i + len(w)]) == w:
                        return False
        return True

    def decider(self) -> "ForbiddenWindowDecider":
        """Return the Id-oblivious horizon-``w`` decider for this language."""
        return ForbiddenWindowDecider(self)

    # Instance generators over all words of bounded length -------------- #

    def _words(self, length: int) -> Iterator[Tuple]:
        import itertools

        yield from itertools.product(self.alphabet, repeat=length)

    def instances_up_to(self, max_length: int) -> Iterator[Tuple[LabelledGraph, bool]]:
        """Yield ``(path, membership)`` for every label word of length 1..max_length."""
        for length in range(1, max_length + 1):
            for word in self._words(length):
                g = path_graph(length).with_labels({i: word[i] for i in range(length)})
                yield g, self.contains(g)

    def yes_instances(self) -> Iterator[LabelledGraph]:
        for g, member in self.instances_up_to(4):
            if member:
                yield g

    def no_instances(self) -> Iterator[LabelledGraph]:
        for g, member in self.instances_up_to(4):
            if not member:
                yield g


class ForbiddenWindowDecider(IdObliviousAlgorithm):
    """Id-oblivious decider for a :class:`RegularPathProperty`.

    Every node checks, within its horizon (the window width), that

    * the topology looks locally like a path (degree at most 2, no cycles in
      the view),
    * all visible labels are in the alphabet, and
    * no forbidden window occurs among the label factors visible to it.

    Because every contiguous factor of the path is fully visible to at least
    one node at this horizon, the decider is complete and sound for path
    inputs.  Non-path inputs are rejected by the node that sees the
    violation: a degree-3 node, or a cycle closing within the view.  A cycle
    longer than the horizon cannot be told from a path locally ("being a
    path" alone is not locally decidable), so such a cycle is rejected only
    when a forbidden factor or a foreign label occurs on it.  The property's
    ``require_path`` flag is therefore fully enforced only on families
    without long label-consistent cycles, which covers every family shipped
    with this library.

    The decider keeps the alphabet (a frozenset) and the forbidden windows
    (a tuple) rather than the property object, so its
    :func:`~repro.engine.persistent.algorithm_fingerprint` is exact and its
    verdicts can be memoised and persisted.
    """

    def __init__(self, prop: RegularPathProperty) -> None:
        super().__init__(radius=max(prop.window, 1), name=f"{prop.name}-decider")
        self.alphabet = frozenset(prop.alphabet)
        self.forbidden = tuple(prop.forbidden)

    def evaluate(self, view: Neighbourhood) -> Verdict:
        # Topology: within the view every node must have degree <= 2 and the
        # view must be cycle-free (a tree), otherwise this is not a path.
        for v in view.nodes():
            if view.graph.degree(v) > 2:
                return NO
        if view.graph.num_edges() >= view.graph.num_nodes():
            return NO  # a cycle closes within the view
        # Labels in alphabet.
        for v in view.nodes():
            if view.label_of(v) not in self.alphabet:
                return NO
        # Forbidden windows among factors through the centre.
        word = self._word_through_center(view)
        for direction in (word, list(reversed(word))):
            for w in self.forbidden:
                for i in range(len(direction) - len(w) + 1):
                    if tuple(direction[i : i + len(w)]) == w:
                        return NO
        return YES

    @staticmethod
    def _word_through_center(view: Neighbourhood) -> List:
        """Return the label word of the path segment visible in the view (centre included)."""
        # The view of a path is itself a path; read it end to end.
        g = view.graph
        endpoints = [v for v in g.nodes() if g.degree(v) <= 1]
        if not endpoints:
            return [view.center_label()]
        start = sorted(endpoints, key=repr)[0]
        word = []
        prev = None
        current = start
        while current is not None:
            word.append(g.label(current))
            nxt = [u for u in g.neighbours(current) if u != prev]
            prev, current = current, (nxt[0] if nxt else None)
        return word
