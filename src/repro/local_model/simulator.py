"""Synchronous message-passing simulator for the LOCAL model.

Section 1.2 of the paper notes that a local algorithm with horizon ``t`` is
equivalent (up to ±1 round) to a distributed algorithm running ``t``
synchronous communication rounds among networked state machines: the graph
is the network, each node initially knows only its own label and identifier,
and in every round each node sends its entire current knowledge to all
neighbours.

:class:`SynchronousSimulator` implements that full-information protocol
explicitly.  After ``k`` rounds, a node's knowledge contains the labels and
identifiers of every node within distance ``k`` and every edge incident to a
node within distance ``k - 1`` (plus the node's own edges).  In particular,
after ``t + 1`` rounds the knowledge contains the full induced structure on
``B(v, t)``, so the simulator can reconstruct exactly the view that the
mathematical ball-evaluation runner (:mod:`repro.local_model.runner`) uses —
the two execution models are cross-checked in the test-suite.

The simulator also records message statistics (rounds, message count, total
message payload size) so that benchmarks can report the communication cost
of local decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Hashable, Iterable, Optional, Set, Tuple

from ..errors import AlgorithmError, IdentifierError
from ..graphs.identifiers import IdAssignment
from ..graphs.labelled_graph import LabelledGraph, Label, Node
from ..graphs.neighbourhood import Neighbourhood
from .algorithm import LocalAlgorithm

if TYPE_CHECKING:  # type-only; engine imports this module at runtime
    from ..engine.base import EngineLike

__all__ = ["Knowledge", "SimulationStats", "SynchronousSimulator", "simulate_algorithm"]


@dataclass
class Knowledge:
    """What a single node knows about the network at some point in the protocol.

    Attributes
    ----------
    node_facts:
        Mapping from known node to its ``(label, identifier)`` pair; the
        identifier component is ``None`` when running without identifiers.
    edge_facts:
        Set of known edges (as frozensets of endpoints).
    """

    node_facts: Dict[Node, Tuple[Label, Optional[int]]] = field(default_factory=dict)
    edge_facts: Set[FrozenSet[Node]] = field(default_factory=set)

    def merge(self, other: "Knowledge") -> None:
        """Union another node's knowledge into this one (idempotent)."""
        self.node_facts.update(other.node_facts)
        self.edge_facts.update(other.edge_facts)

    def copy(self) -> "Knowledge":
        """Return an independent copy (used as the message payload)."""
        return Knowledge(dict(self.node_facts), set(self.edge_facts))

    def size(self) -> int:
        """A crude payload size: number of node facts plus number of edge facts."""
        return len(self.node_facts) + len(self.edge_facts)


@dataclass
class SimulationStats:
    """Communication statistics of one simulator run."""

    rounds: int = 0
    messages_sent: int = 0
    total_payload: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Return the statistics as a plain dictionary (for reports)."""
        return {
            "rounds": self.rounds,
            "messages_sent": self.messages_sent,
            "total_payload": self.total_payload,
        }


class SynchronousSimulator:
    """Full-information synchronous simulator on a fixed input ``(G, x, Id)``.

    Parameters
    ----------
    graph:
        The network.
    ids:
        Optional identifier assignment.  When omitted, nodes know no
        identifiers (the Id-oblivious setting).
    """

    def __init__(self, graph: LabelledGraph, ids: Optional[IdAssignment] = None) -> None:
        if ids is not None:
            missing = [v for v in graph.nodes() if v not in ids]
            if missing:
                raise IdentifierError(f"identifier assignment misses nodes {missing[:5]!r}")
        self.graph = graph
        self.ids = ids
        self.stats = SimulationStats()
        self._knowledge: Dict[Node, Knowledge] = {}
        self.reset()

    def reset(self) -> None:
        """Reset every node to its initial knowledge (own label, own identifier, own edges)."""
        self.stats = SimulationStats()
        self._knowledge = {}
        for v in self.graph.nodes():
            ident = self.ids[v] if self.ids is not None else None
            know = Knowledge({v: (self.graph.label(v), ident)}, set())
            for u in self.graph.neighbours(v):
                know.edge_facts.add(frozenset((v, u)))
                # The node can see its neighbours exist (port endpoints) but not their labels yet.
            self._knowledge[v] = know

    def run_rounds(self, rounds: int) -> None:
        """Execute ``rounds`` synchronous full-information rounds."""
        if rounds < 0:
            raise AlgorithmError(f"number of rounds must be non-negative, got {rounds}")
        for _ in range(rounds):
            self._one_round()

    def _one_round(self) -> None:
        # All messages are prepared from the *pre-round* knowledge (synchrony).
        outgoing: Dict[Node, Knowledge] = {v: self._knowledge[v].copy() for v in self.graph.nodes()}
        for v in self.graph.nodes():
            for u in self.graph.neighbours(v):
                self._knowledge[v].merge(outgoing[u])
                self.stats.messages_sent += 1
                self.stats.total_payload += outgoing[u].size()
        self.stats.rounds += 1

    def knowledge_of(self, v: Node) -> Knowledge:
        """Return the current knowledge of node ``v``."""
        return self._knowledge[v]

    def known_radius(self, v: Node) -> int:
        """Return the largest ``r`` such that ``v`` provably knows all node facts of ``B(v, r)``."""
        distances = self.graph.bfs_distances(v)
        known = set(self._knowledge[v].node_facts)
        r = 0
        while True:
            shell = {u for u, d in distances.items() if d == r + 1}
            if not shell:
                # v knows its whole component
                return max(distances.values(), default=0)
            if shell <= known:
                r += 1
            else:
                return r

    def local_views(
        self, radius: int, nodes: Optional[Iterable[Node]] = None
    ) -> Dict[Node, Neighbourhood]:
        """Reconstruct the radius-``radius`` view of every node (or of ``nodes``).

        This is the batch form of :meth:`local_view`, used by
        :class:`~repro.engine.synchronous.SynchronousEngine` to produce all
        views of a run at once.
        """
        chosen = list(nodes) if nodes is not None else list(self.graph.nodes())
        return {v: self.local_view(v, radius) for v in chosen}

    def local_view(self, v: Node, radius: int) -> Neighbourhood:
        """Reconstruct the radius-``radius`` view of ``v`` from its current knowledge.

        Raises
        ------
        AlgorithmError
            If the node has not yet gathered enough information (i.e. fewer
            than ``radius + 1`` rounds have been simulated for a graph where
            the ball keeps growing).
        """
        distances_true = self.graph.bfs_distances(v, radius=radius)
        know = self._knowledge[v]
        missing_nodes = [u for u in distances_true if u not in know.node_facts]
        if missing_nodes:
            raise AlgorithmError(
                f"node {v!r} does not yet know all of B(v, {radius}); run more rounds "
                f"(missing e.g. {missing_nodes[:3]!r})"
            )
        ball_nodes = list(distances_true.keys())
        ball_set = set(ball_nodes)
        required_edges = [
            (a, b) for (a, b) in self.graph.edges() if a in ball_set and b in ball_set
        ]
        missing_edges = [e for e in required_edges if frozenset(e) not in know.edge_facts]
        if missing_edges:
            raise AlgorithmError(
                f"node {v!r} does not yet know all edges of B(v, {radius}); run more rounds"
            )
        labels = {u: know.node_facts[u][0] for u in ball_nodes}
        ball_graph = LabelledGraph(ball_nodes, required_edges, labels)
        ids: Optional[IdAssignment] = None
        if self.ids is not None:
            ids = IdAssignment({u: know.node_facts[u][1] for u in ball_nodes})  # type: ignore[arg-type]
        return Neighbourhood(ball_graph, v, radius, distances_true, ids)


def simulate_algorithm(
    algorithm: LocalAlgorithm,
    graph: LabelledGraph,
    ids: Optional[IdAssignment] = None,
    extra_rounds: int = 1,
    nodes: Optional[Iterable[Node]] = None,
    engine: "EngineLike" = None,
) -> Tuple[Dict[Node, Hashable], SimulationStats]:
    """Run a local algorithm through the message-passing simulator.

    The simulator executes ``algorithm.radius + extra_rounds`` rounds (the
    ``+1`` default covers the edge facts on the ball boundary, matching the
    paper's "t ± 1 rounds" equivalence), reconstructs each node's
    radius-``t`` view and applies the algorithm to it.  When an ``engine``
    is given, per-view evaluation is delegated to it; the reconstructed
    views carry no interned payload, so a
    :class:`~repro.engine.cached.CachedEngine` evaluates them without
    memoising.

    Returns the per-node outputs and the communication statistics.
    """
    from ..engine.base import resolve_engine

    ids_for_run = ids if algorithm.uses_identifiers else None
    if algorithm.uses_identifiers and ids is None:
        raise IdentifierError(
            f"algorithm {algorithm.name!r} runs in the full LOCAL model and needs an identifier assignment"
        )
    sim = SynchronousSimulator(graph, ids_for_run)
    sim.run_rounds(algorithm.radius + extra_rounds)
    evaluator = resolve_engine(engine)
    outputs: Dict[Node, Hashable] = {
        v: evaluator.evaluate_view(algorithm, view)
        for v, view in sim.local_views(algorithm.radius, nodes).items()
    }
    return outputs, sim.stats
