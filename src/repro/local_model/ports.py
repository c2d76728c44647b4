"""Port numberings and the PO model (related-work substrate).

The paper's related-work discussion (Section 1.3) contrasts the Id-oblivious
model with two weaker-than-LOCAL models that retain some symmetry-breaking
information:

* **OI** — order-invariant algorithms: outputs may depend only on the
  relative order of identifiers (handled by
  :class:`repro.local_model.algorithm.OrderInvariantAlgorithm` together with
  the order-preserving renaming enumerator in
  :mod:`repro.graphs.identifiers`).
* **PO** — port numbering and orientation: every node orders its incident
  edges with local port numbers ``1..deg(v)`` and every edge carries an
  orientation.

This module provides the PO substrate: :class:`PortNumbering` assigns port
numbers, :class:`EdgeOrientation` orients edges, and
:func:`attach_port_labels` bakes both into node labels so that ordinary
Id-oblivious algorithms can consume them through the standard view
machinery.  This keeps the execution stack uniform: PO algorithms are just
Id-oblivious algorithms run on port-annotated inputs.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Mapping, Optional, Tuple

from ..errors import GraphError
from ..graphs.labelled_graph import LabelledGraph, Node

__all__ = ["PortNumbering", "EdgeOrientation", "attach_port_labels", "canonical_port_numbering"]


class PortNumbering:
    """An assignment of local port numbers to the incident edges of every node.

    For every node ``v`` the ports are a bijection from ``v``'s incident
    edges to ``{1, ..., deg(v)}``.
    """

    def __init__(self, graph: LabelledGraph, ports: Mapping[Node, Mapping[Node, int]]) -> None:
        for v in graph.nodes():
            if v not in ports:
                raise GraphError(f"no port map for node {v!r}")
            nbrs = graph.neighbours(v)
            pmap = ports[v]
            if set(pmap.keys()) != set(nbrs):
                raise GraphError(f"port map of node {v!r} does not cover exactly its neighbours")
            numbers = sorted(pmap.values())
            if numbers != list(range(1, len(nbrs) + 1)):
                raise GraphError(
                    f"ports of node {v!r} must be a bijection onto 1..deg(v), got {numbers}"
                )
        self.graph = graph
        self._ports: Dict[Node, Dict[Node, int]] = {v: dict(ports[v]) for v in graph.nodes()}

    def port(self, v: Node, u: Node) -> int:
        """Return the port number that node ``v`` uses for the edge towards ``u``."""
        try:
            return self._ports[v][u]
        except KeyError as exc:
            raise GraphError(f"({v!r}, {u!r}) is not an edge") from exc

    def neighbour_on_port(self, v: Node, port: int) -> Node:
        """Return the neighbour reached from ``v`` through the given port number."""
        for u, p in self._ports[v].items():
            if p == port:
                return u
        raise GraphError(f"node {v!r} has no port {port}")

    def as_mapping(self) -> Dict[Node, Dict[Node, int]]:
        """Return a copy of the underlying node → (neighbour → port) mapping."""
        return {v: dict(m) for v, m in self._ports.items()}


class EdgeOrientation:
    """An orientation of every edge of a graph (the "O" in the PO model)."""

    def __init__(self, graph: LabelledGraph, oriented_edges: Iterable[Tuple[Node, Node]]) -> None:
        oriented = list(oriented_edges)
        seen: Dict[FrozenSet[Node], Tuple[Node, Node]] = {}
        for (u, v) in oriented:
            if not graph.has_edge(u, v):
                raise GraphError(f"({u!r}, {v!r}) is not an edge of the graph")
            key = frozenset((u, v))
            if key in seen:
                raise GraphError(f"edge {{{u!r}, {v!r}}} oriented twice")
            seen[key] = (u, v)
        missing = [e for e in graph.edges() if frozenset(e) not in seen]
        if missing:
            raise GraphError(f"orientation misses edges, e.g. {missing[:3]!r}")
        self.graph = graph
        self._direction = seen

    def head(self, u: Node, v: Node) -> Node:
        """Return the head (target) of the oriented edge ``{u, v}``."""
        return self._direction[frozenset((u, v))][1]

    def is_oriented_from_to(self, u: Node, v: Node) -> bool:
        """Return ``True`` when the edge ``{u, v}`` is oriented from ``u`` to ``v``."""
        return self._direction[frozenset((u, v))] == (u, v)

    def out_neighbours(self, v: Node) -> Tuple[Node, ...]:
        """Return the neighbours reached by edges oriented away from ``v``."""
        return tuple(u for u in self.graph.neighbours(v) if self.is_oriented_from_to(v, u))


def canonical_port_numbering(graph: LabelledGraph) -> PortNumbering:
    """Return the port numbering that orders each node's neighbours by their repr.

    This deterministic numbering is convenient for tests; real PO lower
    bounds quantify over *all* port numberings, which callers can enumerate
    themselves for small graphs.
    """
    ports = {
        v: {u: i + 1 for i, u in enumerate(sorted(graph.neighbours(v), key=repr))}
        for v in graph.nodes()
    }
    return PortNumbering(graph, ports)


def attach_port_labels(
    graph: LabelledGraph,
    ports: Optional[PortNumbering] = None,
    orientation: Optional[EdgeOrientation] = None,
) -> LabelledGraph:
    """Return a copy of ``graph`` whose labels additionally carry PO information.

    Every node's new label is a dictionary-like tuple
    ``("po", original_label, port_view, orientation_view)`` where
    ``port_view`` lists ``(port, neighbour_degree)`` pairs and
    ``orientation_view`` lists the ports of outgoing edges.  An Id-oblivious
    algorithm run on the result is exactly a PO-model algorithm.
    """
    ports = ports or canonical_port_numbering(graph)

    def new_label(v: Node, old: Hashable) -> Hashable:
        port_view = tuple(
            sorted((ports.port(v, u), graph.degree(u)) for u in graph.neighbours(v))
        )
        if orientation is not None:
            out_ports = tuple(sorted(ports.port(v, u) for u in orientation.out_neighbours(v)))
        else:
            out_ports = ()
        return ("po", old, port_view, out_ports)

    return graph.map_labels(new_label)
