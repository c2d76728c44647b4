"""Labelled graphs — the inputs of local decision problems.

The paper (Section 1.2) defines a *labelled graph* as a pair ``(G, x)``
where ``G`` is a simple undirected graph and ``x`` associates a label (the
*local input*) with every node.  A *labelled graph property* is a set of
labelled graphs closed under isomorphism.

:class:`LabelledGraph` is the central data structure of this library.  It is
immutable: all the constructions in the paper (layered trees, execution
graphs, fragment collections) are built once and then queried many times by
local algorithms, so an immutable, hash-friendly representation keeps the
rest of the code simple and safe to share between deciders.

Labels can be any hashable Python value; the constructions in
:mod:`repro.separation` use tuples such as ``(r, x, y)`` or execution-table
cell records.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, FrozenSet, Hashable, Iterable, Iterator, Mapping, Optional, Set, Tuple

import networkx as nx

from ..errors import GraphError, LabelError

__all__ = ["Node", "Label", "Edge", "LabelledGraph"]

#: Nodes may be any hashable value (ints, strings, coordinate tuples, ...).
Node = Hashable
#: Labels may be any hashable value; ``None`` means "no label".
Label = Hashable
#: Edges are unordered pairs, represented as 2-tuples.
Edge = Tuple[Node, Node]


class LabelledGraph:
    """An immutable simple undirected graph with a label on every node.

    Parameters
    ----------
    nodes:
        Iterable of hashable node names.  Duplicates are rejected.
    edges:
        Iterable of 2-tuples of nodes.  Self-loops and edges mentioning
        unknown nodes are rejected; parallel edges collapse silently (the
        graph is simple).
    labels:
        Mapping from node to label.  Nodes absent from the mapping receive
        the label ``None``.  Labels for unknown nodes are rejected.

    Examples
    --------
    >>> g = LabelledGraph([0, 1, 2], [(0, 1), (1, 2)], {0: "a", 1: "b"})
    >>> sorted(g.nodes())
    [0, 1, 2]
    >>> g.label(0)
    'a'
    >>> g.degree(1)
    2
    """

    __slots__ = ("_adj", "_labels", "_hash")

    def __init__(
        self,
        nodes: Iterable[Node],
        edges: Iterable[Edge] = (),
        labels: Optional[Mapping[Node, Label]] = None,
    ) -> None:
        node_list = list(nodes)
        node_set: Set[Node] = set()
        for v in node_list:
            if v in node_set:
                raise GraphError(f"duplicate node {v!r}")
            node_set.add(v)

        adj: Dict[Node, Set[Node]] = {v: set() for v in node_list}
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError) as exc:
                raise GraphError(f"edge {e!r} is not a 2-tuple") from exc
            if u == v:
                raise GraphError(f"self-loop on node {u!r} is not allowed (simple graph)")
            if u not in adj or v not in adj:
                raise GraphError(f"edge ({u!r}, {v!r}) mentions a node outside the node set")
            adj[u].add(v)
            adj[v].add(u)

        label_map: Dict[Node, Label] = {v: None for v in node_list}
        if labels is not None:
            for v, lab in labels.items():
                if v not in adj:
                    raise LabelError(f"label given for unknown node {v!r}")
                label_map[v] = lab

        self._adj: Dict[Node, FrozenSet[Node]] = {v: frozenset(ns) for v, ns in adj.items()}
        self._labels: Dict[Node, Label] = label_map
        self._hash: Optional[int] = None

    @classmethod
    def _from_trusted(cls, adj: Dict[Node, FrozenSet[Node]], labels: Dict[Node, Label]) -> "LabelledGraph":
        """Build a graph from pre-validated internals, skipping all checks.

        Internal fast path for the interned core (:mod:`repro.engine.
        interned`), which derives ``adj``/``labels`` from arrays that are
        correct by construction, and for :meth:`induced_subgraph`, which
        restricts an already valid graph.  ``adj`` must be a symmetric simple
        adjacency of frozensets and ``labels`` must cover exactly its keys;
        both are adopted without copying.
        """
        graph = cls.__new__(cls)
        graph._adj = adj
        graph._labels = labels
        graph._hash = None
        return graph

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    def nodes(self) -> Tuple[Node, ...]:
        """Return all nodes (in insertion order)."""
        return tuple(self._adj.keys())

    def edges(self) -> Tuple[Edge, ...]:
        """Return all edges, each reported once as a 2-tuple."""
        seen: Set[FrozenSet[Node]] = set()
        out = []
        for u, nbrs in self._adj.items():
            for v in nbrs:
                key = frozenset((u, v))
                if key not in seen:
                    seen.add(key)
                    out.append((u, v))
        return tuple(out)

    def labels(self) -> Dict[Node, Label]:
        """Return a copy of the node → label mapping."""
        return dict(self._labels)

    def label(self, v: Node) -> Label:
        """Return the label of node ``v``."""
        self._require_node(v)
        return self._labels[v]

    def has_node(self, v: Node) -> bool:
        """Return ``True`` when ``v`` is a node of the graph."""
        return v in self._adj

    def has_edge(self, u: Node, v: Node) -> bool:
        """Return ``True`` when ``{u, v}`` is an edge of the graph."""
        return u in self._adj and v in self._adj[u]

    def neighbours(self, v: Node) -> FrozenSet[Node]:
        """Return the neighbour set of ``v``."""
        self._require_node(v)
        return self._adj[v]

    def degree(self, v: Node) -> int:
        """Return the degree of ``v``."""
        self._require_node(v)
        return len(self._adj[v])

    def num_nodes(self) -> int:
        """Return the number of nodes."""
        return len(self._adj)

    def num_edges(self) -> int:
        """Return the number of edges."""
        return sum(len(ns) for ns in self._adj.values()) // 2

    def max_degree(self) -> int:
        """Return the maximum degree, or 0 for the empty graph."""
        if not self._adj:
            return 0
        return max(len(ns) for ns in self._adj.values())

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    def __contains__(self, v: object) -> bool:
        return v in self._adj

    # ------------------------------------------------------------------ #
    # Equality / hashing
    # ------------------------------------------------------------------ #
    #
    # Two labelled graphs compare equal when they have literally the same
    # node names, edges and labels.  Isomorphism-aware comparison lives in
    # :mod:`repro.graphs.isomorphism`.

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelledGraph):
            return NotImplemented
        return self._adj == other._adj and self._labels == other._labels

    def __hash__(self) -> int:
        if self._hash is None:
            edge_keys = frozenset(frozenset(e) for e in self.edges())
            self._hash = hash((frozenset(self._adj.keys()), edge_keys, frozenset(self._labels.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"LabelledGraph(n={self.num_nodes()}, m={self.num_edges()})"

    # ------------------------------------------------------------------ #
    # Traversal / distances
    # ------------------------------------------------------------------ #

    def bfs_distances(self, source: Node, radius: Optional[int] = None) -> Dict[Node, int]:
        """Return hop distances from ``source`` to every reachable node.

        Parameters
        ----------
        source:
            Start node.
        radius:
            When given, only nodes within this many hops are returned.
        """
        self._require_node(source)
        dist: Dict[Node, int] = {source: 0}
        queue: deque[Node] = deque([source])
        while queue:
            u = queue.popleft()
            if radius is not None and dist[u] >= radius:
                continue
            for w in self._adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    def ball_nodes(self, center: Node, radius: int) -> FrozenSet[Node]:
        """Return ``B(center, radius)``: all nodes within ``radius`` hops of ``center``."""
        if radius < 0:
            raise GraphError(f"radius must be non-negative, got {radius}")
        return frozenset(self.bfs_distances(center, radius=radius).keys())

    def eccentricity(self, v: Node) -> int:
        """Return the eccentricity of ``v`` within its connected component."""
        dist = self.bfs_distances(v)
        return max(dist.values()) if dist else 0

    def diameter(self) -> int:
        """Return the diameter of the graph.

        Raises
        ------
        GraphError
            If the graph is empty or disconnected.
        """
        if not self._adj:
            raise GraphError("diameter of an empty graph is undefined")
        if not self.is_connected():
            raise GraphError("diameter of a disconnected graph is undefined")
        return max(self.eccentricity(v) for v in self._adj)

    def is_connected(self) -> bool:
        """Return ``True`` when the graph is connected (the empty graph counts as connected)."""
        if not self._adj:
            return True
        first = next(iter(self._adj))
        return len(self.bfs_distances(first)) == len(self._adj)

    def connected_components(self) -> Tuple[FrozenSet[Node], ...]:
        """Return the connected components as frozensets of nodes."""
        remaining = set(self._adj)
        components = []
        while remaining:
            start = next(iter(remaining))
            comp = frozenset(self.bfs_distances(start).keys())
            components.append(comp)
            remaining -= comp
        return tuple(components)

    # ------------------------------------------------------------------ #
    # Derivation of new graphs
    # ------------------------------------------------------------------ #

    def induced_subgraph(self, nodes: Iterable[Node]) -> "LabelledGraph":
        """Return the labelled subgraph induced on the given node subset."""
        keep = set(nodes)
        for v in keep:
            self._require_node(v)
        # preserve original insertion order for determinism when the subset is
        # a large fraction of the graph; otherwise order by the subset itself
        if len(keep) * 4 >= len(self._adj):
            ordered = [v for v in self._adj if v in keep]
        else:
            ordered = list(keep)
        # Restricting this graph's symmetric simple adjacency to ``keep``
        # keeps it symmetric and simple, so the subgraph skips
        # re-validation; extracting a small ball from a large graph costs
        # O(sum of kept degrees) rather than O(total edges).
        adj, labels = self._adj, self._labels
        return LabelledGraph._from_trusted({v: adj[v] & keep for v in ordered}, {v: labels[v] for v in ordered})

    def relabel_nodes(self, mapping: Mapping[Node, Node]) -> "LabelledGraph":
        """Return an isomorphic copy with node names replaced via ``mapping``.

        Every node must appear in ``mapping`` and the mapping must be
        injective; labels travel with the nodes.
        """
        values = list(mapping.values())
        if len(set(values)) != len(values):
            raise GraphError("relabelling map is not injective")
        missing = [v for v in self._adj if v not in mapping]
        if missing:
            raise GraphError(f"relabelling map misses nodes: {missing[:5]!r}")
        new_nodes = [mapping[v] for v in self._adj]
        new_edges = [(mapping[u], mapping[v]) for (u, v) in self.edges()]
        new_labels = {mapping[v]: lab for v, lab in self._labels.items()}
        return LabelledGraph(new_nodes, new_edges, new_labels)

    def with_labels(self, labels: Mapping[Node, Label]) -> "LabelledGraph":
        """Return a copy of the graph with labels replaced/updated from ``labels``."""
        new_labels = dict(self._labels)
        for v, lab in labels.items():
            if v not in self._adj:
                raise LabelError(f"label given for unknown node {v!r}")
            new_labels[v] = lab
        return LabelledGraph(self.nodes(), self.edges(), new_labels)

    def map_labels(self, fn: Callable[[Node, Label], Label]) -> "LabelledGraph":
        """Return a copy with every label replaced by ``fn(node, old_label)``."""
        new_labels = {v: fn(v, lab) for v, lab in self._labels.items()}
        return LabelledGraph(self.nodes(), self.edges(), new_labels)

    def add_nodes_and_edges(
        self,
        new_nodes: Iterable[Node] = (),
        new_edges: Iterable[Edge] = (),
        new_labels: Optional[Mapping[Node, Label]] = None,
    ) -> "LabelledGraph":
        """Return an extended copy with extra nodes/edges/labels.

        This is the building block used by the separation constructions to
        glue fragments onto an execution table: the original graph is never
        mutated.
        """
        nodes = list(self.nodes())
        existing = set(nodes)
        for v in new_nodes:
            if v in existing:
                raise GraphError(f"node {v!r} already present")
            existing.add(v)
            nodes.append(v)
        edges = list(self.edges()) + list(new_edges)
        labels = dict(self._labels)
        if new_labels:
            labels.update(new_labels)
        return LabelledGraph(nodes, edges, labels)

    def disjoint_union(self, other: "LabelledGraph", tags: Tuple[Any, Any] = (0, 1)) -> "LabelledGraph":
        """Return the disjoint union of two labelled graphs.

        Node names are disambiguated by wrapping them as ``(tag, original)``
        with the provided ``tags``.
        """
        t0, t1 = tags
        nodes = [(t0, v) for v in self.nodes()] + [(t1, v) for v in other.nodes()]
        edges = [((t0, u), (t0, v)) for (u, v) in self.edges()] + [
            ((t1, u), (t1, v)) for (u, v) in other.edges()
        ]
        labels = {(t0, v): lab for v, lab in self._labels.items()}
        labels.update({(t1, v): lab for v, lab in other._labels.items()})
        return LabelledGraph(nodes, edges, labels)

    # ------------------------------------------------------------------ #
    # Interop
    # ------------------------------------------------------------------ #

    def to_networkx(self) -> nx.Graph:
        """Return a :class:`networkx.Graph` copy with labels stored as the ``label`` node attribute."""
        g = nx.Graph()
        for v in self._adj:
            g.add_node(v, label=self._labels[v])
        g.add_edges_from(self.edges())
        return g

    @classmethod
    def from_networkx(cls, g: nx.Graph, label_attr: str = "label") -> "LabelledGraph":
        """Build a :class:`LabelledGraph` from a networkx graph.

        Node attribute ``label_attr`` (default ``"label"``) becomes the node
        label; missing attributes become ``None``.
        """
        nodes = list(g.nodes())
        edges = list(g.edges())
        labels = {v: g.nodes[v].get(label_attr) for v in nodes}
        return cls(nodes, edges, labels)

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #

    def _require_node(self, v: Node) -> None:
        if v not in self._adj:
            raise GraphError(f"node {v!r} is not in the graph")
