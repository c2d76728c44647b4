"""Interned-graph core: integer adjacency, frontier-BFS ball tables, canonical keys.

Every hot path in the package — the ``verify_decider`` grid fan-out, the
adversarial hunts, the workload-matrix sweeps — bottoms out in extracting
radius-``t`` balls and (for the caching backend) canonicalising them.  This
module *interns* a :class:`~repro.graphs.labelled_graph.LabelledGraph` into
compact integer lists once and then serves every ball of every node of
every assignment from them:

* **Interning** (:func:`intern_graph`): nodes become dense indices
  ``0..n-1``, adjacency becomes sorted neighbour-index lists, labels
  become codes from a process-wide label table (labels with equal ``repr``
  always map to equal codes, matching the dict-based canonical forms, so
  canonical keys stay comparable across graphs).
* **Ball extraction** (:meth:`InternedGraph.ball_table`): one frontier BFS
  per centre over the integer adjacency lists, cached per radius.  Centres
  whose balls have the same members share one induced subgraph.
* **Canonical keys** (:func:`interned_view_key`): the caching engine's
  memoisation keys, integer tuples — identifier views ordered by
  identifier with no search, Id-oblivious views by a colour-class search.

This is the only production path for views and keys.  The per-node dict
path (:func:`~repro.graphs.neighbourhood.extract_neighbourhood`,
:meth:`~repro.graphs.neighbourhood.Neighbourhood.oblivious_key`) is the
paper-literal oracle: ``tests/test_interned_engine.py`` asserts that both
give identical views, key partitions, verdicts and store digests across
all 12 workload graph families and worker counts 1/2/4.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, permutations, product
from math import factorial, prod
from typing import Dict, List, Optional, Tuple

from ..errors import GraphError
from ..graphs.labelled_graph import LabelledGraph, Node
from ..graphs.neighbourhood import Neighbourhood
from ..obs import trace
from ..obs.metrics import (
    BALL_TABLES_GROWN,
    INTERN_CACHE_HITS,
    INTERN_CACHE_MISSES,
    global_metrics,
)
from .store import LRUStore

__all__ = [
    "InternedGraph",
    "InternedBall",
    "InternedView",
    "intern_graph",
    "interned_id_free_views",
    "interned_view_key",
]

#: Budgets of the Id-oblivious key search, mirroring the thresholds of the
#: dict-based search in :mod:`repro.graphs.neighbourhood`: refine colours
#: by 1-WL when the raw search exceeds ``_REFINEMENT_THRESHOLD`` orderings,
#: and give up (return ``None``; the caller evaluates without memoising)
#: when a colour class exceeds ``_MAX_CLASS`` nodes or the total search
#: exceeds ``_MAX_SEARCH`` orderings.
_REFINEMENT_THRESHOLD = 48
_MAX_CLASS = 8
_MAX_SEARCH = 40320  # 8!

# ---------------------------------------------------------------------- #
# Process-wide label interning
# ---------------------------------------------------------------------- #
#
# Canonical keys must agree across graphs (the caching engine memoises per
# (algorithm, view key), and one sweep mixes many graphs), so label codes
# are assigned from one process-wide table.  The table is keyed by
# ``repr(label)`` — the exact equivalence the dict-based canonical forms in
# :mod:`repro.graphs.neighbourhood` use — so the two key families partition
# views identically.  The table only ever grows with *distinct* labels, of
# which real workloads have a handful.

_LABEL_CODES: Dict[str, int] = {}


def _label_code(label: object) -> int:
    """Return the process-wide integer code of a label (keyed by ``repr``)."""
    key = repr(label)
    code = _LABEL_CODES.get(key)
    if code is None:
        code = len(_LABEL_CODES)
        _LABEL_CODES[key] = code
    return code


# ---------------------------------------------------------------------- #
# Interned graphs
# ---------------------------------------------------------------------- #


class InternedGraph:
    """A :class:`LabelledGraph` flattened into dense integer indices.

    ``nodes`` maps dense index → node name; ``adj_lists`` holds each
    node's neighbour indices sorted ascending; ``labels_list`` its label
    and ``label_codes`` its process-wide label code.
    Ball tables are computed lazily per radius and cached on the
    instance.
    """

    __slots__ = (
        "source",
        "nodes",
        "label_codes",
        "adj_lists",
        "labels_list",
        "n",
        "_ball_tables",
    )

    def __init__(
        self,
        source: LabelledGraph,
        nodes: Tuple[Node, ...],
        label_codes: List[int],
        adj_lists: List[List[int]],
        labels_list: List[object],
    ) -> None:
        self.source = source
        self.nodes = nodes
        self.label_codes = label_codes
        self.adj_lists = adj_lists
        self.labels_list = labels_list
        self.n = len(nodes)
        self._ball_tables: Dict[int, List[Tuple[Tuple[int, ...], List[int]]]] = {}

    def ball_table(self, radius: int) -> List[Tuple[Tuple[int, ...], List[int]]]:
        """Return ``(members, distances)`` for every centre, in index order.

        ``members`` are the ball's node indices in ascending order and
        ``distances`` their hop distances from the centre, position by
        position.  Each row is one frontier BFS over ``adj_lists``; rows
        with equal members share one ``members`` tuple.
        """
        cached = self._ball_tables.get(radius)
        if cached is not None:
            return cached
        adj_lists = self.adj_lists
        shared: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        table: List[Tuple[Tuple[int, ...], List[int]]] = []
        with trace.span("interned.ball_table", nodes=self.n, radius=radius):
            for centre in range(self.n):
                dist = {centre: 0}
                frontier = [centre]
                for d in range(1, radius + 1):
                    grown = []
                    for u in frontier:
                        for w in adj_lists[u]:
                            if w not in dist:
                                dist[w] = d
                                grown.append(w)
                    if not grown:
                        break
                    frontier = grown
                members = tuple(sorted(dist))
                members = shared.setdefault(members, members)
                table.append((members, [dist[g] for g in members]))
        global_metrics().inc(BALL_TABLES_GROWN)
        self._ball_tables[radius] = table
        return table


class InternedBall:
    """One induced ball, shared by every centre with the same member set.

    ``members`` are ascending global node indices (a tuple);
    ``local_of`` maps global index → member-local index; ``graph`` is the
    shared induced :class:`LabelledGraph` handed to algorithms;
    ``ball_nodes`` its nodes in member order.  The lists the canonical
    keys need are built lazily by :func:`_local_lists` and cached here, so
    they are freed with the ball — the direct backend never pays for them.
    """

    __slots__ = ("interned", "members", "local_of", "graph", "ball_nodes", "_local")

    def __init__(
        self,
        interned: InternedGraph,
        members: Tuple[int, ...],
        local_of: Dict[int, int],
        graph: LabelledGraph,
        ball_nodes: Tuple[Node, ...],
    ) -> None:
        self.interned = interned
        self.members = members
        self.local_of = local_of
        self.graph = graph
        self.ball_nodes = ball_nodes
        self._local: Optional[Tuple[List[int], List[List[int]], List[Tuple[int, int]]]] = None


class InternedView:
    """The interned payload one :class:`Neighbourhood` carries.

    ``ball`` is the (possibly shared) :class:`InternedBall`; ``dist_local``
    the member-local hop distances (a Python list), whose only 0 marks the
    centre.  The caching engine uses this payload to compute canonical
    keys (:func:`interned_view_key`).
    """

    __slots__ = ("ball", "dist_local")

    def __init__(self, ball: InternedBall, dist_local: List[int]) -> None:
        self.ball = ball
        self.dist_local = dist_local


# ---------------------------------------------------------------------- #
# Interning
# ---------------------------------------------------------------------- #

#: Interned graphs are structural (topology + labels, no outputs), so one
#: bounded process-wide table serves every engine; keyed by the graph
#: object (LabelledGraph hashes by content and caches its hash).
_INTERN_CACHE = LRUStore(maxsize=256)


def intern_graph(graph: LabelledGraph) -> InternedGraph:
    """Intern ``graph`` into integer lists, cached in a bounded process-wide LRU keyed by the graph."""
    interned = _INTERN_CACHE.get(graph)
    if interned is not None:
        global_metrics().inc(INTERN_CACHE_HITS)
        return interned
    global_metrics().inc(INTERN_CACHE_MISSES)
    with trace.span("interned.intern", nodes=graph.num_nodes()):
        interned = _build_interned(graph)
    _INTERN_CACHE.put(graph, interned)
    return interned


def _build_interned(graph: LabelledGraph) -> InternedGraph:
    """Flatten one graph into dense indices, sorted adjacency lists and label codes."""
    nodes = graph.nodes()
    index = {v: i for i, v in enumerate(nodes)}
    adj_lists = [sorted(index[w] for w in graph.neighbours(v)) for v in nodes]
    labels_list = [graph.label(v) for v in nodes]
    label_codes = [_label_code(lab) for lab in labels_list]
    return InternedGraph(graph, nodes, label_codes, adj_lists, labels_list)


# ---------------------------------------------------------------------- #
# View construction
# ---------------------------------------------------------------------- #


def _build_ball(interned: InternedGraph, members: Tuple[int, ...]) -> InternedBall:
    """Build the shared induced ball on ``members`` (ascending global indices)."""
    local_of = {g: l for l, g in enumerate(members)}
    nodes = interned.nodes
    ball_nodes = tuple(nodes[g] for g in members)
    if len(members) == interned.n:
        # The ball covers the whole graph (radius at or beyond the
        # diameter): the induced subgraph IS the source graph — reuse it.
        return InternedBall(interned, members, local_of, interned.source, ball_nodes)
    adj: Dict[Node, frozenset] = {}
    labels: Dict[Node, object] = {}
    adj_lists = interned.adj_lists
    labels_list = interned.labels_list
    for g in members:
        node = nodes[g]
        adj[node] = frozenset(nodes[h] for h in adj_lists[g] if h in local_of)
        labels[node] = labels_list[g]
    ball_graph = LabelledGraph._from_trusted(adj, labels)
    return InternedBall(interned, members, local_of, ball_graph, ball_nodes)


def interned_id_free_views(graph: LabelledGraph, radius: int) -> Dict[Node, Neighbourhood]:
    """Extract every node's id-free radius-``radius`` view through the interned core.

    Centres whose balls coincide share one induced :class:`LabelledGraph`;
    every returned view carries an :class:`InternedView` payload for
    canonical keys.  An empty graph has no views.
    """
    if radius < 0:
        raise GraphError(f"radius must be non-negative, got {radius}")
    interned = intern_graph(graph)
    views: Dict[Node, Neighbourhood] = {}
    balls: Dict[Tuple[int, ...], InternedBall] = {}
    nodes = interned.nodes
    for ci, (members, dist_local) in enumerate(interned.ball_table(radius)):
        ball = balls.get(members)
        if ball is None:
            ball = balls[members] = _build_ball(interned, members)
        distances = dict(zip(ball.ball_nodes, dist_local))
        payload = InternedView(ball, dist_local)
        views[nodes[ci]] = Neighbourhood._from_trusted(
            ball.graph, nodes[ci], radius, distances, None, payload
        )
    return views


# ---------------------------------------------------------------------- #
# Canonical keys
# ---------------------------------------------------------------------- #


def _local_lists(ball: InternedBall) -> Tuple[List[int], List[List[int]], List[Tuple[int, int]]]:
    """Return ``ball``'s member-local ``(label_codes, neighbours, edges)``, cached on the ball.

    ``neighbours`` holds each member's in-ball neighbours, ascending;
    ``edges`` the intra-ball edges as ``(u, w)`` pairs with ``u < w``.
    """
    if ball._local is None:
        local_of = ball.local_of
        adj_lists = ball.interned.adj_lists
        label_codes = ball.interned.label_codes
        neighbours = [[local_of[h] for h in adj_lists[g] if h in local_of] for g in ball.members]
        edges = [(u, w) for u, row in enumerate(neighbours) for w in row if u < w]
        ball._local = ([label_codes[g] for g in ball.members], neighbours, edges)
    return ball._local


def interned_view_key(view: Neighbourhood, use_ids: bool) -> Optional[Tuple]:
    """Compute an exact canonical key of an interned view as an integer tuple, or ``None``.

    Equal keys hold exactly for centred-isomorphic views (labels,
    distances and — with ``use_ids`` — identifiers preserved), across
    graphs.  With ``use_ids`` the key is ``(radius, (id, distance, label
    code) per node, edge pairs)`` with nodes in identifier order: an
    :class:`~repro.graphs.identifiers.IdAssignment` is one-to-one, so that
    order is canonical — no search, identifiers of any size.  Without, it
    is ``(radius, sorted colours, edge pairs)`` minimised over the node
    orderings the colour classes allow (see :func:`_oblivious_key`).
    ``None`` means the view carries no interned payload (or, with
    ``use_ids``, no identifiers), or the Id-oblivious search would exceed
    its budget; callers then evaluate without memoising.
    """
    payload: Optional[InternedView] = view.interned
    if payload is None:
        return None
    ball = payload.ball
    label_codes, neighbours, edges = _local_lists(ball)
    dist = payload.dist_local
    if not use_ids:
        return _oblivious_key(view.radius, dist, label_codes, neighbours, edges)
    ids = view.ids
    if ids is None:
        return None
    id_list = [ids[v] for v in ball.ball_nodes]
    order = sorted(range(len(id_list)), key=id_list.__getitem__)
    rank = [0] * len(order)
    for r, local in enumerate(order):
        rank[local] = r
    nodes = tuple([(id_list[local], dist[local], label_codes[local]) for local in order])
    return (view.radius, nodes, _renumbered(edges, rank))


def _renumbered(edges: List[Tuple[int, int]], rank: List[int]) -> Tuple[Tuple[int, int], ...]:
    """``edges`` with every node ``u`` renamed ``rank[u]``: pairs ascending, sorted."""
    renamed = []
    for u, w in edges:
        ru, rw = rank[u], rank[w]
        renamed.append((ru, rw) if ru < rw else (rw, ru))
    renamed.sort()
    return tuple(renamed)


def _oblivious_key(
    radius: int, dist: List[int], label_codes: List[int], neighbours: List[List[int]], edges: List[Tuple[int, int]]
) -> Optional[Tuple]:
    """The Id-oblivious key: colours ``(distance, label code, in-ball degree)``, searched by class.

    The centre is the only node at distance 0.  Classes are refined by
    1-WL when the search is large; the edge pairs are the smallest over
    every ordering the classes allow.
    """
    colours = list(zip(dist, label_codes, map(len, neighbours)))
    # Class ids follow the sorted colours, so class order is canonical — a
    # pure function of the colour data, invariant under isomorphism.
    table = {colour: cid for cid, colour in enumerate(sorted(set(colours)))}
    class_ids = [table[colour] for colour in colours]
    if _search_size(class_ids) > _REFINEMENT_THRESHOLD:
        class_ids = _refine(class_ids, neighbours)
        if _search_size(class_ids) > _MAX_SEARCH:
            return None
    classes: Dict[int, List[int]] = {}
    for local, cid in enumerate(class_ids):
        classes.setdefault(cid, []).append(local)
    ordered_classes = [classes[cid] for cid in sorted(classes)]
    if any(len(members) > _MAX_CLASS for members in ordered_classes):
        return None

    # Refined classes only split colour classes, in colour order, so every
    # ordering puts the nodes' colours in sorted order: only edges differ.
    rank = [0] * len(colours)
    best: Optional[Tuple[Tuple[int, int], ...]] = None
    for perm_lists in product(*[list(permutations(members)) for members in ordered_classes]):
        for r, local in enumerate(chain.from_iterable(perm_lists)):
            rank[local] = r
        candidate = _renumbered(edges, rank)
        if best is None or candidate < best:
            best = candidate
    return (radius, tuple(sorted(colours)), best)


def _search_size(class_ids: List[int]) -> int:
    """Number of orderings the canonical search would enumerate (product of class factorials)."""
    return prod(factorial(count) for count in Counter(class_ids).values())


def _refine(class_ids: List[int], neighbours: List[List[int]]) -> List[int]:
    """1-WL refinement of colour classes by neighbour colour multisets (3 rounds)."""
    current = class_ids
    for _ in range(3):
        signatures = [
            (current[local], tuple(sorted(current[nbr] for nbr in row)))
            for local, row in enumerate(neighbours)
        ]
        table = {signature: cid for cid, signature in enumerate(sorted(set(signatures)))}
        refined = [table[signature] for signature in signatures]
        if refined == current:
            break
        current = refined
    return current
