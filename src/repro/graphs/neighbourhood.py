"""Radius-t neighbourhoods (balls) — what a local algorithm can see.

The paper defines a *local algorithm with local horizon t* as a function
whose output at node ``v`` depends only on the restriction of the input
structure ``(G, x, Id)`` to ``B(v, t)``, the set of nodes within distance
``t`` of ``v`` (Section 1.2).

:class:`Neighbourhood` captures exactly that restriction: the induced
subgraph on ``B(v, t)``, the labels, the (optional) identifiers, the centre
``v`` and the distance of every ball node from the centre.  Two views of
comparison are provided:

* :meth:`Neighbourhood.structure_key` — a key that identifies the
  neighbourhood *up to isomorphism fixing the centre*, **including**
  identifiers.  Algorithms in the full LOCAL model are functions of this key.
* :meth:`Neighbourhood.oblivious_key` — the same but **ignoring**
  identifiers.  Id-oblivious algorithms are functions of this key, and the
  impossibility arguments of the paper are coverage statements about sets of
  oblivious keys.

The keys are exact (not hashes): they are computed by a canonical-form
search over centre-and-distance-preserving relabellings, which is feasible
because the constructions in the paper have small balls for the radii used
in experiments.  A cheaper Weisfeiler–Lehman certificate is also provided
for pre-filtering large collections.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Tuple

import networkx as nx

from ..errors import GraphError, IdentifierError
from .identifiers import IdAssignment
from .labelled_graph import LabelledGraph, Label, Node

__all__ = ["Neighbourhood", "extract_neighbourhood", "all_neighbourhoods"]


class Neighbourhood:
    """The restriction ``(G, x, Id) | B(v, t)`` of an input to a radius-t ball.

    Parameters
    ----------
    graph:
        The induced labelled subgraph on the ball.
    center:
        The centre node ``v``.
    radius:
        The horizon ``t``.
    distances:
        Hop distance of every ball node from the centre.
    ids:
        The identifier assignment restricted to the ball, or ``None`` when
        the view is identifier-free.

    Notes
    -----
    Views produced by the interned core (:mod:`repro.engine.interned`)
    additionally carry an ``interned`` payload — integer ball data the
    caching engine uses to compute canonical tuple keys.  Views built
    through the ordinary constructor have ``interned = None``; they behave
    identically, except that the caching engine does not memoise them.
    """

    __slots__ = ("graph", "center", "radius", "distances", "ids", "interned", "_struct_key", "_obliv_key")

    def __init__(
        self,
        graph: LabelledGraph,
        center: Node,
        radius: int,
        distances: Dict[Node, int],
        ids: Optional[IdAssignment] = None,
    ) -> None:
        if not graph.has_node(center):
            raise GraphError(f"centre {center!r} is not in the ball graph")
        if set(distances) != set(graph.nodes()):
            raise GraphError("distance map must cover exactly the ball nodes")
        if ids is not None:
            missing = [v for v in graph.nodes() if v not in ids]
            if missing:
                raise IdentifierError(f"identifier view misses ball nodes {missing[:5]!r}")
            ids = ids.restrict(graph.nodes())
        self.graph = graph
        self.center = center
        self.radius = radius
        self.distances = dict(distances)
        self.ids = ids
        self.interned = None
        self._struct_key: Optional[Tuple] = None
        self._obliv_key: Optional[Tuple] = None

    @classmethod
    def _from_trusted(
        cls,
        graph: LabelledGraph,
        center: Node,
        radius: int,
        distances: Dict[Node, int],
        ids: Optional[IdAssignment],
        interned: Optional[object] = None,
    ) -> "Neighbourhood":
        """Build a view from pre-validated parts, skipping all checks.

        Internal fast path for the interned core: ``distances`` must
        cover exactly the ball nodes and ``ids`` (when given) must already
        be restricted to them.  ``distances`` is adopted without copying;
        ``interned`` attaches the payload used for canonical keys.
        """
        view = cls.__new__(cls)
        view.graph = graph
        view.center = center
        view.radius = radius
        view.distances = distances
        view.ids = ids
        view.interned = interned
        view._struct_key = None
        view._obliv_key = None
        return view

    # ------------------------------------------------------------------ #
    # Convenience accessors used by node algorithms
    # ------------------------------------------------------------------ #

    def center_label(self) -> Label:
        """Return the label of the centre node."""
        return self.graph.label(self.center)

    def center_id(self) -> int:
        """Return the identifier of the centre node (requires an id view)."""
        if self.ids is None:
            raise IdentifierError("this neighbourhood has no identifier information")
        return self.ids[self.center]

    def center_degree(self) -> int:
        """Return the degree of the centre *within the ball* (equals its true degree when radius >= 1)."""
        return self.graph.degree(self.center)

    def nodes(self) -> Tuple[Node, ...]:
        """Return the ball nodes."""
        return self.graph.nodes()

    def labels(self) -> Dict[Node, Label]:
        """Return node → label for the ball."""
        return self.graph.labels()

    def label_of(self, v: Node) -> Label:
        """Return the label of a ball node."""
        return self.graph.label(v)

    def id_of(self, v: Node) -> int:
        """Return the identifier of a ball node (requires an id view)."""
        if self.ids is None:
            raise IdentifierError("this neighbourhood has no identifier information")
        return self.ids[v]

    def identifiers(self) -> Tuple[int, ...]:
        """Return all identifiers visible in the ball (requires an id view)."""
        if self.ids is None:
            raise IdentifierError("this neighbourhood has no identifier information")
        return tuple(self.ids[v] for v in self.graph.nodes())

    def max_visible_identifier(self) -> int:
        """Return the largest identifier visible in the ball."""
        return max(self.identifiers())

    def distance(self, v: Node) -> int:
        """Return the hop distance of ``v`` from the centre."""
        return self.distances[v]

    def nodes_at_distance(self, d: int) -> Tuple[Node, ...]:
        """Return the ball nodes at exactly distance ``d`` from the centre."""
        return tuple(v for v in self.graph.nodes() if self.distances[v] == d)

    def boundary_nodes(self) -> Tuple[Node, ...]:
        """Return the nodes at distance exactly ``radius`` (the ball boundary)."""
        return self.nodes_at_distance(self.radius)

    def without_ids(self) -> "Neighbourhood":
        """Return the same view with the identifiers stripped (what an Id-oblivious algorithm sees)."""
        if self.ids is None:
            return self
        return Neighbourhood._from_trusted(
            self.graph, self.center, self.radius, self.distances, None, self.interned
        )

    def with_ids(self, ids: IdAssignment) -> "Neighbourhood":
        """Return the same view with identifiers (re)attached, restricted to the ball.

        Raises :class:`IdentifierError` when ``ids`` misses a ball node.
        """
        ids._check_covers(self.distances)
        return self._with_covering_ids(ids)

    def _with_covering_ids(self, ids: IdAssignment) -> "Neighbourhood":
        """:meth:`with_ids` for an assignment the caller has already checked covers the ball.

        The engines check coverage once per job, for the whole graph, and
        then attach identifiers to every view through this method.
        """
        return Neighbourhood._from_trusted(
            self.graph, self.center, self.radius, self.distances, ids._restricted(self.distances), self.interned
        )

    def __repr__(self) -> str:
        return (
            f"Neighbourhood(center={self.center!r}, radius={self.radius}, "
            f"nodes={self.graph.num_nodes()}, ids={'yes' if self.ids is not None else 'no'})"
        )

    # ------------------------------------------------------------------ #
    # Canonical keys
    # ------------------------------------------------------------------ #

    def oblivious_key(self) -> Tuple:
        """Return a canonical key identifying the view up to centred isomorphism, ignoring identifiers.

        Two neighbourhoods have the same oblivious key iff there is a graph
        isomorphism between their ball graphs that maps centre to centre,
        preserves labels, and preserves distance from the centre.  This is
        exactly the equivalence an Id-oblivious algorithm cannot refine.
        """
        if self._obliv_key is None:
            self._obliv_key = _canonical_key(self, use_ids=False)
        return self._obliv_key

    def structure_key(self) -> Tuple:
        """Return a canonical key identifying the view up to centred isomorphism, *including* identifiers.

        A (possibly Id-aware) local algorithm is precisely a function of this
        key: by definition its output may only depend on the isomorphism type
        of the identifier-labelled ball.
        """
        if self._struct_key is None:
            self._struct_key = _canonical_key(self, use_ids=self.ids is not None)
        return self._struct_key

    def wl_certificate(self, iterations: int = 3) -> str:
        """Return a Weisfeiler–Lehman hash certificate of the (id-free) centred view.

        Equal views always get equal certificates; unequal views usually get
        different ones.  Used to pre-bucket large neighbourhood collections
        before exact key comparison.
        """
        g = self.graph.to_networkx()
        for v in g.nodes():
            g.nodes[v]["wl"] = repr((g.nodes[v].get("label"), self.distances[v], v == self.center))
        return nx.weisfeiler_lehman_graph_hash(g, node_attr="wl", iterations=iterations)

    def isomorphic_to(self, other: "Neighbourhood", use_ids: bool = False) -> bool:
        """Return ``True`` when the two views are centred-isomorphic.

        Parameters
        ----------
        other:
            The view to compare with.
        use_ids:
            When ``True`` the isomorphism must also preserve identifiers.
        """
        if use_ids:
            return self.structure_key() == other.structure_key()
        return self.oblivious_key() == other.oblivious_key()


# ---------------------------------------------------------------------- #
# Canonical-form computation
# ---------------------------------------------------------------------- #


def _node_colour(view: Neighbourhood, v: Node, use_ids: bool) -> Tuple:
    """The invariant "colour" of a ball node used for canonical ordering."""
    base = (
        view.distances[v],
        repr(view.graph.label(v)),
        view.graph.degree(v),
        1 if v == view.center else 0,
    )
    if use_ids and view.ids is not None:
        return base + (view.ids[v],)
    return base


def _refine_colours(view: Neighbourhood, use_ids: bool, rounds: int = 3) -> Dict[Node, Tuple]:
    """Iteratively refine node colours by neighbour multisets (1-WL refinement)."""
    colours: Dict[Node, Tuple] = {v: _node_colour(view, v, use_ids) for v in view.graph.nodes()}
    for _ in range(rounds):
        new: Dict[Node, Tuple] = {}
        for v in view.graph.nodes():
            nbr_colours = tuple(sorted(repr(colours[w]) for w in view.graph.neighbours(v)))
            new[v] = (colours[v], nbr_colours)
        colours = new
    return colours


def _search_size(classes: Dict[str, List[Node]]) -> int:
    """Number of orderings the canonical search would enumerate (product of class factorials)."""
    total = 1
    for cls in classes.values():
        for k in range(2, len(cls) + 1):
            total *= k
        if total > 1_000_000:  # avoid huge exact arithmetic; caller only compares against a small cap
            return total
    return total


#: When the base colours already cut the ordering search down to at most this
#: many permutations, the (repr-heavy) iterative refinement is skipped: it
#: could only shrink an already tiny search, and on the small balls that
#: dominate verification sweeps it costs an order of magnitude more than the
#: search itself.
_REFINEMENT_THRESHOLD = 48


def _canonical_key(view: Neighbourhood, use_ids: bool) -> Tuple:
    """Compute an exact canonical key of a centred, labelled (and optionally id-carrying) ball.

    The key is the lexicographically smallest encoding of the ball over all
    orderings of its nodes that sort consistently with the (possibly
    refined) colours.  Nodes with distinct colours never need to be permuted
    against each other, so the search only permutes within colour classes;
    for the graphs in this library those classes are small.  Refinement is
    only performed when the base colours leave the search too coarse, which
    keeps the key computation cheap for the small balls that verification
    sweeps and the caching engine churn through.
    """
    nodes = list(view.graph.nodes())

    # Group nodes into colour classes, ordered by colour representation.
    classes: Dict[str, List[Node]] = {}
    for v in nodes:
        classes.setdefault(repr(_node_colour(view, v, use_ids)), []).append(v)
    if _search_size(classes) > _REFINEMENT_THRESHOLD:
        colours = _refine_colours(view, use_ids)
        classes = {}
        for v in nodes:
            classes.setdefault(repr(colours[v]), []).append(v)
    ordered_class_keys = sorted(classes.keys())

    # Safety valve: if a colour class is huge, fall back to a coarse (but
    # still sound-for-equality) key based on sorted colour multisets plus a
    # WL hash.  Equal graphs still map to equal keys; the risk of unequal
    # graphs colliding is negligible for the instance sizes used here and is
    # acceptable for pre-filtering (exact checks use networkx isomorphism).
    if any(len(cls) > 8 for cls in classes.values()):
        colour_multiset = tuple(sorted(repr(colours[v]) for v in nodes))
        return ("wl-fallback", colour_multiset, view.wl_certificate())

    best: Optional[Tuple] = None
    class_lists = [classes[k] for k in ordered_class_keys]
    for perm_lists in itertools.product(*[itertools.permutations(cls) for cls in class_lists]):
        ordering: List[Node] = [v for group in perm_lists for v in group]
        index = {v: i for i, v in enumerate(ordering)}
        edges = tuple(sorted((min(index[u], index[w]), max(index[u], index[w])) for (u, w) in view.graph.edges()))
        node_data = tuple(
            (
                view.distances[v],
                repr(view.graph.label(v)),
                (view.ids[v] if (use_ids and view.ids is not None) else None),
                1 if v == view.center else 0,
            )
            for v in ordering
        )
        key = (node_data, edges)
        if best is None or key < best:
            best = key
    assert best is not None
    return ("exact", view.radius) + best


# ---------------------------------------------------------------------- #
# Extraction from full inputs
# ---------------------------------------------------------------------- #


def extract_neighbourhood(
    graph: LabelledGraph,
    center: Node,
    radius: int,
    ids: Optional[IdAssignment] = None,
) -> Neighbourhood:
    """Extract ``(G, x, Id) | B(center, radius)`` from a full input.

    Parameters
    ----------
    graph:
        The full labelled graph.
    center:
        The node whose view is being extracted.
    radius:
        The local horizon ``t``.
    ids:
        Optional identifier assignment on the *full* graph; it is restricted
        to the ball automatically.
    """
    if radius < 0:
        raise GraphError(f"radius must be non-negative, got {radius}")
    distances = graph.bfs_distances(center, radius=radius)
    ball = graph.induced_subgraph(distances.keys())
    ball_ids = ids.restrict(distances.keys()) if ids is not None else None
    return Neighbourhood(ball, center, radius, distances, ball_ids)


def all_neighbourhoods(
    graph: LabelledGraph,
    radius: int,
    ids: Optional[IdAssignment] = None,
    centers: Optional[Iterable[Node]] = None,
) -> List[Neighbourhood]:
    """Extract the radius-``radius`` neighbourhood of every node (or of ``centers``)."""
    chosen = list(centers) if centers is not None else list(graph.nodes())
    return [extract_neighbourhood(graph, v, radius, ids) for v in chosen]
