"""The Section-2 separation witness: properties ``P`` and ``P'`` and their deciders.

* ``P`` (:class:`SmallInstancesProperty`) — the "small" instances: for every
  ``r``, the pivot-augmented depth-``r`` slabs ``Hr`` of the depth-``R(r)``
  layered tree.  Theorem 1 (under ``(B)``): ``P ∈ LD \\ LD*``.
* ``P'`` (:class:`SmallOrLargeProperty`) — ``P`` together with the "large"
  instances ``Tr`` (the full depth-``R(r)`` layered trees).  ``P' ∈ LD*``:
  the structure can be verified locally without identifiers, which is what
  makes ``P`` promise-free.

The three algorithms of the construction:

* :class:`StructureVerifier` — the Id-oblivious verifier of ``P'``
  (accepts exactly: valid small instances and valid large trees);
* :class:`BoundedIdsLDDecider` — the LD decider of ``P``: apply the
  structure verifier's rules, then additionally reject when the node's own
  identifier is at least ``R(r)`` (which can only happen in a large
  instance);
* the impossibility side is produced by
  :func:`section2_impossibility_certificate` via neighbourhood coverage.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ...analysis.coverage import build_impossibility_certificate
from ...decision.classes import ImpossibilityCertificate
from ...engine.base import EngineLike
from ...decision.property import InstanceFamily, Property
from ...errors import ConstructionError
from ...graphs.identifiers import default_bound
from ...graphs.labelled_graph import LabelledGraph, Node
from ...graphs.neighbourhood import Neighbourhood
from ...local_model.algorithm import IdObliviousAlgorithm, LocalAlgorithm
from ...local_model.outputs import NO, YES, Verdict
from .layered_trees import (
    PIVOT_TAG,
    SlabSpec,
    bound_R,
    build_layered_tree,
    build_small_instance,
    covering_small_instances,
    enumerate_slab_specs,
    slab_border_nodes,
    slab_nodes,
)

__all__ = [
    "is_cell_label",
    "is_pivot_label",
    "SmallInstancesProperty",
    "SmallOrLargeProperty",
    "StructureVerifier",
    "BoundedIdsLDDecider",
    "section2_impossibility_certificate",
    "section2_family",
]


def is_cell_label(label: object) -> bool:
    """``True`` for labels of the form ``(r, x, y)`` with integer components."""
    return (
        isinstance(label, tuple)
        and len(label) == 3
        and all(isinstance(c, int) for c in label)
    )


def is_pivot_label(label: object) -> bool:
    """``True`` for labels of the form ``(r, "pivot")``."""
    return (
        isinstance(label, tuple)
        and len(label) == 2
        and isinstance(label[0], int)
        and label[1] == PIVOT_TAG
    )


# ---------------------------------------------------------------------- #
# Ground-truth membership
# ---------------------------------------------------------------------- #


def _extract_coordinates(graph: LabelledGraph) -> Optional[Tuple[int, Dict[Tuple[int, int], Node], List[Node]]]:
    """Split a candidate instance into (r, coordinate map, pivot nodes).

    Returns ``None`` if labels are malformed, the ``r`` values disagree, or
    two nodes claim the same coordinates.
    """
    r_values: Set[int] = set()
    coords: Dict[Tuple[int, int], Node] = {}
    pivots: List[Node] = []
    for v in graph.nodes():
        lab = graph.label(v)
        if is_pivot_label(lab):
            pivots.append(v)
            r_values.add(lab[0])
        elif is_cell_label(lab):
            r_values.add(lab[0])
            key = (lab[1], lab[2])
            if key in coords:
                return None
            coords[key] = v
        else:
            return None
    if len(r_values) != 1:
        return None
    return (next(iter(r_values)), coords, pivots)


def _edges_match(graph: LabelledGraph, coords: Dict[Tuple[int, int], Node], extra: Set[Tuple[Node, Node]]) -> bool:
    """Check that the graph's edge set is exactly the tree-induced edges on ``coords`` plus ``extra``."""
    expected: Set[frozenset] = set(frozenset(e) for e in extra)
    for (x, y), v in coords.items():
        for nbr in ((2 * x, y + 1), (2 * x + 1, y + 1), (x + 1, y)):
            if nbr in coords:
                expected.add(frozenset((v, coords[nbr])))
    actual = set(frozenset(e) for e in graph.edges())
    return actual == expected


def _tree_depth(tree_depth: Optional[int], r: int, bound_fn: Callable[[int], int]) -> int:
    """The layered tree's depth: the stand-in ``tree_depth`` when set, else the paper's ``R(r)``."""
    return bound_R(r, bound_fn) if tree_depth is None else tree_depth


class SmallInstancesProperty(Property):
    """The property ``P = ⋃_r Hr``: pivot-augmented depth-``r`` slabs of the depth-``R(r)`` layered tree."""

    def __init__(
        self,
        bound_fn: Callable[[int], int] = default_bound,
        root_widths: Sequence[int] = (1, 2),
        tree_depth: Optional[int] = None,
    ) -> None:
        self.bound_fn = bound_fn
        self.root_widths = tuple(root_widths)
        self.tree_depth = tree_depth
        self.name = "sec2-small-instances(P)"

    def _matching_spec(self, graph: LabelledGraph) -> Optional[SlabSpec]:
        parsed = _extract_coordinates(graph)
        if parsed is None:
            return None
        r, coords, pivots = parsed
        if len(pivots) != 1 or not coords:
            return None
        pivot = pivots[0]
        tree_depth = _tree_depth(self.tree_depth, r, self.bound_fn)
        ys = [y for (_, y) in coords]
        xs_at_top = sorted(x for (x, y) in coords if y == min(ys))
        y0 = min(ys)
        if max(ys) - y0 != r:
            return None
        width = len(xs_at_top)
        if width not in self.root_widths:
            return None
        x0 = xs_at_top[0]
        if xs_at_top != list(range(x0, x0 + width)):
            return None
        try:
            spec = SlabSpec(r=r, tree_depth=tree_depth, y0=y0, x0=x0, root_width=width)
        except ConstructionError:
            return None
        if set(coords.keys()) != set(slab_nodes(spec)):
            return None
        border = slab_border_nodes(spec)
        pivot_edges = {frozenset((pivot, coords[c])) for c in border}
        if not _edges_match(graph, coords, pivot_edges):
            return None
        # The pivot must be adjacent to exactly the border nodes.
        if set(graph.neighbours(pivot)) != {coords[c] for c in border}:
            return None
        return spec

    def contains(self, graph: LabelledGraph) -> bool:
        return self._matching_spec(graph) is not None


class SmallOrLargeProperty(Property):
    """The property ``P' = P ∪ {Tr : r >= 0}`` — used to show the promise of Section 2 is locally verifiable."""

    def __init__(
        self,
        bound_fn: Callable[[int], int] = default_bound,
        root_widths: Sequence[int] = (1, 2),
        tree_depth: Optional[int] = None,
    ) -> None:
        self.bound_fn = bound_fn
        self.tree_depth = tree_depth
        self.small = SmallInstancesProperty(bound_fn, root_widths, tree_depth)
        self.name = "sec2-small-or-large(P')"

    def _is_large_instance(self, graph: LabelledGraph, required_depth: Optional[int] = None) -> bool:
        parsed = _extract_coordinates(graph)
        if parsed is None:
            return False
        r, coords, pivots = parsed
        if pivots or not coords:
            return False
        depth = required_depth if required_depth is not None else _tree_depth(self.tree_depth, r, self.bound_fn)
        expected = {(x, y) for y in range(depth + 1) for x in range(2**y)}
        if set(coords.keys()) != expected:
            return False
        return _edges_match(graph, coords, set())

    def contains(self, graph: LabelledGraph) -> bool:
        return self.small.contains(graph) or self._is_large_instance(graph)


# ---------------------------------------------------------------------- #
# Local algorithms
# ---------------------------------------------------------------------- #


class _StructureRules:
    """The per-node rules of the ``P'`` structure verifier.

    Shared by :class:`StructureVerifier` and :class:`BoundedIdsLDDecider`,
    which both hold the rules' whole state as plain attributes:
    ``bound_fn``, ``root_widths`` and ``tree_depth``.
    """

    def _check_cell(self, view: Neighbourhood) -> Verdict:
        r, x, y = view.center_label()
        depth = _tree_depth(self.tree_depth, r, self.bound_fn)
        if not (0 <= y <= depth and 0 <= x < 2**y):
            return NO
        neighbours = view.nodes_at_distance(1)
        pivot_neighbours = 0
        seen_coords: Set[Tuple[int, int]] = set()
        allowed = {
            (x // 2, y - 1),
            (2 * x, y + 1),
            (2 * x + 1, y + 1),
            (x - 1, y),
            (x + 1, y),
        }
        for u in neighbours:
            lab = view.label_of(u)
            if is_pivot_label(lab):
                if lab[0] != r:
                    return NO
                pivot_neighbours += 1
                continue
            if not is_cell_label(lab) or lab[0] != r:
                return NO
            coord = (lab[1], lab[2])
            if coord in seen_coords or coord not in allowed:
                return NO
            seen_coords.add(coord)
        if pivot_neighbours > 1:
            return NO
        if pivot_neighbours == 0:
            required: Set[Tuple[int, int]] = set()
            if y > 0:
                required.add((x // 2, y - 1))
            if y < depth:
                required.add((2 * x, y + 1))
                required.add((2 * x + 1, y + 1))
            if x > 0:
                required.add((x - 1, y))
            if x < 2**y - 1:
                required.add((x + 1, y))
            if not required <= seen_coords:
                return NO
        return YES

    def _check_pivot(self, view: Neighbourhood) -> Verdict:
        r = view.center_label()[0]
        depth = _tree_depth(self.tree_depth, r, self.bound_fn)
        coords: Set[Tuple[int, int]] = set()
        for u in view.nodes_at_distance(1):
            lab = view.label_of(u)
            if not is_cell_label(lab) or lab[0] != r:
                return NO
            coord = (lab[1], lab[2])
            if coord in coords:
                return NO
            coords.add(coord)
        if not coords:
            return NO
        # Reconstruct candidate slab parameters from the border coordinates
        # and verify that some candidate's border matches exactly.  The top
        # level of the slab is at most r levels above the shallowest border
        # node (when the slab is rooted at the tree's root, the top row is
        # not part of the border at all).
        min_border_y = min(y for (_, y) in coords)
        for width in self.root_widths:
            for y0 in range(max(0, min_border_y - r), min_border_y + 1):
                candidate_x0: Set[int] = set()
                for (bx, by) in coords:
                    if by < y0 or by > y0 + r:
                        continue
                    shift = by - y0
                    candidate_x0.add(bx >> shift)
                    candidate_x0.add((bx >> shift) - width + 1)
                for x0 in sorted(candidate_x0):
                    try:
                        spec = SlabSpec(r=r, tree_depth=depth, y0=y0, x0=x0, root_width=width)
                    except ConstructionError:
                        continue
                    if slab_border_nodes(spec) == coords:
                        return YES
        return NO

    def _structure_verdict(self, view: Neighbourhood) -> Verdict:
        label = view.center_label()
        if is_pivot_label(label):
            return self._check_pivot(view)
        if is_cell_label(label):
            return self._check_cell(view)
        return NO


class StructureVerifier(_StructureRules, IdObliviousAlgorithm):
    """Id-oblivious horizon-1 verifier of ``P'`` (valid small instance or valid large tree).

    Per-node rules (Section 2's "straightforward to verify locally with the
    help of coordinates"):

    * every node and all its neighbours agree on ``r``;
    * a coordinate node ``(r, x, y)`` checks ``0 <= x < 2^y`` and
      ``0 <= y <= R(r)``, that every coordinate neighbour sits at a legal
      relative position (parent, child, or horizontal neighbour) with no
      duplicates, and that it is adjacent to at most one pivot;
    * a coordinate node with **no** pivot neighbour must see its full
      complement of tree neighbours (parent iff ``y > 0``, both children iff
      ``y < R(r)``, horizontal neighbours iff they exist in the tree) — this
      is how "medium" trees and pivot-less slabs get rejected;
    * a pivot node must see exactly the border of a legal slab.

    ``tree_depth`` lets experiments run the same verifier against stand-in
    trees of smaller depth than the true ``R(r)`` (the structure rules are
    identical; only the numeric depth differs).  ``None`` means ``R(r)``.
    """

    def __init__(
        self,
        bound_fn: Callable[[int], int] = default_bound,
        root_widths: Sequence[int] = (1, 2),
        tree_depth: Optional[int] = None,
    ) -> None:
        super().__init__(radius=1, name="sec2-structure-verifier")
        self.bound_fn = bound_fn
        self.root_widths = tuple(root_widths)
        self.tree_depth = tree_depth

    evaluate = _StructureRules._structure_verdict


class BoundedIdsLDDecider(_StructureRules, LocalAlgorithm):
    """The LD decider of ``P`` (Theorem 1 under ``(B)``).

    Stage 1: run the Id-oblivious structure rules of
    :class:`StructureVerifier` on the view with its identifiers stripped
    (so anything outside ``P'`` is rejected).  Stage 2: reject when the
    node's own identifier is at least ``R(r)`` — identifiers that large
    cannot occur in a small instance under assumption ``(B)``, but some
    identifier that large must occur in the large instance ``Tr`` because
    it has more than ``R(r)`` nodes.
    """

    def __init__(
        self,
        bound_fn: Callable[[int], int] = default_bound,
        root_widths: Sequence[int] = (1, 2),
        tree_depth: Optional[int] = None,
    ) -> None:
        super().__init__(radius=1, name="sec2-ld-decider")
        self.bound_fn = bound_fn
        self.root_widths = tuple(root_widths)
        self.tree_depth = tree_depth

    def evaluate(self, view: Neighbourhood) -> Verdict:
        if self._structure_verdict(view.without_ids()) == NO:
            return NO
        r = view.center_label()[0]
        if view.center_id() >= bound_R(r, self.bound_fn):
            return NO
        return YES


# ---------------------------------------------------------------------- #
# Experiment helpers
# ---------------------------------------------------------------------- #


def section2_impossibility_certificate(
    r: int,
    horizon: int,
    tree_depth: int,
    bound_fn: Callable[[int], int] = default_bound,
    engine: EngineLike = None,
) -> ImpossibilityCertificate:
    """Coverage certificate: every radius-``horizon`` view of the depth-``tree_depth`` tree occurs in a small instance.

    With ``tree_depth = bound_R(r, bound_fn)`` this is the paper's exact
    statement; smaller depths exercise the identical coverage mechanism at
    tractable sizes (the coverage argument never uses the numeric depth).
    """
    large = build_layered_tree(tree_depth, r)
    covering = covering_small_instances(r, tree_depth, horizon)
    return build_impossibility_certificate(
        property_name="sec2-small-instances(P)",
        radius=horizon,
        fooling_instance=large,
        covering_yes_instances=covering,
        notes=f"r={r}, horizon={horizon}, tree_depth={tree_depth}, R(r)={bound_R(r, bound_fn)}",
        engine=engine,
    )


def section2_family(
    r: int,
    tree_depth: int,
    bound_fn: Callable[[int], int] = default_bound,
    max_small: int = 12,
) -> InstanceFamily:
    """An instance family for verifying the Section-2 deciders on stand-in tree depths.

    Yes-instances: a selection of small instances (slabs + pivot).
    No-instances: the depth-``tree_depth`` layered tree (the stand-in for
    ``Tr``) and a few corrupted instances (slab without pivot, tree one
    level too shallow).
    """
    yes: List[LabelledGraph] = []
    for spec in enumerate_slab_specs(r, tree_depth, max_specs=max_small):
        yes.append(build_small_instance(spec))
    no: List[LabelledGraph] = [build_layered_tree(tree_depth, r)]
    # A slab without its pivot is not in P.
    first_spec = next(enumerate_slab_specs(r, tree_depth, max_specs=1))
    slab_only = build_small_instance(first_spec)
    pivot_nodes = [v for v in slab_only.nodes() if is_pivot_label(slab_only.label(v))]
    no.append(slab_only.induced_subgraph([v for v in slab_only.nodes() if v not in pivot_nodes]))
    # A tree one level shallower than the claimed depth is neither small nor large.
    if tree_depth >= 1:
        no.append(build_layered_tree(tree_depth - 1, r))
    return InstanceFamily(
        name=f"sec2-family(r={r}, depth={tree_depth})",
        yes_instances=yes,
        no_instances=no,
        description="Section 2 stand-in family",
    )
