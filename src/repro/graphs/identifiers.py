"""Identifier assignments and identifier spaces.

An *input* in the paper (Section 1.2) is a triple ``(G, x, Id)`` where
``Id : V(G) -> N`` is one-to-one.  The paper's two model switches on
identifiers are:

* **(B)** — identifiers are *bounded*: there is a function ``f`` such that
  ``Id(v) < f(n)`` for every input on ``n`` nodes;
* **(¬B)** — identifiers are *unbounded*: any one-to-one map into ℕ is a
  legal assignment.

This module provides:

* :class:`IdAssignment` — a validated one-to-one node → ℕ map;
* :class:`IdentifierSpace` and its two concrete subclasses
  :class:`BoundedIdentifierSpace` (model ``(B)``) and
  :class:`UnboundedIdentifierSpace` (model ``(¬B)``) which know which
  assignments are legal and can enumerate/sample them;
* helpers for renaming identifiers (used to test Id-obliviousness) and for
  enumerating all assignments over a finite identifier pool (used by the
  generic Id-oblivious simulation ``A*`` and by the exhaustive decider
  verifiers).
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from ..errors import IdentifierError
from .labelled_graph import LabelledGraph, Node

__all__ = [
    "IdAssignment",
    "IdentifierSpace",
    "BoundedIdentifierSpace",
    "UnboundedIdentifierSpace",
    "sequential_assignment",
    "random_assignment",
    "enumerate_assignments",
    "enumerate_injections",
    "order_preserving_renamings",
    "default_bound",
]


class IdAssignment(Mapping[Node, int]):
    """A one-to-one assignment of natural-number identifiers to nodes.

    The assignment is immutable and validated on construction: identifiers
    must be non-negative integers and no two nodes may share one.

    A *restriction* (:meth:`restrict`, and the identifiers of every view
    an engine builds) shares its parent's map and exposes only its domain:
    building one costs no copy, and nodes outside the domain raise
    :class:`KeyError` like absent keys of any mapping.  The restricted map
    is materialised only when something needs all of it at once
    (equality, hashing, pickling, the helpers below).
    """

    __slots__ = ("_map", "_domain")

    def __init__(self, mapping: Mapping[Node, int]) -> None:
        values = mapping.values()
        if not (
            set(map(type, values)) <= {int}
            and len(set(values)) == len(mapping)
            and min(values, default=0) >= 0
        ):
            _validate_items(mapping)
        self._map = self._domain = dict(mapping)

    def _restricted(self, domain: Mapping[Node, object]) -> "IdAssignment":
        """Return this assignment restricted to the keys of ``domain``, without copying.

        The caller guarantees that every key of ``domain`` has an
        identifier (see :meth:`_check_covers`); a sub-map of a one-to-one
        map is one-to-one, so nothing is re-validated.  ``domain`` is
        adopted as is and must not be mutated afterwards.
        """
        sub = IdAssignment.__new__(IdAssignment)
        sub._map = self._map
        sub._domain = domain
        return sub

    def _check_covers(self, nodes: Mapping[Node, object]) -> None:
        """Raise :class:`IdentifierError` unless every key of ``nodes`` has an identifier."""
        if not self._domain.keys() >= nodes.keys():
            missing = [v for v in nodes if v not in self._domain]
            raise IdentifierError(f"identifier assignment misses nodes {missing[:5]!r}")

    def _dict(self) -> Dict[Node, int]:
        """The assignment as a plain dict, materialising a restriction once."""
        if self._domain is not self._map:
            domain = self._domain
            self._map = self._domain = dict(zip(domain, map(self._map.__getitem__, domain)))
        return self._map

    # Mapping interface -------------------------------------------------- #

    def __getitem__(self, v: Node) -> int:
        if v in self._domain:
            return self._map[v]
        raise KeyError(v)

    def __contains__(self, v: object) -> bool:
        return v in self._domain

    def __iter__(self) -> Iterator[Node]:
        return iter(self._domain)

    def __len__(self) -> int:
        return len(self._domain)

    def __repr__(self) -> str:
        items = self._dict()
        preview = dict(itertools.islice(items.items(), 4))
        suffix = "..." if len(items) > 4 else ""
        return f"IdAssignment({preview}{suffix})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IdAssignment):
            return self._dict() == other._dict()
        if isinstance(other, Mapping):
            return self._dict() == dict(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._dict().items()))

    def __reduce__(self):
        return (IdAssignment, (self._dict(),))

    # Extra helpers ------------------------------------------------------ #

    def identifiers(self, nodes: Optional[Iterable[Node]] = None) -> Tuple[int, ...]:
        """Return all identifiers in node-insertion order, or those of ``nodes`` in their order."""
        items = self._dict()
        return tuple(items.values() if nodes is None else map(items.__getitem__, nodes))

    def max_identifier(self) -> int:
        """Return the largest identifier, or -1 for the empty assignment."""
        return max(self._dict().values(), default=-1)

    def restrict(self, nodes: Iterable[Node]) -> "IdAssignment":
        """Return the assignment restricted to the given nodes, in this assignment's node order."""
        keep = set(nodes)
        missing = keep - self._domain.keys()
        if missing:
            raise IdentifierError(f"cannot restrict: nodes {sorted(map(repr, missing))[:5]} have no identifier")
        return self._restricted(dict.fromkeys(v for v in self._domain if v in keep))

    def renamed(self, renaming: Mapping[int, int]) -> "IdAssignment":
        """Return a new assignment with identifiers substituted via ``renaming``.

        Identifiers missing from ``renaming`` are kept as-is.  The result is
        validated (injectivity is re-checked).
        """
        return IdAssignment({v: renaming.get(i, i) for v, i in self._dict().items()})

    def shifted(self, offset: int) -> "IdAssignment":
        """Return a copy with every identifier increased by ``offset``."""
        items = self._dict()
        if offset < 0 and -offset > min(items.values(), default=0):
            raise IdentifierError("shift would make an identifier negative")
        return IdAssignment({v: i + offset for v, i in items.items()})

    def respects_bound(self, bound: int) -> bool:
        """Return ``True`` when every identifier is strictly less than ``bound``."""
        return all(i < bound for i in self._dict().values())

    def node_with_max_identifier(self) -> Node:
        """Return the node carrying the largest identifier."""
        items = self._dict()
        if not items:
            raise IdentifierError("empty assignment has no maximum")
        return max(items, key=items.__getitem__)


def _validate_items(mapping: Mapping[Node, int]) -> None:
    """Validate ``mapping`` item by item, raising on the first offending identifier.

    The slow path behind :class:`IdAssignment`'s whole-map check: it raises
    the precise error for the first bad item, and lets through what the
    whole-map check is too strict for (``int`` subclasses other than
    ``bool``).
    """
    seen: Dict[int, Node] = {}
    for v, i in mapping.items():
        if not isinstance(i, int) or isinstance(i, bool):
            raise IdentifierError(f"identifier of node {v!r} must be an int, got {i!r}")
        if i < 0:
            raise IdentifierError(f"identifier of node {v!r} must be non-negative, got {i}")
        if i in seen:
            raise IdentifierError(
                f"identifier {i} assigned to both {seen[i]!r} and {v!r}; assignments must be one-to-one"
            )
        seen[i] = v


# ---------------------------------------------------------------------- #
# Identifier spaces: models (B) and (¬B)
# ---------------------------------------------------------------------- #


def default_bound(n: int) -> int:
    """The default bound function ``f(n) = 2n + 4`` used throughout the examples.

    Any strictly increasing ``f`` with ``f(n) > n`` works for the paper's
    Section-2 construction; ``2n + 4`` keeps the instance families small
    enough for exhaustive experiments while leaving head-room above ``n``.
    """
    return 2 * n + 4


class IdentifierSpace:
    """Abstract description of which identifier assignments are legal.

    Concrete subclasses implement :meth:`is_legal` and :meth:`bound_for`.
    The space also offers convenience constructors for canonical, random and
    adversarial (largest-possible) assignments.
    """

    def is_legal(self, graph: LabelledGraph, ids: IdAssignment) -> bool:
        """Return ``True`` when ``ids`` is a legal assignment for ``graph`` in this space."""
        raise NotImplementedError

    def bound_for(self, n: int) -> Optional[int]:
        """Return the exclusive upper bound on identifiers for an ``n``-node graph, or ``None`` if unbounded."""
        raise NotImplementedError

    def validate(self, graph: LabelledGraph, ids: IdAssignment) -> None:
        """Raise :class:`IdentifierError` unless ``ids`` is legal for ``graph``."""
        missing = [v for v in graph.nodes() if v not in ids]
        if missing:
            raise IdentifierError(f"assignment misses nodes {missing[:5]!r}")
        if not self.is_legal(graph, ids):
            raise IdentifierError("identifier assignment is not legal in this identifier space")

    def canonical(self, graph: LabelledGraph) -> IdAssignment:
        """Return the canonical assignment 0, 1, 2, ... in node order."""
        return sequential_assignment(graph)

    def random(self, graph: LabelledGraph, rng: Optional[random.Random] = None) -> IdAssignment:
        """Return a uniformly random legal assignment over the smallest legal pool."""
        rng = rng or random.Random()
        n = graph.num_nodes()
        bound = self.bound_for(n)
        pool_size = bound if bound is not None else max(2 * n, 1)
        ids = rng.sample(range(pool_size), n) if n else []
        return IdAssignment(dict(zip(graph.nodes(), ids)))


class BoundedIdentifierSpace(IdentifierSpace):
    """Model ``(B)``: identifiers bounded by ``f(n)`` for a fixed function ``f``.

    Parameters
    ----------
    bound_fn:
        The bound function ``f``.  Assignments are legal iff
        ``Id(v) < f(n)`` for every node of an ``n``-node graph.  ``f`` must
        satisfy ``f(n) >= n`` for assignments to exist at all.
    """

    def __init__(self, bound_fn: Callable[[int], int] = default_bound) -> None:
        self._bound_fn = bound_fn

    @property
    def bound_fn(self) -> Callable[[int], int]:
        """The bound function ``f``."""
        return self._bound_fn

    def bound_for(self, n: int) -> int:
        """Return ``f(n)``, checking it admits a one-to-one assignment."""
        b = self._bound_fn(n)
        if b < n:
            raise IdentifierError(
                f"bound function returned f({n}) = {b} < {n}; no one-to-one assignment exists"
            )
        return b

    def is_legal(self, graph: LabelledGraph, ids: IdAssignment) -> bool:
        """Whether every identifier of ``ids`` lies below ``f(n)``."""
        return ids.respects_bound(self.bound_for(graph.num_nodes()))

    def inverse_bound(self, identifier: int, max_n: int = 10**6) -> int:
        """Return ``f^{-1}(identifier)``: the smallest ``j`` with ``f(j) > identifier``.

        This is the "identifiers leak information about n" primitive from
        Section 2: a node holding identifier ``i`` knows the graph has more
        than ``f^{-1}(i) - 1`` nodes... more precisely it knows
        ``f(n) > i``, i.e. ``n >= inverse_bound(i)`` is *not* guaranteed, but
        ``n`` cannot be any value ``j`` with ``f(j) <= i``.

        The search is linear; ``max_n`` caps it for non-monotone bound
        functions.
        """
        for j in range(max_n + 1):
            if self._bound_fn(j) > identifier:
                return j
        raise IdentifierError(f"could not invert bound below n = {max_n}")

    def adversarial(self, graph: LabelledGraph) -> IdAssignment:
        """Return the legal assignment whose identifiers are as large as possible.

        The largest legal identifiers are ``f(n)-1, f(n)-2, ...``; this is
        the assignment that maximises the information leaked about ``n`` and
        is the worst case for Id-oblivious lower bounds.
        """
        n = graph.num_nodes()
        b = self.bound_for(n)
        ids = range(b - 1, b - 1 - n, -1)
        return IdAssignment(dict(zip(graph.nodes(), ids)))


class UnboundedIdentifierSpace(IdentifierSpace):
    """Model ``(¬B)``: any one-to-one assignment into ℕ is legal."""

    def bound_for(self, n: int) -> Optional[int]:
        """Return ``None``: identifiers are unbounded in the ``(not B)`` model."""
        return None

    def is_legal(self, graph: LabelledGraph, ids: IdAssignment) -> bool:
        """Whether ``ids`` covers the graph (any one-to-one map is legal)."""
        return len(ids) >= graph.num_nodes()


# ---------------------------------------------------------------------- #
# Assignment constructors / enumerators
# ---------------------------------------------------------------------- #


def sequential_assignment(graph: LabelledGraph, start: int = 0) -> IdAssignment:
    """Assign identifiers ``start, start+1, ...`` in node-insertion order."""
    return IdAssignment({v: start + i for i, v in enumerate(graph.nodes())})


def random_assignment(
    graph: LabelledGraph,
    pool_size: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> IdAssignment:
    """Sample a uniformly random injective assignment from ``{0, ..., pool_size-1}``.

    ``pool_size`` defaults to twice the number of nodes.
    """
    rng = rng or random.Random()
    n = graph.num_nodes()
    pool = pool_size if pool_size is not None else max(2 * n, 1)
    if pool < n:
        raise IdentifierError(f"identifier pool of size {pool} too small for {n} nodes")
    chosen = rng.sample(range(pool), n)
    return IdAssignment(dict(zip(graph.nodes(), chosen)))


def enumerate_injections(nodes: Sequence[Node], pool: Sequence[int]) -> Iterator[IdAssignment]:
    """Yield every injective assignment of identifiers from ``pool`` to ``nodes``.

    The number of assignments is ``P(|pool|, |nodes|)``; callers are expected
    to keep both small (this is used for exhaustive verification on tiny
    neighbourhoods, exactly like the search inside the paper's Id-oblivious
    simulation ``A*``).
    """
    if len(set(pool)) != len(pool):
        raise IdentifierError("identifier pool contains duplicates")
    if len(pool) < len(nodes):
        return
    for combo in itertools.permutations(pool, len(nodes)):
        yield IdAssignment(dict(zip(nodes, combo)))


def enumerate_assignments(
    graph: LabelledGraph,
    pool: Sequence[int],
) -> Iterator[IdAssignment]:
    """Yield every injective identifier assignment for ``graph`` drawn from ``pool``."""
    yield from enumerate_injections(list(graph.nodes()), pool)


def order_preserving_renamings(
    ids: IdAssignment,
    pool: Sequence[int],
) -> Iterator[IdAssignment]:
    """Yield assignments drawn from ``pool`` that preserve the relative order of ``ids``.

    Used to exercise the *order-invariant* (OI) model from the related-work
    discussion: an OI algorithm's output may not change under any of these
    renamings.
    """
    nodes_sorted = sorted(ids, key=ids.__getitem__)
    pool_sorted = sorted(set(pool))
    if len(pool_sorted) < len(nodes_sorted):
        return
    for combo in itertools.combinations(pool_sorted, len(nodes_sorted)):
        yield IdAssignment(dict(zip(nodes_sorted, combo)))
