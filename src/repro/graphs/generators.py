"""Generators for the graph families used throughout the paper.

Every construction and counter-example in the paper lives on one of a small
number of structured topologies:

* cycles and paths (the promise problems of Sections 2 and 3);
* square grids (Turing-machine execution tables, Section 3);
* complete binary trees and *layered* binary trees (Section 2, Figure 1);
* layered quadtree pyramids on top of grids (Appendix A, Figure 3);
* tori (the "locally looks like a grid" impostors mentioned in Section 3).

The generators here return plain :class:`~repro.graphs.labelled_graph.LabelledGraph`
objects with structural labels only (coordinates etc.); the separation
modules overlay the paper-specific labels (machine tapes, ``(r, x, y)``
coordinates, ...) on top.

Node naming conventions (documented per generator) are deterministic so that
tests and constructions can address nodes directly.
"""

from __future__ import annotations

import random
from typing import Hashable, List, Optional

from ..errors import GraphError
from .labelled_graph import Edge, LabelledGraph, Node

__all__ = [
    "cycle_graph",
    "path_graph",
    "star_graph",
    "complete_graph",
    "grid_graph",
    "torus_graph",
    "complete_binary_tree",
    "layered_binary_tree",
    "quadtree_pyramid",
    "random_graph",
    "random_tree",
    "hypercube_graph",
    "random_regular_graph",
    "caterpillar_graph",
    "disjoint_cycles",
    "single_node_graph",
    "single_edge_graph",
]


def _require_positive(name: str, value: int, minimum: int = 1) -> None:
    if value < minimum:
        raise GraphError(f"{name} must be >= {minimum}, got {value}")


def cycle_graph(n: int, label: Hashable = None) -> LabelledGraph:
    """Return the ``n``-cycle on nodes ``0..n-1`` with every node labelled ``label``.

    ``n`` must be at least 3 (the graph is simple).  Cycles are the instance
    topology of both promise problems in the paper.
    """
    _require_positive("n", n, 3)
    nodes = list(range(n))
    edges = [(i, (i + 1) % n) for i in range(n)]
    labels = {v: label for v in nodes}
    return LabelledGraph(nodes, edges, labels)


def path_graph(n: int, label: Hashable = None) -> LabelledGraph:
    """Return the path on ``n`` nodes ``0..n-1`` with uniform label ``label``."""
    _require_positive("n", n, 1)
    nodes = list(range(n))
    edges = [(i, i + 1) for i in range(n - 1)]
    labels = {v: label for v in nodes}
    return LabelledGraph(nodes, edges, labels)


def star_graph(leaves: int, label: Hashable = None) -> LabelledGraph:
    """Return a star with one centre (node 0) and ``leaves`` leaves (nodes 1..leaves)."""
    _require_positive("leaves", leaves, 1)
    nodes = list(range(leaves + 1))
    edges = [(0, i) for i in range(1, leaves + 1)]
    labels = {v: label for v in nodes}
    return LabelledGraph(nodes, edges, labels)


def complete_graph(n: int, label: Hashable = None) -> LabelledGraph:
    """Return the complete graph on ``n`` nodes ``0..n-1``."""
    _require_positive("n", n, 1)
    nodes = list(range(n))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    labels = {v: label for v in nodes}
    return LabelledGraph(nodes, edges, labels)


def grid_graph(rows: int, cols: int, label: Hashable = None) -> LabelledGraph:
    """Return the ``rows × cols`` square grid.

    Nodes are coordinate pairs ``(row, col)`` with ``0 <= row < rows`` and
    ``0 <= col < cols``; two nodes are adjacent when their Euclidean distance
    is 1 (the paper's execution-table adjacency).
    """
    _require_positive("rows", rows, 1)
    _require_positive("cols", cols, 1)
    nodes = [(r, c) for r in range(rows) for c in range(cols)]
    edges: List[Edge] = []
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                edges.append(((r, c), (r + 1, c)))
            if c + 1 < cols:
                edges.append(((r, c), (r, c + 1)))
    labels = {v: label for v in nodes}
    return LabelledGraph(nodes, edges, labels)


def torus_graph(rows: int, cols: int, label: Hashable = None) -> LabelledGraph:
    """Return the ``rows × cols`` torus (grid with wrap-around edges).

    The torus is the classic "impostor" for grids: for large enough
    dimensions its local neighbourhoods are indistinguishable from interior
    grid neighbourhoods, which is why the paper must work to make execution
    tables locally checkable (Appendix A).  Both dimensions must be at least
    3 to keep the graph simple.
    """
    _require_positive("rows", rows, 3)
    _require_positive("cols", cols, 3)
    nodes = [(r, c) for r in range(rows) for c in range(cols)]
    edges = []
    for r in range(rows):
        for c in range(cols):
            edges.append(((r, c), ((r + 1) % rows, c)))
            edges.append(((r, c), (r, (c + 1) % cols)))
    labels = {v: label for v in nodes}
    # duplicate edges collapse automatically (simple graph)
    return LabelledGraph(nodes, edges, labels)


def complete_binary_tree(depth: int, label: Hashable = None) -> LabelledGraph:
    """Return the complete binary tree of the given depth.

    Nodes are pairs ``(y, x)`` where ``y`` is the level (0 = root) and
    ``x`` in ``0..2^y - 1`` is the position within the level.  Node
    ``(y, x)`` has children ``(y+1, 2x)`` and ``(y+1, 2x+1)``.
    """
    if depth < 0:
        raise GraphError(f"depth must be non-negative, got {depth}")
    nodes = [(y, x) for y in range(depth + 1) for x in range(2**y)]
    edges = []
    for y in range(depth):
        for x in range(2**y):
            edges.append(((y, x), (y + 1, 2 * x)))
            edges.append(((y, x), (y + 1, 2 * x + 1)))
    labels = {v: label for v in nodes}
    return LabelledGraph(nodes, edges, labels)


def layered_binary_tree(depth: int, label: Hashable = None) -> LabelledGraph:
    """Return a *layered* complete binary tree of the given depth (Section 2, Figure 1).

    A layered depth-``k`` tree is the complete binary tree of depth ``k``
    where, in addition, the nodes at each level are connected by a path in
    the natural (left-to-right) order.  Node naming matches
    :func:`complete_binary_tree`.
    """
    base = complete_binary_tree(depth, label)
    extra: List[Edge] = []
    for y in range(depth + 1):
        for x in range(2**y - 1):
            extra.append(((y, x), (y, x + 1)))
    return LabelledGraph(base.nodes(), list(base.edges()) + extra, base.labels())


def quadtree_pyramid(side: int, label: Hashable = None) -> LabelledGraph:
    """Return a square grid with a layered quadtree "pyramid" attached on top (Appendix A, Figure 3).

    Parameters
    ----------
    side:
        The side length of the base grid; must be a power of two, say
        ``side = 2^h``.
    label:
        Uniform label for every node.

    Node naming: the base grid occupies nodes ``(x, y, 0)`` for
    ``0 <= x, y < side`` (level ``z = 0``); level ``z`` (for
    ``1 <= z <= h``) is a ``side/2^z`` × ``side/2^z`` grid on nodes
    ``(x, y, z)``; each node ``(x, y, z)`` with ``z < h`` is connected to
    its quadtree parent on level ``z + 1``.  Within every level the grid
    edges are present, matching the paper's "square grid on nodes
    [2^{h-z}] × [2^{h-z}] × {z}".

    The pyramid has a unique apex node which pins down the global structure
    and makes the grid shape locally checkable.
    """
    _require_positive("side", side, 1)
    if side & (side - 1) != 0:
        raise GraphError(f"side must be a power of two, got {side}")
    h = side.bit_length() - 1

    nodes: List[Node] = []
    edges: List[Edge] = []
    for z in range(h + 1):
        dim = side >> z
        for x in range(dim):
            for y in range(dim):
                nodes.append((x, y, z))
        # intra-level grid edges
        for x in range(dim):
            for y in range(dim):
                if x + 1 < dim:
                    edges.append(((x, y, z), (x + 1, y, z)))
                if y + 1 < dim:
                    edges.append(((x, y, z), (x, y + 1, z)))
    # inter-level (quadtree) edges: child (x, y, z) -> parent (x // 2, y // 2, z + 1)
    for z in range(h):
        dim = side >> z
        for x in range(dim):
            for y in range(dim):
                edges.append(((x, y, z), (x // 2, y // 2, z + 1)))
    labels = {v: label for v in nodes}
    return LabelledGraph(nodes, edges, labels)


def random_graph(
    n: int,
    p: float,
    seed: Optional[int] = None,
    label: Hashable = None,
    require_connected: bool = False,
    max_attempts: int = 64,
) -> LabelledGraph:
    """Return an Erdős–Rényi ``G(n, p)`` graph on nodes ``0..n-1``.

    With ``require_connected=True`` the generator resamples (up to
    ``max_attempts`` times) until it draws a connected graph; this mirrors
    the paper's standing promise that inputs are connected.
    """
    _require_positive("n", n, 1)
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability must be in [0, 1], got {p}")
    rng = random.Random(seed)
    for _ in range(max_attempts):
        nodes = list(range(n))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        g = LabelledGraph(nodes, edges, {v: label for v in nodes})
        if not require_connected or g.is_connected():
            return g
    raise GraphError(f"failed to sample a connected G({n}, {p}) graph in {max_attempts} attempts")


def hypercube_graph(dim: int, label: Hashable = None) -> LabelledGraph:
    """Return the ``dim``-dimensional hypercube on nodes ``0..2^dim - 1``.

    Two nodes are adjacent when their binary expansions differ in exactly
    one bit, so the graph is ``dim``-regular, bipartite and vertex-transitive
    — a structured, high-symmetry family complementing the paper's cycles
    and grids.  ``dim = 0`` degenerates to the single-node graph.
    """
    if dim < 0:
        raise GraphError(f"dim must be non-negative, got {dim}")
    n = 1 << dim
    nodes = list(range(n))
    edges = [(v, v | (1 << b)) for v in range(n) for b in range(dim) if not v & (1 << b)]
    return LabelledGraph(nodes, edges, {v: label for v in nodes})


def random_regular_graph(
    n: int,
    d: int,
    seed: Optional[int] = None,
    label: Hashable = None,
    max_attempts: int = 256,
) -> LabelledGraph:
    """Return a seedable random ``d``-regular graph on nodes ``0..n-1``.

    Uses the pairing (configuration) model: ``d`` stubs per node are paired
    uniformly at random and the draw is rejected until it yields a simple
    graph (no loops, no parallel edges).  ``n * d`` must be even and
    ``d < n``.  The same ``seed`` always produces the same graph.
    """
    _require_positive("n", n, 1)
    if d < 0 or d >= n:
        raise GraphError(f"degree must satisfy 0 <= d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise GraphError(f"n * d must be even for a d-regular graph, got n={n}, d={d}")
    nodes = list(range(n))
    if d == 0:
        return LabelledGraph(nodes, [], {v: label for v in nodes})
    rng = random.Random(seed)
    for _ in range(max_attempts):
        stubs = [v for v in nodes for _ in range(d)]
        rng.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        if any(u == v for u, v in pairs):
            continue
        undirected = {(min(u, v), max(u, v)) for u, v in pairs}
        if len(undirected) != len(pairs):
            continue
        return LabelledGraph(nodes, sorted(undirected), {v: label for v in nodes})
    raise GraphError(
        f"failed to sample a simple {d}-regular graph on {n} nodes in {max_attempts} attempts"
    )


def caterpillar_graph(
    spine: int,
    seed: Optional[int] = None,
    max_legs: int = 2,
    label: Hashable = None,
) -> LabelledGraph:
    """Return a seedable caterpillar: a spine path with random pendant legs.

    The spine is the path on nodes ``0..spine-1``; every spine node ``i``
    additionally carries ``rng(seed)``-many legs (between 0 and
    ``max_legs``), named ``("leg", i, j)``.  Caterpillars are the sparsest
    interesting trees (removing the leaves leaves a path), a degenerate
    family stressing deciders whose reasoning assumes regular topologies.
    The same ``seed`` always produces the same tree.
    """
    _require_positive("spine", spine, 1)
    if max_legs < 0:
        raise GraphError(f"max_legs must be non-negative, got {max_legs}")
    rng = random.Random(seed)
    nodes: List[Node] = list(range(spine))
    edges: List[Edge] = [(i, i + 1) for i in range(spine - 1)]
    for i in range(spine):
        for j in range(rng.randint(0, max_legs)):
            leg = ("leg", i, j)
            nodes.append(leg)
            edges.append((i, leg))
    return LabelledGraph(nodes, edges, {v: label for v in nodes})


def disjoint_cycles(count: int, n: int, label: Hashable = None) -> LabelledGraph:
    """Return the disjoint union of ``count`` cycles of ``n`` nodes each.

    Nodes are pairs ``(k, i)`` for cycle ``k`` and position ``i``.  The
    graph is deliberately disconnected — an edge case for deciders and
    sweeps whose implicit promise is a connected input.
    """
    _require_positive("count", count, 1)
    _require_positive("n", n, 3)
    nodes = [(k, i) for k in range(count) for i in range(n)]
    edges = [((k, i), (k, (i + 1) % n)) for k in range(count) for i in range(n)]
    return LabelledGraph(nodes, edges, {v: label for v in nodes})


def single_node_graph(label: Hashable = None) -> LabelledGraph:
    """Return the one-node graph: the smallest legal input."""
    return LabelledGraph([0], [], {0: label})


def single_edge_graph(label: Hashable = None) -> LabelledGraph:
    """Return the two-node, one-edge graph: the smallest input with an edge."""
    return LabelledGraph([0, 1], [(0, 1)], {0: label, 1: label})


def random_tree(n: int, seed: Optional[int] = None, label: Hashable = None) -> LabelledGraph:
    """Return a uniformly random labelled tree on nodes ``0..n-1`` (via a random Prüfer-like attachment)."""
    _require_positive("n", n, 1)
    rng = random.Random(seed)
    nodes = list(range(n))
    edges: List[Edge] = []
    for v in range(1, n):
        parent = rng.randrange(v)
        edges.append((parent, v))
    return LabelledGraph(nodes, edges, {v: label for v in nodes})
