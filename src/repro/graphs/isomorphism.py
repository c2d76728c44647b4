"""Labelled-graph isomorphism.

Labelled graph properties are, by definition, closed under isomorphism
(Section 1.2 of the paper): if ``(G, x)`` has the property and ``(G', x')``
is isomorphic to it — as a graph *and* with matching labels — then
``(G', x')`` has the property too.  The property implementations in
:mod:`repro.properties` and :mod:`repro.separation` therefore need a
label-aware isomorphism test, and the test suite uses it to check the
closure requirement mechanically.

The heavy lifting is delegated to :mod:`networkx` (VF2 with a node-match
predicate on labels); thin wrappers provide certificates for fast bucketing
of graph collections.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import networkx as nx

from .labelled_graph import LabelledGraph, Node

__all__ = [
    "are_isomorphic",
    "find_isomorphism",
    "certificate",
    "group_by_isomorphism",
]


def _label_match(a: Dict, b: Dict) -> bool:
    return a.get("label") == b.get("label")


def are_isomorphic(g1: LabelledGraph, g2: LabelledGraph, respect_labels: bool = True) -> bool:
    """Return ``True`` when the two labelled graphs are isomorphic.

    Parameters
    ----------
    g1, g2:
        The graphs to compare.
    respect_labels:
        When ``True`` (the default) the isomorphism must map equal labels to
        equal labels; when ``False`` only the topology is compared.
    """
    n1, n2 = g1.to_networkx(), g2.to_networkx()
    matcher = _label_match if respect_labels else None
    return nx.is_isomorphic(n1, n2, node_match=matcher)


def find_isomorphism(
    g1: LabelledGraph, g2: LabelledGraph, respect_labels: bool = True
) -> Optional[Dict[Node, Node]]:
    """Return one isomorphism ``g1 → g2`` as a node mapping, or ``None`` when none exists."""
    n1, n2 = g1.to_networkx(), g2.to_networkx()
    matcher = _label_match if respect_labels else None
    gm = nx.algorithms.isomorphism.GraphMatcher(n1, n2, node_match=matcher)
    if gm.is_isomorphic():
        return dict(gm.mapping)
    return None


def certificate(g: LabelledGraph, iterations: int = 3) -> Tuple[int, int, str]:
    """Return a cheap isomorphism-invariant certificate of a labelled graph.

    The certificate is ``(n, m, wl_hash)`` where the Weisfeiler–Lehman hash
    incorporates node labels.  Isomorphic graphs always receive equal
    certificates; distinct certificates prove non-isomorphism.  Collisions
    are possible (WL is not complete), so equal certificates should be
    confirmed with :func:`are_isomorphic` when exactness matters.
    """
    nxg = g.to_networkx()
    for v in nxg.nodes():
        nxg.nodes[v]["wl"] = repr(nxg.nodes[v].get("label"))
    wl = nx.weisfeiler_lehman_graph_hash(nxg, node_attr="wl", iterations=iterations)
    return (g.num_nodes(), g.num_edges(), wl)


def group_by_isomorphism(graphs: Iterable[LabelledGraph]) -> List[List[LabelledGraph]]:
    """Partition a collection of labelled graphs into isomorphism classes.

    Graphs are first bucketed by :func:`certificate`, then each bucket is
    refined with exact isomorphism tests.  Returns a list of classes, each a
    list of the input graphs (in input order).
    """
    buckets: Dict[Tuple[int, int, str], List[LabelledGraph]] = {}
    for g in graphs:
        buckets.setdefault(certificate(g), []).append(g)

    classes: List[List[LabelledGraph]] = []
    for bucket in buckets.values():
        bucket_classes: List[List[LabelledGraph]] = []
        for g in bucket:
            placed = False
            for cls in bucket_classes:
                if are_isomorphic(g, cls[0]):
                    cls.append(g)
                    placed = True
                    break
            if not placed:
                bucket_classes.append([g])
        classes.extend(bucket_classes)
    return classes
