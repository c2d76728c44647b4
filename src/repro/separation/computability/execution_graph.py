"""The graph ``G(M, r)`` of Section 3.2: execution table + fragment collection glued at the pivot.

``G(M, r)`` consists of

* the execution table ``T`` of the halting machine ``M`` (a labelled grid
  graph, see :class:`repro.turing.execution_table.ExecutionTable`),
* the fragment collection ``C(M, r)`` (all syntactically possible table
  fragments, see :mod:`repro.separation.computability.fragments`), and
* edges connecting every node of a *non-natural* fragment border to the
  *pivot* of ``T`` (the table's top-left cell, where the computation starts).

The paper's Appendix A additionally attaches quadtree pyramids to make the
global grid shape locally checkable against torus-like impostors; this
reproduction keeps the plain grids in ``G(M, r)`` (the pyramid substrate is
available separately in :func:`repro.graphs.generators.quadtree_pyramid` and
exercised by the Figure-3 benchmark) — the simplification and its
consequences are recorded in DESIGN.md.

The paper's witness property is ``P = {G(M, r) : M outputs 0}``; see
:class:`ComputabilityWitnessProperty`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ...decision.property import Property
from ...graphs.labelled_graph import LabelledGraph, Node
from ...turing.execution_table import ExecutionTable, cell_label
from ...turing.machine import TuringMachine
from .fragments import Fragment, FragmentCollection

__all__ = [
    "ExecutionGraph",
    "build_execution_graph",
    "parse_cell_label",
    "PIVOT_CELL_TAG",
    "ComputabilityWitnessProperty",
]


#: Label tag of the pivot cell of ``T`` (the table's top-left cell).
#:
#: The paper recognises inter-grid edges through the quadtree pyramids of
#: Appendix A; this reproduction keeps the grids plain and instead marks the
#: pivot cell's label with a distinct tag so that fragment border cells can
#: recognise their gluing edges locally.  The pivot exists in every instance
#: ``G(M, r)`` and carries no information about ``M``'s execution beyond the
#: start configuration, so the marking does not weaken the
#: indistinguishability properties the construction needs (see DESIGN.md).
PIVOT_CELL_TAG = "pivot-cell"


def parse_cell_label(label: object) -> Optional[Tuple[str, int, str, int, int, str, Optional[str]]]:
    """Parse a cell label ``(machine_encoding, r, tag, x%3, y%3, symbol, state)``.

    The tag is ``"cell"`` for ordinary table/fragment cells and
    ``"pivot-cell"`` for the pivot of ``T``.  Returns
    ``(encoding, r, tag, x_mod_3, y_mod_3, symbol, state)`` or ``None`` when
    the label is malformed.
    """
    if not (isinstance(label, tuple) and len(label) == 7 and label[2] in ("cell", PIVOT_CELL_TAG)):
        return None
    enc, r, tag, xm, ym, symbol, state = label
    if not isinstance(enc, str) or not isinstance(r, int):
        return None
    if not (isinstance(xm, int) and isinstance(ym, int) and 0 <= xm < 3 and 0 <= ym < 3):
        return None
    if not isinstance(symbol, str):
        return None
    if state is not None and not isinstance(state, str):
        return None
    return (enc, r, tag, xm, ym, symbol, state)


@dataclass
class ExecutionGraph:
    """The assembled ``G(M, r)`` together with its construction metadata."""

    machine: TuringMachine
    r: int
    table: ExecutionTable
    fragments: List[Fragment]
    graph: LabelledGraph
    pivot: Node

    @property
    def running_time(self) -> int:
        """The running time ``s`` of ``M`` (the table has ``s + 1`` rows and columns)."""
        return self.table.running_time

    def table_nodes(self) -> List[Node]:
        """Return the nodes of the execution-table part of the graph."""
        return [v for v in self.graph.nodes() if isinstance(v, tuple) and v and v[0] == "T"]

    def fragment_nodes(self) -> List[Node]:
        """Return the nodes of the fragment-collection part of the graph."""
        return [v for v in self.graph.nodes() if isinstance(v, tuple) and v and v[0] == "F"]

    def interior_table_nodes(self, margin: int) -> List[Node]:
        """Return table nodes at graph distance greater than ``margin`` from the pivot.

        These are the nodes whose ``margin``-radius neighbourhoods do not see
        the pivot's gluing edges; the coverage experiments ("every such
        neighbourhood already occurs inside a fragment") run over them.
        """
        distances = self.graph.bfs_distances(self.pivot, radius=margin)
        return [v for v in self.table_nodes() if v not in distances]


def build_execution_graph(
    machine: TuringMachine,
    r: int,
    fuel: int = 50_000,
    fragment_side: Optional[int] = None,
    max_fragments: Optional[int] = 200_000,
) -> ExecutionGraph:
    """Construct ``G(M, r)`` for a halting machine ``M``.

    Parameters
    ----------
    machine:
        The machine ``M``; it must halt within ``fuel`` steps (the execution
        table of a non-halting machine does not exist).
    r:
        The locality parameter; fragments have side ``3r`` (minimum 2).
    fragment_side:
        Explicit override of the fragment side (tests use this to keep
        fragment counts small).
    max_fragments:
        Safety cap forwarded to the fragment generator.
    """
    table = ExecutionTable(machine, fuel=fuel)
    collection = FragmentCollection(machine, r, side=fragment_side, max_fragments=max_fragments)
    fragments = collection.glueable_variants()

    graph = table.to_grid_graph(r)
    pivot = table.pivot_node
    # Mark the pivot cell with its dedicated label tag (see PIVOT_CELL_TAG).
    pivot_old = graph.label(pivot)
    graph = graph.with_labels({pivot: pivot_old[:2] + (PIVOT_CELL_TAG,) + pivot_old[3:]})

    enc = machine.encode()
    new_nodes: List[Node] = []
    new_edges: List[Tuple[Node, Node]] = []
    new_labels: Dict[Node, object] = {}
    for k, frag in enumerate(fragments):
        for i in range(frag.height):
            for j in range(frag.width):
                name = ("F", k, i, j)
                new_nodes.append(name)
                new_labels[name] = cell_label(enc, r, j, i, frag.rows[i][j])
                if i + 1 < frag.height:
                    new_edges.append((name, ("F", k, i + 1, j)))
                if j + 1 < frag.width:
                    new_edges.append((name, ("F", k, i, j + 1)))
        for (i, j) in sorted(frag.non_natural_border_cells(machine)):
            new_edges.append((pivot, ("F", k, i, j)))

    assembled = graph.add_nodes_and_edges(new_nodes, new_edges, new_labels)
    return ExecutionGraph(
        machine=machine, r=r, table=table, fragments=fragments, graph=assembled, pivot=pivot
    )


class ComputabilityWitnessProperty(Property):
    """The Section-3 witness property ``P = {G(M, r) : M halts and outputs 0}``.

    Ground-truth membership is established constructively: the candidate
    graph is compared (by exact equality of node labels, coordinates and
    edges up to the canonical node naming) against the graph built by
    :func:`build_execution_graph` for the machine named in its labels.  This
    is the role the paper assigns to its global definition of ``P``; the
    *local* checkability statement (P2) is a separate algorithm
    (:class:`repro.separation.computability.local_checker.ExecutionGraphChecker`).

    Because the membership test itself must simulate the machine, it accepts
    a ``fuel`` bound; graphs whose labels name a machine that does not halt
    within the fuel are treated as non-members (their ``G(M, r)`` does not
    exist).
    """

    def __init__(self, fuel: int = 20_000, fragment_side: Optional[int] = None) -> None:
        self.fuel = fuel
        self.fragment_side = fragment_side
        self.name = "sec3-witness(P)"

    def _named_machine_and_r(self, graph: LabelledGraph) -> Optional[Tuple[TuringMachine, int]]:
        encodings: Set[str] = set()
        rs: Set[int] = set()
        for v in graph.nodes():
            parsed = parse_cell_label(graph.label(v))
            if parsed is None:
                return None
            encodings.add(parsed[0])
            rs.add(parsed[1])
        if len(encodings) != 1 or len(rs) != 1:
            return None
        try:
            machine = TuringMachine.decode(next(iter(encodings)))
        except Exception:
            return None
        return machine, next(iter(rs))

    def contains(self, graph: LabelledGraph) -> bool:
        named = self._named_machine_and_r(graph)
        if named is None:
            return False
        machine, r = named
        run = machine.run(self.fuel, keep_history=False)
        if not run.halted or run.output != "0":
            return False
        reference = build_execution_graph(
            machine, r, fuel=self.fuel, fragment_side=self.fragment_side
        ).graph
        return _same_labelled_structure(graph, reference)


def _same_labelled_structure(a: LabelledGraph, b: LabelledGraph) -> bool:
    """Exact structural equality up to node renaming, using the construction's label+degree signature.

    Full graph isomorphism on graphs of this size is unnecessary: the
    construction's node labels plus the multiset of (label, sorted neighbour
    labels) signatures identify ``G(M, r)`` uniquely among the graphs the
    experiments feed in.  (This is a membership test for ground truth, not a
    security boundary.)
    """
    if a.num_nodes() != b.num_nodes() or a.num_edges() != b.num_edges():
        return False

    def signature(g: LabelledGraph):
        sigs = []
        for v in g.nodes():
            nbr = tuple(sorted(repr(g.label(u)) for u in g.neighbours(v)))
            sigs.append((repr(g.label(v)), nbr))
        return sorted(sigs)

    return signature(a) == signature(b)
