"""Execution tables: the space–time diagram of a Turing machine run.

Section 3.2 of the paper represents the execution of a halting machine
``M`` with running time ``s`` "as per usual, as a labelled square grid graph
on nodes ``[s+1] × [s+1]``": row ``i`` is the configuration of ``M`` before
its ``i``-th step, every node carries its tape-cell content, the node owning
the read–write head also records the machine state, and the grid is
orientation-labelled with ``(x mod 3, y mod 3)`` coordinates.

The paper stresses a crucial constraint on the labelling: **the size of the
labels must be bounded by a computable function of ``M`` alone** — in
particular a row may *not* carry its row index, otherwise the labels would
leak the running time to an Id-oblivious algorithm.  The cell labels used
here consist of the machine encoding, the locality parameter ``r``, the
``mod 3`` coordinates and the cell content, and nothing else; a unit test
asserts that the label alphabet size is independent of the running time.

This module provides:

* :class:`Cell` — one table cell (symbol + optional head state);
* :class:`ExecutionTable` — the full table of a halting run, with
  conversion to a labelled grid graph;
* the *local consistency rules* of execution tables
  (:func:`consistent_cell`, :func:`row_successors`), which are shared by the
  fragment collection ``C(M, r)`` (Section 3.2), the local checker
  (Appendix A) and the neighbourhood generator ``B`` (property P3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from ..errors import TuringMachineError
from ..graphs.labelled_graph import LabelledGraph
from .machine import Configuration, Move, TuringMachine

__all__ = [
    "Cell",
    "CellLabel",
    "ExecutionTable",
    "cell_label",
    "row_successors",
    "consistent_cell",
    "BoundaryCrossings",
]

#: The wire format of a cell inside a node label:
#: ``("cell", x_mod_3, y_mod_3, symbol, state_or_None)``.
CellLabel = Tuple[str, int, int, str, Optional[str]]


@dataclass(frozen=True)
class Cell:
    """One cell of an execution table: a tape symbol plus the head state if the head is here."""

    symbol: str
    state: Optional[str] = None

    @property
    def has_head(self) -> bool:
        """``True`` when the machine head is on this cell in this row."""
        return self.state is not None


@dataclass(frozen=True)
class BoundaryCrossings:
    """Which window borders the machine head crossed during a window evolution step."""

    left: bool = False
    right: bool = False


def cell_label(machine_encoding: str, r: int, x: int, y: int, cell: Cell) -> Tuple:
    """Build the node label of a table/fragment cell.

    ``x`` is the column (tape cell index within the grid), ``y`` the row
    (time); only their values mod 3 enter the label, exactly as in the
    paper, so that the label alphabet is bounded by a function of ``M``
    and ``r`` alone.
    """
    return (machine_encoding, r, "cell", x % 3, y % 3, cell.symbol, cell.state)


class ExecutionTable:
    """The (s+1) × (s+1) execution table of a halting machine run.

    Row ``i`` (for ``0 <= i <= s``) is the configuration before step ``i``;
    row ``s`` is the halting configuration.  Column ``j`` is tape cell ``j``.
    The width equals ``s + 1``, which is always enough because the head
    starts at cell 0 and moves at most one cell per step.
    """

    def __init__(self, machine: TuringMachine, fuel: int = 100_000) -> None:
        result = machine.run(fuel)
        if not result.halted:
            raise TuringMachineError(
                f"machine {machine.name!r} did not halt within {fuel} steps; "
                "execution tables exist only for halting machines"
            )
        self.machine = machine
        self.running_time = result.steps
        self.width = result.steps + 1
        self.num_rows = result.steps + 1
        self._rows: List[Tuple[Cell, ...]] = [
            self._config_to_row(config, self.width) for config in result.history
        ]
        self.output = result.output

    @staticmethod
    def _config_to_row(config: Configuration, width: int) -> Tuple[Cell, ...]:
        cells = []
        for j in range(width):
            state = config.state if j == config.head else None
            cells.append(Cell(symbol=config.symbol_at(j), state=state))
        return tuple(cells)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    def row(self, i: int) -> Tuple[Cell, ...]:
        """Return row ``i`` (the configuration before step ``i``)."""
        return self._rows[i]

    def rows(self) -> Tuple[Tuple[Cell, ...], ...]:
        """Return all rows."""
        return tuple(self._rows)

    def cell(self, i: int, j: int) -> Cell:
        """Return the cell at row ``i``, column ``j``."""
        return self._rows[i][j]

    def head_position(self, i: int) -> int:
        """Return the head position (column) in row ``i``."""
        for j, c in enumerate(self._rows[i]):
            if c.has_head:
                return j
        raise TuringMachineError(f"row {i} has no head cell")  # pragma: no cover - structural invariant

    def label_alphabet(self, r: int) -> Set[Tuple]:
        """Return the set of distinct node labels used by :meth:`to_grid_graph`.

        The paper requires this set to be bounded by a function of ``M``
        (and ``r``) alone — in particular it must not grow with the running
        time.  Tests assert exactly that.
        """
        enc = self.machine.encode()
        labels = set()
        for i, row in enumerate(self._rows):
            for j, c in enumerate(row):
                labels.add(cell_label(enc, r, j, i, c))
        return labels

    def to_grid_graph(self, r: int) -> LabelledGraph:
        """Return the execution table as a labelled grid graph (the paper's ``T``).

        Nodes are ``("T", row, col)``; two nodes are adjacent when their
        Euclidean distance is 1.  Node labels are produced by
        :func:`cell_label` — in particular they contain the coordinates only
        mod 3.  The *node names* carry the true coordinates, but node names
        are never visible to algorithms (only labels and identifiers are).
        """
        enc = self.machine.encode()
        nodes = [("T", i, j) for i in range(self.num_rows) for j in range(self.width)]
        edges = []
        for i in range(self.num_rows):
            for j in range(self.width):
                if i + 1 < self.num_rows:
                    edges.append((("T", i, j), ("T", i + 1, j)))
                if j + 1 < self.width:
                    edges.append((("T", i, j), ("T", i, j + 1)))
        labels = {
            ("T", i, j): cell_label(enc, r, j, i, self._rows[i][j])
            for i in range(self.num_rows)
            for j in range(self.width)
        }
        return LabelledGraph(nodes, edges, labels)

    @property
    def pivot_node(self) -> Tuple[str, int, int]:
        """The pivot node of the table: the top-left cell, where the computation starts."""
        return ("T", 0, 0)

    def __repr__(self) -> str:
        return (
            f"ExecutionTable(machine={self.machine.name!r}, s={self.running_time}, "
            f"size={self.num_rows}x{self.width})"
        )


# ---------------------------------------------------------------------- #
# Local consistency rules (shared by fragments, the checker, and B)
# ---------------------------------------------------------------------- #


def _apply_head_transition(
    machine: TuringMachine, row: Sequence[Cell], head_col: int
) -> Tuple[List[Cell], Optional[int], BoundaryCrossings]:
    """Apply the machine's transition to a row whose head is inside the window.

    Returns the next row's cells (within the window), the new head column
    (``None`` when the head left the window), and the boundary crossings.
    """
    cell = row[head_col]
    assert cell.state is not None
    next_cells = [Cell(c.symbol, None) for c in row]
    if cell.state == machine.halt_state:
        # Halting rows are absorbing: the table ends at the halting row, and
        # window evolutions simply repeat it (locally consistent by fiat).
        return [Cell(c.symbol, c.state) for c in row], head_col, BoundaryCrossings()
    tr = machine.transitions[(cell.state, cell.symbol)]
    next_cells[head_col] = Cell(tr.write, None)
    if tr.move == Move.LEFT:
        new_col = head_col - 1
    elif tr.move == Move.RIGHT:
        new_col = head_col + 1
    else:
        new_col = head_col
    crossings = BoundaryCrossings()
    if new_col < 0:
        crossings = BoundaryCrossings(left=True)
        return next_cells, None, crossings
    if new_col >= len(row):
        crossings = BoundaryCrossings(right=True)
        return next_cells, None, crossings
    next_cells[new_col] = Cell(next_cells[new_col].symbol, tr.new_state)
    return next_cells, new_col, crossings


def row_successors(
    machine: TuringMachine,
    row: Sequence[Cell],
    allow_left_entry: bool = True,
    allow_right_entry: bool = True,
) -> List[Tuple[Tuple[Cell, ...], BoundaryCrossings]]:
    """Enumerate every row that can follow ``row`` in a *window* of an execution table.

    A window sees only ``w`` consecutive tape cells, so the evolution is not
    deterministic at the window borders: when the head is outside the
    window it may (or may not) enter from the left or from the right, in any
    control state.  This function enumerates exactly those possibilities:

    * head inside the window → the unique successor given by the transition
      function (the head may exit the window, which is recorded in the
      returned :class:`BoundaryCrossings`);
    * head not inside → the unchanged row (head stays outside), plus one
      successor per entering state and side (when allowed).

    The fragment collection ``C(M, r)`` of the paper — "all syntactically
    possible execution table fragments" — is generated by iterating this
    enumeration from all possible top rows; see
    :mod:`repro.separation.computability.fragments`.
    """
    head_cols = [j for j, c in enumerate(row) if c.has_head]
    if len(head_cols) > 1:
        raise TuringMachineError("a table row may contain the head at most once")
    if head_cols:
        next_cells, _, crossings = _apply_head_transition(machine, row, head_cols[0])
        return [(tuple(next_cells), crossings)]

    # Head outside the window.  The head may stay outside, or enter through
    # either side in any non-halting state (a halting head never moves, so it
    # cannot enter from outside).
    base = tuple(Cell(c.symbol, None) for c in row)
    successors: List[Tuple[Tuple[Cell, ...], BoundaryCrossings]] = [(base, BoundaryCrossings())]
    entering_states = [q for q in machine.states if q != machine.halt_state]
    if allow_left_entry and row:
        for q in entering_states:
            cells = list(base)
            cells[0] = Cell(cells[0].symbol, q)
            successors.append((tuple(cells), BoundaryCrossings(left=True)))
    if allow_right_entry and len(row) > 1:
        for q in entering_states:
            cells = list(base)
            cells[-1] = Cell(cells[-1].symbol, q)
            successors.append((tuple(cells), BoundaryCrossings(right=True)))
    return successors


def consistent_cell(
    machine: TuringMachine,
    above_left: Optional[Cell],
    above: Optional[Cell],
    above_right: Optional[Cell],
    cell: Cell,
    left_unknown: bool,
    right_unknown: bool,
) -> bool:
    """Check one cell against the row above it (the 2 × 3 window rule).

    ``above_left`` / ``above`` / ``above_right`` are the cells directly
    above-left, above and above-right of ``cell``; ``None`` together with the
    corresponding ``*_unknown`` flag means the cell exists but is not visible
    (outside a node's view), in which case any behaviour originating there is
    accepted.  ``None`` with ``*_unknown=False`` means the cell does not
    exist (true table border), so no head can arrive from that side.

    The rule captures exactly the local constraints of an execution table:

    * the symbol of ``cell`` equals the symbol above unless the head sat
      above and rewrote it;
    * ``cell`` carries a head state iff some visible (or possibly invisible)
      head movement can explain it;
    * a halting head is absorbing (rows repeat below it).
    """
    if above is None:
        # Either the true top row (no constraint from above) or the cell
        # above is not visible (so no constraint can be checked soundly).
        return True

    # --- symbol constraint -------------------------------------------- #
    if above.has_head and above.state != machine.halt_state:
        tr = machine.transitions[(above.state, above.symbol)]
        expected_symbol = tr.write
    else:
        expected_symbol = above.symbol
    if cell.symbol != expected_symbol:
        return False

    # --- head/state constraint ----------------------------------------- #
    # `forced_states`: the head *must* be on `cell` in this row, in one of
    # these states.  `optional_states`: the head *may* be here in one of
    # these states (e.g. arriving from a visible neighbour or from an
    # invisible cell beyond the view).
    forced_states: Set[str] = set()
    optional_states: Set[str] = set()

    if above.has_head:
        if above.state == machine.halt_state:
            # Halting rows are absorbing: the head stays put in the halt state.
            forced_states.add(machine.halt_state)
        else:
            tr = machine.transitions[(above.state, above.symbol)]
            if tr.move == Move.STAY:
                forced_states.add(tr.new_state)
            elif tr.move == Move.LEFT and above_left is None and not left_unknown:
                # A left move against the true table border stays put.
                forced_states.add(tr.new_state)

    if above_left is not None and above_left.has_head and above_left.state != machine.halt_state:
        tr = machine.transitions[(above_left.state, above_left.symbol)]
        if tr.move == Move.RIGHT:
            forced_states.add(tr.new_state)

    if above_right is not None and above_right.has_head and above_right.state != machine.halt_state:
        tr = machine.transitions[(above_right.state, above_right.symbol)]
        if tr.move == Move.LEFT:
            forced_states.add(tr.new_state)

    if (above_left is None and left_unknown) or (above_right is None and right_unknown):
        # The head might arrive from an invisible cell, in any state.
        optional_states.update(machine.states)

    if cell.has_head:
        return cell.state in forced_states or cell.state in optional_states
    return not forced_states
