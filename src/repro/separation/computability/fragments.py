"""The fragment collection ``C(M, r)`` (Section 3.2).

The purpose of the fragments is property (P3): the local neighbourhoods of
``G(M, r)`` must reveal only *computable* information about ``M``.  The
paper achieves this by adding to ``G`` "all syntactically possible execution
table fragments", so that the question "does there exist a local
neighbourhood where ``M`` is in such-and-such a state" is always answered
yes, regardless of whether that state is ever reached in the real execution.

A fragment is a ``w × w`` grid (``w = 3r`` in the paper) labelled so that

* the ``(mod 3)`` coordinates give a consistent orientation, and
* every local window is consistent with the transition function of ``M``.

Enumeration strategy (Lemma 2 — "a simple enumeration of all possible
labellings"):  brute-forcing all labellings of the grid is exponential in
``w²``; instead the fragments are generated row by row.  The first row
ranges over every syntactically possible window content (tape symbols, with
the head present in any column and any state, or absent); each subsequent
row is obtained from its predecessor by
:func:`repro.turing.execution_table.row_successors`, which enumerates the
deterministic successor when the head is inside the window and every
possible head entry from outside the window otherwise.  The result is
exactly the set of ``w``-wide, ``w``-tall windows that can occur in *some*
(possibly partial, possibly never-halting) execution table of ``M`` — which
is what "syntactically possible" means operationally — and the generation
terminates for every machine, halting or not (this is the content of
Lemma 2 and the reason the neighbourhood generator ``B`` halts on all
inputs).

*Natural borders* (used when gluing fragments to the pivot) are tracked
during generation: a side border is natural when the head never crosses it,
the bottom row is natural when it does not contain the head in a
non-halting state, and the top row is never natural.  The paper's
"border property" fix — when only the top and bottom rows are non-natural,
the fragment is replaced by two variants interpreting the left and right
borders as non-natural in turn — is applied by
:func:`FragmentCollection.glueable_variants`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from ...errors import ConstructionError
from ...graphs.labelled_graph import LabelledGraph, Node
from ...turing.execution_table import Cell, cell_label, row_successors
from ...turing.machine import TuringMachine

__all__ = ["Fragment", "FragmentCollection", "enumerate_fragments", "fragment_collection"]


@dataclass(frozen=True)
class Fragment:
    """One labelled ``width × height`` execution-table fragment.

    ``rows[i][j]`` is the cell in the ``i``-th row (time) and ``j``-th
    column (tape position).  ``crossed_left`` / ``crossed_right`` record
    whether the machine head crossed the corresponding window border during
    the fragment's row-to-row evolution.
    """

    rows: Tuple[Tuple[Cell, ...], ...]
    crossed_left: bool
    crossed_right: bool

    @property
    def height(self) -> int:
        """Number of rows."""
        return len(self.rows)

    @property
    def width(self) -> int:
        """Number of columns."""
        return len(self.rows[0]) if self.rows else 0

    # -- natural borders (Section 3.2) ----------------------------------- #

    def left_border_natural(self) -> bool:
        """The left column is natural iff the head never crossed the left window border."""
        return not self.crossed_left

    def right_border_natural(self) -> bool:
        """The right column is natural iff the head never crossed the right window border."""
        return not self.crossed_right

    def bottom_border_natural(self, machine: TuringMachine) -> bool:
        """The bottom row is natural iff it does not contain the head in a non-halting state."""
        for cell in self.rows[-1]:
            if cell.has_head and cell.state != machine.halt_state:
                return False
        return True

    def non_natural_border_cells(self, machine: TuringMachine) -> Set[Tuple[int, int]]:
        """Return the ``(row, col)`` positions of all non-natural border cells.

        The top row is always non-natural; side columns and the bottom row
        are included according to the naturalness rules above.
        """
        cells: Set[Tuple[int, int]] = {(0, j) for j in range(self.width)}
        if not self.left_border_natural():
            cells.update((i, 0) for i in range(self.height))
        if not self.right_border_natural():
            cells.update((i, self.width - 1) for i in range(self.height))
        if not self.bottom_border_natural(machine):
            cells.update((self.height - 1, j) for j in range(self.width))
        return cells

    def with_forced_side(self, side: str) -> "Fragment":
        """Return a variant of this fragment whose given side border is interpreted as non-natural."""
        if side == "left":
            return Fragment(self.rows, crossed_left=True, crossed_right=self.crossed_right)
        if side == "right":
            return Fragment(self.rows, crossed_left=self.crossed_left, crossed_right=True)
        raise ConstructionError(f"side must be 'left' or 'right', got {side!r}")

    # -- graph conversion ------------------------------------------------- #

    def to_graph(
        self,
        machine_encoding: str,
        r: int,
        name_prefix: Tuple = ("F", 0),
    ) -> LabelledGraph:
        """Return the fragment as a labelled grid graph.

        Node names are ``name_prefix + (row, col)``; labels follow the same
        ``cell_label`` scheme as the real execution table, so fragment
        interiors are indistinguishable from table interiors.
        """
        nodes = []
        edges = []
        labels = {}
        for i in range(self.height):
            for j in range(self.width):
                name = name_prefix + (i, j)
                nodes.append(name)
                labels[name] = cell_label(machine_encoding, r, j, i, self.rows[i][j])
                if i + 1 < self.height:
                    edges.append((name, name_prefix + (i + 1, j)))
                if j + 1 < self.width:
                    edges.append((name, name_prefix + (i, j + 1)))
        return LabelledGraph(nodes, edges, labels)


def _top_rows(machine: TuringMachine, width: int, max_symbols: Optional[Sequence[str]] = None) -> Iterator[Tuple[Cell, ...]]:
    """Enumerate every syntactically possible top row of a width-``width`` fragment."""
    symbols = tuple(max_symbols) if max_symbols is not None else machine.alphabet
    head_positions: List[Optional[int]] = [None] + list(range(width))
    for content in itertools.product(symbols, repeat=width):
        for head in head_positions:
            if head is None:
                yield tuple(Cell(s, None) for s in content)
            else:
                for state in machine.states:
                    yield tuple(
                        Cell(s, state if j == head else None) for j, s in enumerate(content)
                    )


def enumerate_fragments(
    machine: TuringMachine,
    width: int,
    height: Optional[int] = None,
    max_fragments: Optional[int] = None,
) -> Iterator[Fragment]:
    """Enumerate the syntactically possible ``width × height`` fragments of ``M``'s execution tables.

    The enumeration is breadth-first over rows; duplicates (identical row
    matrices reachable through different crossing histories) are merged by
    keeping the variant with the fewest crossings, so naturalness is not
    under-reported.  ``max_fragments`` caps the output for the larger
    machines in the library.
    """
    if width < 1:
        raise ConstructionError(f"fragment width must be positive, got {width}")
    height = height if height is not None else width
    if height < 1:
        raise ConstructionError(f"fragment height must be positive, got {height}")

    produced = 0
    seen: Set[Tuple] = set()
    for top in _top_rows(machine, width):
        # frontier entries: (rows so far, crossed_left, crossed_right)
        frontier: List[Tuple[Tuple[Tuple[Cell, ...], ...], bool, bool]] = [((top,), False, False)]
        for _ in range(height - 1):
            new_frontier = []
            for rows, cl, cr in frontier:
                for nxt, crossings in row_successors(machine, rows[-1]):
                    new_frontier.append((rows + (nxt,), cl or crossings.left, cr or crossings.right))
            frontier = new_frontier
        for rows, cl, cr in frontier:
            key = (rows, cl, cr)
            if key in seen:
                continue
            seen.add(key)
            yield Fragment(rows=rows, crossed_left=cl, crossed_right=cr)
            produced += 1
            if max_fragments is not None and produced >= max_fragments:
                return


class FragmentCollection:
    """The collection ``C(M, r)``: all syntactically possible ``(3r) × (3r)`` fragments.

    Parameters
    ----------
    machine:
        The Turing machine ``M`` (need not halt — Lemma 2).
    r:
        The locality parameter; fragments have side ``max(3 * r, 2)``.
    side:
        Explicit override of the fragment side length (used by tests and by
        the neighbourhood generator, which needs slightly larger windows for
        the pyramidal variant).
    max_fragments:
        Safety cap on the number of generated fragments.
    """

    def __init__(
        self,
        machine: TuringMachine,
        r: int,
        side: Optional[int] = None,
        max_fragments: Optional[int] = 200_000,
    ) -> None:
        if r < 0:
            raise ConstructionError(f"r must be non-negative, got {r}")
        self.machine = machine
        self.r = r
        self.side = side if side is not None else max(3 * r, 2)
        self.fragments: List[Fragment] = list(
            enumerate_fragments(machine, self.side, self.side, max_fragments)
        )

    def __len__(self) -> int:
        return len(self.fragments)

    def __iter__(self) -> Iterator[Fragment]:
        return iter(self.fragments)

    def glueable_variants(self) -> List[Fragment]:
        """Return the fragments to glue into ``G(M, r)``, with the border-connectivity fix applied.

        The non-natural borders of each glued fragment must form a connected
        subgraph (the paper's "border property" prerequisite).  The only
        problematic case is a fragment whose top and bottom rows are
        non-natural while both side columns are natural; such a fragment is
        replaced by its two variants in which the left and right borders are
        interpreted as non-natural in turn.
        """
        out: List[Fragment] = []
        for frag in self.fragments:
            top_and_bottom_only = (
                frag.left_border_natural()
                and frag.right_border_natural()
                and not frag.bottom_border_natural(self.machine)
            )
            if top_and_bottom_only:
                out.append(frag.with_forced_side("left"))
                out.append(frag.with_forced_side("right"))
            else:
                out.append(frag)
        return out

    def label_alphabet(self) -> Set[Tuple]:
        """Return the set of distinct cell labels occurring in the collection (bounded in ``M`` and ``r`` only)."""
        enc = self.machine.encode()
        labels: Set[Tuple] = set()
        for frag in self.fragments:
            for i, row in enumerate(frag.rows):
                for j, cell in enumerate(row):
                    labels.add(cell_label(enc, self.r, j, i, cell))
        return labels


def fragment_collection(machine: TuringMachine, r: int, **kwargs) -> FragmentCollection:
    """Convenience constructor for :class:`FragmentCollection` (the paper's ``C(M, r)``)."""
    return FragmentCollection(machine, r, **kwargs)
