"""Delta-debugging minimisation of found counter-examples.

A raw counter-example found by search (or by an exhaustive sweep) typically
defeats the decider on a large instance under a noisy assignment; the
*minimal* witness is what the separation arguments actually cite.  This
module shrinks along both axes while preserving the failure:

* **nodes** — classic ddmin over the node set: ever-smaller chunks of
  nodes are removed, the induced labelled subgraph (with the restricted
  assignment) is re-decided, and a removal is kept whenever the decider is
  still wrong about the shrunk instance's *recomputed* membership.  The
  loop ends 1-minimal: no single node can be removed without losing the
  defeat.
* **identifiers** — each surviving node's identifier is lowered to the
  smallest unused value that keeps the failure (after first trying the
  order-preserving rank compaction in one step), ending per-coordinate
  minimal: no single identifier can be decreased further.

Ground truth is recomputed per candidate because removing nodes can change
membership; candidates whose membership is undefined (a promise violation,
a construction error) are simply not valid shrinks and are skipped.  Every
probe costs one decider execution, so the whole minimisation is budgeted
(``max_checks``) and runs through the same ``engine=`` seam as the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..decision.decider import CounterExample, decide_outcome
from ..decision.property import Property
from ..engine.base import EngineLike, resolve_engine
from ..errors import ReproError
from ..graphs.identifiers import IdAssignment, IdentifierSpace
from ..graphs.labelled_graph import LabelledGraph, Node

__all__ = ["MinimalCounterExample", "shrink_counterexample"]


@dataclass
class MinimalCounterExample:
    """A counter-example shrunk to a locally-minimal instance.

    ``counter`` is the shrunk failure itself (graph, assignment, rejecting
    nodes); the remaining fields record where it came from and how hard the
    minimisation worked.  ``locally_minimal`` is ``True`` when the final
    passes confirmed, within budget, that no single node can be removed and
    no single identifier decreased without losing the defeat.
    """

    counter: CounterExample
    original_nodes: int
    original_max_id: int  # -1 when the defeat carries no assignment
    checks: int
    rounds: int
    locally_minimal: bool

    @property
    def graph(self) -> LabelledGraph:
        return self.counter.graph

    @property
    def ids(self) -> Optional[IdAssignment]:
        return self.counter.ids

    @property
    def nodes_removed(self) -> int:
        return self.original_nodes - self.counter.graph.num_nodes()

    def describe(self) -> str:
        """One-liner: the minimal witness and the shrink it took to get there."""
        ids = self.counter.ids
        max_id = "-" if ids is None else str(ids.max_identifier())
        return (
            f"minimal {self.counter.kind}: n={self.counter.graph.num_nodes()} "
            f"(from {self.original_nodes}), max id {max_id} (from {self.original_max_id}), "
            f"{self.checks} shrink checks"
            + ("" if self.locally_minimal else " [budget hit before local minimality]")
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready record (used by search reports and campaign details)."""
        return {
            "counterexample": self.counter.as_dict(),
            "original_nodes": self.original_nodes,
            "original_max_id": self.original_max_id,
            "nodes_removed": self.nodes_removed,
            "checks": self.checks,
            "rounds": self.rounds,
            "locally_minimal": self.locally_minimal,
        }


class _Shrinker:
    """State of one minimisation run: budget, defeat probe, current witness."""

    def __init__(
        self,
        decider,
        counter: CounterExample,
        prop: Optional[Property],
        id_space: Optional[IdentifierSpace],
        engine: EngineLike,
        max_checks: int,
    ) -> None:
        self.decider = decider
        self.prop = prop
        self.id_space = id_space
        self.engine = resolve_engine(engine)
        self.max_checks = max_checks
        self.checks = 0
        self.rounds = 0
        self.graph = counter.graph
        self.ids = counter.ids
        self.expected = counter.expected
        self.accepted = counter.accepted
        self.rejecting: Tuple[Node, ...] = counter.rejecting_nodes
        self.family = counter.family

    # -- probing --------------------------------------------------------- #

    def budget_left(self) -> bool:
        return self.checks < self.max_checks

    def _membership(self, graph: LabelledGraph) -> Optional[bool]:
        """Recomputed ground truth, or ``None`` when undefined for this candidate."""
        if self.prop is None:
            # Without a property, membership is only known for the original
            # graph; shrinking is then restricted to identifiers.
            return self.expected if graph == self.graph else None
        try:
            return bool(self.prop.contains(graph))
        except ReproError:
            return None

    def _defeats(self, graph: LabelledGraph, ids: Optional[IdAssignment]) -> bool:
        """Probe one candidate; ``True`` when the decider is still wrong on it."""
        if graph.num_nodes() == 0 or not self.budget_left():
            return False
        expected = self._membership(graph)
        if expected is None:
            return False
        if ids is not None and self.id_space is not None:
            if not self.id_space.is_legal(graph, ids):
                return False
        self.checks += 1
        try:
            outcome = decide_outcome(self.decider, graph, ids, engine=self.engine)
        except ReproError:
            return False
        if outcome.accepted == expected:
            return False
        self.expected, self.accepted = expected, outcome.accepted
        self.rejecting = outcome.rejecting_nodes
        return True

    # -- node ddmin ------------------------------------------------------ #

    def _restricted(self, kept: Sequence[Node]) -> Tuple[LabelledGraph, Optional[IdAssignment]]:
        graph = self.graph.induced_subgraph(kept)
        ids = self.ids.restrict(graph.nodes()) if self.ids is not None else None
        return graph, ids

    def shrink_nodes(self) -> None:
        """ddmin over the node set until 1-minimal or out of budget."""
        nodes = list(self.graph.nodes())
        chunks = 2
        while len(nodes) > 1 and self.budget_left():
            self.rounds += 1
            chunks = min(chunks, len(nodes))
            size = max(1, len(nodes) // chunks)
            reduced = False
            start = 0
            while start < len(nodes) and self.budget_left():
                kept = nodes[:start] + nodes[start + size :]
                if not kept:
                    start += size
                    continue
                graph, ids = self._restricted(kept)
                if self._defeats(graph, ids):
                    self.graph, self.ids = graph, ids
                    nodes = kept
                    chunks = max(2, chunks - 1)
                    reduced = True
                    break
                start += size
            if not reduced:
                if size == 1:
                    return  # no single node can go: 1-minimal
                chunks = min(len(nodes), chunks * 2)

    # -- identifier minimisation ----------------------------------------- #

    def shrink_identifiers(self) -> None:
        """Lower identifiers to per-coordinate minima while the defeat holds."""
        if self.ids is None or not getattr(self.decider, "uses_identifiers", True):
            return
        nodes = list(self.graph.nodes())
        # One-step rank compaction first: the order-preserving relabelling
        # onto 0..n-1 settles most witnesses in a single probe.
        compact = IdAssignment(
            {v: rank for rank, v in enumerate(sorted(nodes, key=self.ids.__getitem__))}
        )
        if compact != self.ids and self._defeats(self.graph, compact):
            self.ids = compact
        improved = True
        while improved and self.budget_left():
            self.rounds += 1
            improved = False
            for v in nodes:
                current = self.ids[v]
                used = set(self.ids.identifiers()) - {current}
                for target in range(current):
                    if target in used or not self.budget_left():
                        continue
                    candidate = IdAssignment(
                        {u: (target if u == v else self.ids[u]) for u in nodes}
                    )
                    if self._defeats(self.graph, candidate):
                        self.ids = candidate
                        improved = True
                        break

    # -- result ---------------------------------------------------------- #

    def result(self, original: CounterExample) -> MinimalCounterExample:
        counter = CounterExample(
            graph=self.graph,
            ids=self.ids,
            expected=self.expected,
            accepted=self.accepted,
            family=self.family,
            rejecting_nodes=self.rejecting,
        )
        return MinimalCounterExample(
            counter=counter,
            original_nodes=original.graph.num_nodes(),
            original_max_id=-1 if original.ids is None else original.ids.max_identifier(),
            checks=self.checks,
            rounds=self.rounds,
            locally_minimal=self.budget_left(),
        )


def shrink_counterexample(
    decider,
    counter: CounterExample,
    prop: Optional[Property] = None,
    id_space: Optional[IdentifierSpace] = None,
    engine: EngineLike = None,
    max_checks: int = 512,
) -> MinimalCounterExample:
    """Shrink a found counter-example to a locally-minimal witness.

    Nodes are minimised first (ddmin on the induced subgraph, ground truth
    recomputed via ``prop`` per candidate), then identifiers (rank
    compaction followed by per-node descent to the smallest unused value).
    With ``id_space`` given, only assignments legal in that space count as
    witnesses.  The returned record carries the shrunk
    :class:`~repro.decision.decider.CounterExample` plus shrink statistics;
    ``locally_minimal`` reports whether both minimality passes completed
    within ``max_checks`` decider executions.
    """
    shrinker = _Shrinker(decider, counter, prop, id_space, engine, max_checks)
    shrinker.shrink_nodes()
    shrinker.shrink_identifiers()
    return shrinker.result(counter)
