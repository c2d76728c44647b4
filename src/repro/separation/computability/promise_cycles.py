"""Section 3's warm-up: the promise problem ``R`` on machine-labelled cycles.

    "The instances are labelled graphs (G, M) such that G is an n-cycle;
    the constant input label M is a Turing machine; and if M halts in
    exactly s steps (when started on a blank tape) then we promise that
    n >= s.  We have a yes-instance if M runs forever and a no-instance if
    M halts."

The Id-based decider: a node with identifier ``i`` simulates ``M`` for ``i``
steps and rejects if the simulation stops.  Under the promise, a halting
machine's running time is at most ``n``, and some identifier is at least
``n`` (identifiers being ``n`` distinct naturals — with the same 1-based
convention as the Section-2 promise problem), so some node completes the
simulation and rejects.

An Id-oblivious decider would have to decide the halting problem from the
machine description alone (the cycle topology carries no information), which
is impossible for a computable algorithm — the reproduction demonstrates
this by showing that any fixed simulation budget is defeated by a machine
that halts just after it.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ...decision.property import InstanceFamily, PromiseProperty
from ...errors import ConstructionError
from ...graphs.generators import cycle_graph
from ...graphs.identifiers import IdAssignment, sequential_assignment
from ...graphs.labelled_graph import LabelledGraph
from ...graphs.neighbourhood import Neighbourhood
from ...local_model.algorithm import IdObliviousAlgorithm, LocalAlgorithm
from ...local_model.outputs import NO, YES, Verdict
from ...turing.machine import TuringMachine

__all__ = [
    "machine_cycle_instance",
    "HaltingPromiseProblem",
    "IdSimulationDecider",
    "BoundedBudgetObliviousDecider",
]


def machine_cycle_instance(machine: TuringMachine, n: int) -> LabelledGraph:
    """Return the ``n``-cycle in which every node is labelled with the machine's encoding."""
    if n < 3:
        raise ConstructionError(f"cycles need at least 3 nodes, got {n}")
    return cycle_graph(n, label=("tm", machine.encode()))


class HaltingPromiseProblem(PromiseProperty):
    """Promise problem ``R``: machine-labelled cycles; yes iff the machine runs forever.

    ``fuel`` bounds the simulations performed by the ground-truth membership
    and promise checks; instances built through :meth:`yes_instance` /
    :meth:`no_instance` always respect it.
    """

    def __init__(self, fuel: int = 50_000) -> None:
        super().__init__(name="sec3-halting-promise")
        self.fuel = fuel

    @staticmethod
    def _machine_of(graph: LabelledGraph) -> Optional[TuringMachine]:
        labels = set(graph.labels().values())
        if len(labels) != 1:
            return None
        (label,) = labels
        if not (isinstance(label, tuple) and len(label) == 2 and label[0] == "tm"):
            return None
        try:
            return TuringMachine.decode(label[1])
        except Exception:
            return None

    def satisfies_promise(self, graph: LabelledGraph) -> bool:
        machine = self._machine_of(graph)
        n = graph.num_nodes()
        if machine is None or n < 3:
            return False
        if not (graph.is_connected() and all(graph.degree(v) == 2 for v in graph.nodes())):
            return False
        result = machine.run(self.fuel, keep_history=False)
        if result.halted and result.steps > n:
            return False
        return True

    def contains_under_promise(self, graph: LabelledGraph) -> bool:
        machine = self._machine_of(graph)
        assert machine is not None
        return not machine.run(self.fuel, keep_history=False).halted

    # Instance helpers --------------------------------------------------- #

    def yes_instance(self, machine: TuringMachine, n: int) -> LabelledGraph:
        """A cycle labelled with a non-halting machine (any ``n`` respects the promise)."""
        if machine.run(self.fuel, keep_history=False).halted:
            raise ConstructionError(f"{machine.name!r} halts; it cannot label a yes-instance")
        return machine_cycle_instance(machine, n)

    def no_instance(self, machine: TuringMachine, n: Optional[int] = None) -> LabelledGraph:
        """A cycle labelled with a halting machine; ``n`` defaults to the smallest promise-respecting size."""
        result = machine.run(self.fuel, keep_history=False)
        if not result.halted:
            raise ConstructionError(f"{machine.name!r} does not halt within the fuel; cannot build a no-instance")
        size = n if n is not None else max(result.steps, 3)
        if size < result.steps:
            raise ConstructionError(
                f"n = {size} violates the promise (running time is {result.steps})"
            )
        return machine_cycle_instance(machine, size)

    def instance_ids(self, graph: LabelledGraph) -> IdAssignment:
        """The canonical 1-based identifier assignment used for this promise problem."""
        return sequential_assignment(graph, start=1)

    def family(
        self,
        halting: Iterable[TuringMachine],
        non_halting: Iterable[TuringMachine],
        n_for_yes: int = 8,
    ) -> InstanceFamily:
        """Build an instance family from halting (no) and non-halting (yes) machines."""
        return InstanceFamily(
            name=self.name,
            yes_instances=[self.yes_instance(m, n_for_yes) for m in non_halting],
            no_instances=[self.no_instance(m) for m in halting],
            description="machine-labelled cycles under the running-time promise",
        )


class IdSimulationDecider(LocalAlgorithm):
    """The LD decider of the promise problem: simulate ``M`` for ``Id(v)`` steps; reject if it halts."""

    def __init__(self, max_simulation_steps: int = 1_000_000) -> None:
        super().__init__(radius=0, name="sec3-id-simulation-decider")
        self.max_simulation_steps = max_simulation_steps

    def evaluate(self, view: Neighbourhood) -> Verdict:
        label = view.center_label()
        if not (isinstance(label, tuple) and len(label) == 2 and label[0] == "tm"):
            return NO
        machine = TuringMachine.decode(label[1])
        budget = min(view.center_id(), self.max_simulation_steps)
        return NO if machine.run(budget, keep_history=False).halted else YES


class BoundedBudgetObliviousDecider(IdObliviousAlgorithm):
    """An Id-oblivious candidate with a fixed simulation budget — necessarily incorrect.

    Without identifiers a computable node algorithm can only simulate ``M``
    for some number of steps that is a computable function of ``M`` alone;
    this candidate models the simplest such strategy (a constant budget) and
    is defeated by any halting machine whose running time exceeds the budget
    (while respecting the promise).  The benchmark uses it to make the
    ``R ∉ LD*`` half of the promise problem concrete.
    """

    def __init__(self, budget: int) -> None:
        super().__init__(radius=0, name=f"oblivious-budget-{budget}")
        self.budget = budget

    def evaluate(self, view: Neighbourhood) -> Verdict:
        label = view.center_label()
        if not (isinstance(label, tuple) and len(label) == 2 and label[0] == "tm"):
            return NO
        machine = TuringMachine.decode(label[1])
        return NO if machine.run(self.budget, keep_history=False).halted else YES
