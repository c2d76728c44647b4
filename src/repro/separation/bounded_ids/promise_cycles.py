"""Section 2's warm-up: the cycle promise problem in ``LD \\ LD*`` under (B, ¬C).

    "The instances are labelled graphs (G, r) where G is an n-cycle and
    r ∈ N is a constant input label.  We promise that either n = r or
    n = f(r).  We have a yes-instance if n = r and a no-instance if
    n = f(r)."

The Id-based decider exploits that identifiers leak information about ``n``
under assumption ``(B)``: every identifier in an ``n``-node input is below
``f(n)``, so a node holding an identifier ``i >= f(r)`` knows the instance
cannot be the ``r``-cycle and rejects.

Completeness of that decider requires the ``f(r)``-cycle to actually carry
an identifier ``>= f(r)``.  With identifiers drawn from the *positive*
natural numbers (the convention adopted for this promise problem, matching
the paper's "there is a node with identifier at least f(r)"), any
one-to-one assignment on ``f(r)`` nodes has a maximum identifier
``>= f(r)``, so the decider is complete; the instance helpers below produce
1-based assignments.  (With 0-based identifiers the same argument goes
through verbatim for no-instances of size ``f(r) + 1``.)

The Id-oblivious side: an ``r``-cycle and an ``f(r)``-cycle carry identical
constant labels and are locally indistinguishable at horizon ``t`` whenever
``r > 2t + 1``; :func:`indistinguishability_certificate` packages that
coverage fact, which rules out any Id-oblivious decider with that horizon.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ...decision.classes import ImpossibilityCertificate
from ...engine.base import EngineLike
from ...decision.property import InstanceFamily, PromiseProperty
from ...errors import ConstructionError
from ...graphs.generators import cycle_graph
from ...graphs.identifiers import IdAssignment, default_bound, sequential_assignment
from ...graphs.labelled_graph import LabelledGraph
from ...graphs.neighbourhood import Neighbourhood
from ...local_model.algorithm import LocalAlgorithm
from ...local_model.outputs import NO, YES, Verdict
from ...analysis.coverage import build_impossibility_certificate

__all__ = [
    "CyclePromiseProblem",
    "cycle_instance",
    "IdThresholdCycleDecider",
    "indistinguishability_certificate",
]


def cycle_instance(length: int, r_label: int) -> LabelledGraph:
    """Return a ``length``-cycle in which every node carries the constant label ``r_label``."""
    if length < 3:
        raise ConstructionError(f"cycles need at least 3 nodes, got {length}")
    return cycle_graph(length, label=r_label)


class CyclePromiseProblem(PromiseProperty):
    """The promise problem: yes-instances are ``r``-cycles, no-instances are ``f(r)``-cycles.

    Parameters
    ----------
    bound_fn:
        The identifier bound function ``f`` of model ``(B)``.  It must
        satisfy ``f(r) > r`` so the two promised sizes differ.
    """

    def __init__(self, bound_fn: Callable[[int], int] = default_bound) -> None:
        super().__init__(name="sec2-cycle-promise")
        self.bound_fn = bound_fn

    def _constant_label(self, graph: LabelledGraph) -> Optional[int]:
        labels = set(graph.labels().values())
        if len(labels) != 1:
            return None
        (label,) = labels
        return label if isinstance(label, int) and label >= 3 else None

    def _is_cycle(self, graph: LabelledGraph) -> bool:
        n = graph.num_nodes()
        return (
            n >= 3
            and graph.is_connected()
            and graph.num_edges() == n
            and all(graph.degree(v) == 2 for v in graph.nodes())
        )

    def satisfies_promise(self, graph: LabelledGraph) -> bool:
        r = self._constant_label(graph)
        if r is None or not self._is_cycle(graph):
            return False
        n = graph.num_nodes()
        return n in (r, self.bound_fn(r))

    def contains_under_promise(self, graph: LabelledGraph) -> bool:
        r = self._constant_label(graph)
        return graph.num_nodes() == r

    # ------------------------------------------------------------------ #
    # Instance construction
    # ------------------------------------------------------------------ #

    def yes_instance(self, r: int) -> LabelledGraph:
        """The ``r``-cycle labelled ``r``."""
        return cycle_instance(r, r)

    def no_instance(self, r: int) -> LabelledGraph:
        """The ``f(r)``-cycle labelled ``r``."""
        return cycle_instance(self.bound_fn(r), r)

    def family(self, r_values: Tuple[int, ...] = (4, 6, 8)) -> InstanceFamily:
        """A finite instance family over several values of ``r``."""
        return InstanceFamily(
            name=self.name,
            yes_instances=[self.yes_instance(r) for r in r_values],
            no_instances=[self.no_instance(r) for r in r_values],
            description=f"r in {r_values}, f = {self.bound_fn.__name__}",
        )

    def instance_ids(self, graph: LabelledGraph) -> IdAssignment:
        """The canonical 1-based identifier assignment used for this promise problem."""
        return sequential_assignment(graph, start=1)


class IdThresholdCycleDecider(LocalAlgorithm):
    """The LD decider of the promise problem: reject iff my identifier is ``>= f(r)``.

    The decider needs horizon 0 — a node only looks at its own label ``r``
    and its own identifier.  Under ``(¬C)`` the bound function ``f`` may be
    uncomputable; the implementation takes it as a callable, which plays the
    role of the ``(¬C)`` oracle.
    """

    def __init__(self, bound_fn: Callable[[int], int] = default_bound) -> None:
        super().__init__(radius=0, name="sec2-id-threshold-decider")
        self.bound_fn = bound_fn

    def evaluate(self, view: Neighbourhood) -> Verdict:
        r = view.center_label()
        if not isinstance(r, int):
            return NO
        return NO if view.center_id() >= self.bound_fn(r) else YES


def indistinguishability_certificate(
    problem: CyclePromiseProblem, r: int, horizon: int, engine: "EngineLike" = None
) -> ImpossibilityCertificate:
    """Certificate that the ``f(r)``-cycle is locally covered by the ``r``-cycle at the given horizon.

    Valid whenever ``r > 2 * horizon + 1``: every radius-``horizon`` view in
    either cycle is a constant-labelled path of ``2 * horizon + 1`` nodes, so
    an Id-oblivious decider cannot tell the no-instance from the yes-instance.
    """
    return build_impossibility_certificate(
        property_name=problem.name,
        radius=horizon,
        fooling_instance=problem.no_instance(r),
        covering_yes_instances=[problem.yes_instance(r)],
        notes=f"r={r}, f(r)={problem.bound_fn(r)}, horizon={horizon}",
        engine=engine,
    )
