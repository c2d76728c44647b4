"""The local algorithms the benchmark workloads run.

They live here rather than in ``repro`` because they are inputs of the
benchmark: the program under test receives them like any user decider.

* :class:`CycleDecider` — an Id-oblivious LD* decider for "the graph is a
  cycle" on connected inputs: a node rejects exactly when its degree is
  not 2.
* :class:`ThresholdCycleDecider` — an Id-using LD decider for "the graph is
  a cycle of at most ``max_n`` nodes" in the style of Section 2: under the
  bounded identifier space ``Id(v) < f(n)``, a node holding an identifier
  ``>= f(max_n)`` learns that ``n > max_n`` and rejects.
* :class:`CubicDecider` — an Id-oblivious radius-1 decider for "the graph
  is 3-regular": a node rejects exactly when its degree is not 3.
"""

from __future__ import annotations

from repro.decision import FunctionProperty
from repro.graphs import default_bound
from repro.local_model import NO, YES
from repro.local_model.algorithm import IdObliviousAlgorithm, LocalAlgorithm

__all__ = ["CycleDecider", "ThresholdCycleDecider", "CubicDecider", "MAX_CYCLE", "cycle_property"]

#: Largest cycle the threshold decider accepts; verify instances stay below it.
MAX_CYCLE = 512


def _is_cycle(graph) -> bool:
    n = graph.num_nodes()
    return n >= 3 and all(graph.degree(v) == 2 for v in graph.nodes()) and graph.is_connected()


def cycle_property() -> FunctionProperty:
    """The property "the graph is one cycle of at most ``MAX_CYCLE`` nodes"."""
    return FunctionProperty(
        lambda g: _is_cycle(g) and g.num_nodes() <= MAX_CYCLE, name=f"cycle<={MAX_CYCLE}"
    )


class CycleDecider(IdObliviousAlgorithm):
    """Id-oblivious: reject exactly at nodes whose degree is not 2."""

    def __init__(self) -> None:
        super().__init__(radius=1, name="bench-cycle-oblivious")

    def evaluate(self, view):
        """Accept exactly at degree-2 nodes."""
        return YES if view.center_degree() == 2 else NO


class ThresholdCycleDecider(LocalAlgorithm):
    """Id-using: reject on degree != 2, or on an identifier proving ``n > max_n``."""

    def __init__(self, max_n: int = MAX_CYCLE) -> None:
        super().__init__(radius=1, name="bench-cycle-threshold")
        self.threshold = default_bound(max_n)

    def evaluate(self, view):
        """Reject on degree != 2 or on an identifier at or above the threshold."""
        if view.center_degree() != 2 or view.center_id() >= self.threshold:
            return NO
        return YES


class CubicDecider(IdObliviousAlgorithm):
    """Id-oblivious: reject exactly at nodes whose degree is not 3."""

    def __init__(self) -> None:
        super().__init__(radius=1, name="bench-cubic")

    def evaluate(self, view):
        """Accept exactly at degree-3 nodes."""
        return YES if view.center_degree() == 3 else NO
