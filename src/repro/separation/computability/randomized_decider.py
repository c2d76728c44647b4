"""Corollary 1: a randomised Id-oblivious ``(1, 1 - o(1))``-decider for the Section-3 property.

An Id-oblivious algorithm cannot learn ``n`` from identifiers, but it can
*gamble*: every node tosses a fair coin until the first head, observing
``ℓ_v`` tosses, and sets ``n_v = 4^{ℓ_v}``.  The probability that no node
reaches ``n_v >= n`` is at most ``(1 - 1/sqrt(n))^n = o(1)``, so with high
probability some node obtains a simulation budget large enough to finish
running ``M`` and discover its output.

The decider therefore:

1. runs the Id-oblivious structure checker (rejecting malformed inputs
   deterministically, so yes-instances are never falsely rejected — the
   ``p = 1`` side);
2. draws ``n_v = 4^{ℓ_v}`` and simulates ``M`` for ``n_v`` steps; if the
   simulation halts with an output other than ``0``, the node rejects.

On a no-instance ``G(M, r)`` (``M`` halts with output ``≠ 0``) at least one
node rejects with probability ``1 - o(1)`` — the ``q`` side, which the
Corollary-1 benchmark estimates empirically as a function of ``n``.
"""

from __future__ import annotations

import random
from functools import lru_cache

from ...graphs.neighbourhood import Neighbourhood
from ...local_model.algorithm import RandomisedLocalAlgorithm
from ...local_model.outputs import NO, YES, Verdict
from ...turing.machine import TuringMachine
from .execution_graph import parse_cell_label
from .local_checker import ExecutionGraphChecker

__all__ = ["RandomisedObliviousDecider"]


@lru_cache(maxsize=None)
def _checker(radius: int) -> ExecutionGraphChecker:
    """The stateless structure checker per radius: the decider keeps only primitive parameters."""
    return ExecutionGraphChecker(radius=radius)


class RandomisedObliviousDecider(RandomisedLocalAlgorithm):
    """The Corollary-1 decider: coin-tossing simulation budgets instead of identifiers."""

    def __init__(
        self,
        radius: int = 2,
        budget_base: int = 4,
        max_simulation_steps: int = 200_000,
        check_structure: bool = True,
    ) -> None:
        super().__init__(radius=radius, name="cor1-randomised-decider")
        self.budget_base = budget_base
        self.max_simulation_steps = max_simulation_steps
        self.check_structure = check_structure

    def draw_budget(self, rng: random.Random) -> int:
        """Toss a fair coin until the first head and return ``base ** tosses``."""
        tosses = 1
        while rng.random() < 0.5:
            tosses += 1
        return min(self.budget_base**tosses, self.max_simulation_steps)

    def evaluate(self, view: Neighbourhood, rng: random.Random) -> Verdict:
        if self.check_structure and _checker(self.radius).evaluate(view) == NO:
            return NO
        parsed = parse_cell_label(view.center_label())
        if parsed is None:
            return NO
        machine = TuringMachine.decode(parsed[0])
        budget = self.draw_budget(rng)
        result = machine.run(budget, keep_history=False)
        if result.halted and result.output != "0":
            return NO
        return YES
