"""The generic Id-oblivious simulation ``A*`` from the introduction.

Given a ``t``-horizon decider ``A`` (which may look at identifiers), the
paper defines an Id-oblivious ``A*`` as follows:

    For each local neighbourhood ``(G', v)``, algorithm ``A*`` checks
    whether there is a local assignment ``Id' : V(G') -> N`` that makes the
    output ``A(G', Id', v)`` be ``no``.  If such an assignment exists, ``A*``
    outputs ``no`` on ``v`` too; otherwise it outputs ``yes``.

Two observations of the paper are reflected in the implementation:

* In general the search ranges over an **infinite** identifier domain, so
  ``A*`` need not be computable even when ``A`` is — this is precisely why
  the simulation only works under ``(¬C)``.  The implementation therefore
  takes an explicit, finite ``identifier_pool``: with a finite pool the
  search is exact and ``A*`` is computable; the pool plays the role of the
  ``(¬C)`` oracle.
* Under ``(¬B)`` any local assignment extends to a legal global one, so the
  simulation is correct; under ``(B)`` the large identifiers used by the
  search may be illegal globally, which is exactly where Section 2's
  counter-example lives.  :class:`ObliviousSimulation` lets callers choose
  the pool and observe both behaviours.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..engine.base import EngineLike, resolve_engine
from ..errors import AlgorithmError
from ..graphs.identifiers import enumerate_injections
from ..graphs.neighbourhood import Neighbourhood
from ..local_model.algorithm import IdObliviousAlgorithm, LocalAlgorithm
from ..local_model.outputs import NO, YES, Verdict

__all__ = ["ObliviousSimulation", "simulate_obliviously"]


class ObliviousSimulation(IdObliviousAlgorithm):
    """The Id-oblivious simulation ``A*`` of a given decider ``A`` over a finite identifier pool.

    Parameters
    ----------
    base:
        The decider ``A`` being simulated.  It must be a decision algorithm
        (outputs :data:`~repro.local_model.outputs.YES` /
        :data:`~repro.local_model.outputs.NO`).
    identifier_pool:
        The finite set of identifiers the existential search ranges over.
        Correctness of the simulation requires the pool to contain every
        identifier value that could legally appear in the inputs of
        interest; the Section-2 benchmark demonstrates what goes wrong when
        the model forces the pool to depend on ``n`` (assumption ``(B)``).
    max_search:
        Safety cap on the number of assignments tried per neighbourhood
        (the search is ``P(|pool|, |ball|)``-sized).
    engine:
        Execution backend used for the base decider's evaluations.  The
        search re-evaluates ``A`` on the same id-labelled ball types over
        and over across the nodes of a graph (and across graphs), so a
        :class:`~repro.engine.cached.CachedEngine` here memoises the inner
        loop of the simulation.  ``None`` keeps plain direct evaluation.
    """

    def __init__(
        self,
        base: LocalAlgorithm,
        identifier_pool: Sequence[int],
        max_search: int = 2_000_000,
        name: Optional[str] = None,
        engine: EngineLike = None,
    ) -> None:
        super().__init__(radius=base.radius, name=name or f"A*[{base.name}]")
        if len(set(identifier_pool)) != len(identifier_pool):
            raise AlgorithmError("identifier pool contains duplicates")
        self.base = base
        self.identifier_pool = list(identifier_pool)
        self.max_search = max_search
        self.engine = resolve_engine(engine)

    def evaluate(self, view: Neighbourhood) -> Verdict:
        """Output ``no`` iff some identifier assignment to the ball makes the base decider say ``no``."""
        nodes = list(view.nodes())
        if len(self.identifier_pool) < len(nodes):
            raise AlgorithmError(
                f"identifier pool of size {len(self.identifier_pool)} cannot cover a ball of "
                f"{len(nodes)} nodes; enlarge the pool"
            )
        tried = 0
        for ids in enumerate_injections(nodes, self.identifier_pool):
            tried += 1
            if tried > self.max_search:
                raise AlgorithmError(
                    f"oblivious simulation exceeded the search cap of {self.max_search} assignments; "
                    "shrink the identifier pool or the ball"
                )
            out = self.engine.evaluate_view(self.base, view.with_ids(ids))
            if out == NO:
                return NO
            if out != YES:
                raise AlgorithmError(
                    f"base decider {self.base.name!r} returned {out!r}; expected YES or NO"
                )
        return YES


def simulate_obliviously(
    base: LocalAlgorithm,
    identifier_pool: Sequence[int],
    max_search: int = 2_000_000,
    engine: EngineLike = None,
) -> ObliviousSimulation:
    """Convenience constructor for :class:`ObliviousSimulation`."""
    return ObliviousSimulation(base, identifier_pool, max_search=max_search, engine=engine)
