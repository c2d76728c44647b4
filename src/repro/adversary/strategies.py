"""Search strategies over identifier assignments.

The paper's negative statements all have the shape "for *some* identifier
assignment the candidate decider is wrong"; mechanically, defeating a
candidate means *finding* that assignment.  A :class:`SearchStrategy`
encapsulates one way of walking the (factorially large) space of injective
assignments:

* :class:`ExhaustiveStrategy` — lexicographic enumeration over a finite
  pool, the mechanical "for every Id" quantifier.  Complete but exponential
  in ``n``; the baseline every guided strategy is benchmarked against.
* :class:`RandomStrategy` — deduplicated uniform injective draws; finds
  dense defeat regions quickly, sparse ones never.
* :class:`HillClimbStrategy` — mutation/hill-climbing guided by a fitness
  signal, in the spirit of the protocol-vs-adversary analyses of the GKS
  communication game: the driver scores every evaluated assignment by how
  many nodes already output the defeat-ward verdict, and "almost fooled"
  assignments breed harder ones by identifier reassignment and swaps.

Strategies are deterministic given their seed: proposals depend only on
``(graph, pool, seed)`` and the observed scores, never on wall-clock, id
ordering of sets, or ``PYTHONHASHSEED``.  A strategy instance is bound to
one instance hunt; :func:`resolve_strategy` builds fresh instances from the
names used by CLIs and campaign specs.
"""

from __future__ import annotations

import itertools
import random
from abc import ABC, abstractmethod
from typing import Callable, Iterator, List, Sequence, Tuple, Union

from ..errors import AlgorithmError
from ..graphs.identifiers import IdAssignment
from ..graphs.labelled_graph import LabelledGraph, Node

__all__ = [
    "SearchStrategy",
    "ExhaustiveStrategy",
    "RandomStrategy",
    "HillClimbStrategy",
    "StrategyLike",
    "strategy_names",
    "resolve_strategy",
]


class SearchStrategy(ABC):
    """One instance-bound walk over the injective assignments of a pool.

    The driver repeatedly calls :meth:`propose` for a batch of fresh
    candidate assignments, evaluates them through an execution engine, and
    feeds the scored batch back through :meth:`observe`.  Scores are
    normalised to ``[0, 1]``: the fraction of nodes already outputting the
    verdict that would defeat the decider (1.0 = defeated).
    """

    #: Short name used in reports, benchmark tables and CLI flags.
    name: str = "strategy"

    def __init__(self, graph: LabelledGraph, pool: Sequence[int], seed: int = 0) -> None:
        if len(set(pool)) != len(pool):
            raise AlgorithmError("identifier pool contains duplicates")
        if len(pool) < graph.num_nodes():
            raise AlgorithmError(
                f"identifier pool of size {len(pool)} too small for {graph.num_nodes()} nodes"
            )
        self.graph = graph
        self.nodes: Tuple[Node, ...] = graph.nodes()
        self.pool: Tuple[int, ...] = tuple(sorted(pool))
        self.seed = seed
        self._seen: set = set()

    # ------------------------------------------------------------------ #
    # The protocol
    # ------------------------------------------------------------------ #

    @abstractmethod
    def propose(self, batch_size: int) -> List[IdAssignment]:
        """Return up to ``batch_size`` fresh candidate assignments.

        An empty list means the strategy is exhausted; the driver stops.
        """

    def observe(self, scored: Sequence[Tuple[IdAssignment, float]]) -> None:
        """Feed back the scores of the last proposed batch (default: ignore)."""

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #

    def _remember(self, ids: IdAssignment) -> bool:
        """Track a candidate; ``False`` when it was already proposed."""
        if ids in self._seen:
            return False
        self._seen.add(ids)
        return True

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={len(self.nodes)}, pool={len(self.pool)}, seed={self.seed})"


class ExhaustiveStrategy(SearchStrategy):
    """Lexicographic enumeration of every injective assignment from the pool.

    This is :func:`~repro.graphs.identifiers.enumerate_assignments` in
    batched clothing — the paper's "for every Id" quantifier, realised in
    ``P(|pool|, n)`` decider executions.  It is the completeness baseline:
    it cannot miss a defeat, and the benchmarks measure how many executions
    the guided strategies save against it.
    """

    name = "exhaustive"

    def __init__(self, graph: LabelledGraph, pool: Sequence[int], seed: int = 0) -> None:
        super().__init__(graph, pool, seed)
        self._perms: Iterator[Tuple[int, ...]] = itertools.permutations(self.pool, len(self.nodes))

    def propose(self, batch_size: int) -> List[IdAssignment]:
        out: List[IdAssignment] = []
        for combo in self._perms:
            ids = IdAssignment(dict(zip(self.nodes, combo)))
            if self._remember(ids):
                out.append(ids)
            if len(out) >= batch_size:
                break
        return out


class RandomStrategy(SearchStrategy):
    """Uniform injective draws from the pool, deduplicated against history.

    Degenerates gracefully: when the space is nearly exhausted, each batch
    makes a bounded number of draw attempts, so the strategy reports
    exhaustion instead of spinning on duplicates forever.
    """

    name = "random"

    #: Draw attempts allowed per requested candidate before giving up.
    attempts_per_candidate = 8

    def __init__(self, graph: LabelledGraph, pool: Sequence[int], seed: int = 0) -> None:
        super().__init__(graph, pool, seed)
        self._rng = random.Random(seed)

    def propose(self, batch_size: int) -> List[IdAssignment]:
        out: List[IdAssignment] = []
        attempts = batch_size * self.attempts_per_candidate
        while len(out) < batch_size and attempts > 0:
            attempts -= 1
            combo = self._rng.sample(self.pool, len(self.nodes))
            ids = IdAssignment(dict(zip(self.nodes, combo)))
            if self._remember(ids):
                out.append(ids)
        return out


class HillClimbStrategy(SearchStrategy):
    """Mutation/hill-climbing over assignments, guided by the defeat-ward score.

    A bounded elite of the best-scoring assignments seen so far is kept;
    each batch breeds mutants from the elites (round-robin) by three
    deterministic seeded moves:

    * reassign one node to an unused pool identifier;
    * swap the identifiers of two nodes;
    * reassign two nodes at once (an escape move for plateaus).

    The first batch seeds the population with the two canonical extremes —
    the smallest legal identifiers in node order and the largest in reverse
    (the paper's adversarial "largest identifiers" assignment) — plus
    random fills, so the climb starts from both ends of the pool.
    """

    name = "hill-climb"

    def __init__(
        self,
        graph: LabelledGraph,
        pool: Sequence[int],
        seed: int = 0,
        elite_size: int = 4,
    ) -> None:
        super().__init__(graph, pool, seed)
        self._rng = random.Random(seed)
        self.elite_size = elite_size
        #: Best-scoring assignments seen, as (score, tiebreak, assignment);
        #: the tiebreak makes elite order independent of arrival order.
        self._elite: List[Tuple[float, Tuple[int, ...], IdAssignment]] = []
        #: Seed candidates not yet emitted; drained across propose() calls so
        #: a batch smaller than the seed list never drops a seed.
        self._pending_seeds: List[IdAssignment] = self._seed_candidates()

    # -- seeding --------------------------------------------------------- #

    def _seed_candidates(self) -> List[IdAssignment]:
        n = len(self.nodes)
        low = IdAssignment(dict(zip(self.nodes, self.pool[:n])))
        high = IdAssignment(dict(zip(self.nodes, self.pool[: -n - 1 : -1])))
        return [low, high]

    # -- mutation -------------------------------------------------------- #

    def _mutate(self, ids: IdAssignment) -> IdAssignment:
        mapping = {v: ids[v] for v in self.nodes}
        used = set(mapping.values())
        unused = [i for i in self.pool if i not in used]
        move = self._rng.randrange(3)
        if move == 1 and len(self.nodes) >= 2:
            u, w = self._rng.sample(self.nodes, 2)
            mapping[u], mapping[w] = mapping[w], mapping[u]
        else:
            rewrites = 2 if move == 2 else 1
            for _ in range(rewrites):
                if not unused:
                    break
                v = self._rng.choice(self.nodes)
                fresh = self._rng.choice(unused)
                unused.remove(fresh)
                unused.append(mapping[v])
                mapping[v] = fresh
        return IdAssignment(mapping)

    def propose(self, batch_size: int) -> List[IdAssignment]:
        out: List[IdAssignment] = []
        while self._pending_seeds and len(out) < batch_size:
            ids = self._pending_seeds.pop(0)
            if self._remember(ids):
                out.append(ids)
        parents = [ids for (_, _, ids) in self._elite]
        attempts = batch_size * 8
        cursor = 0
        while len(out) < batch_size and attempts > 0:
            attempts -= 1
            if parents:
                parent = parents[cursor % len(parents)]
                cursor += 1
                candidate = self._mutate(parent)
            else:
                combo = self._rng.sample(self.pool, len(self.nodes))
                candidate = IdAssignment(dict(zip(self.nodes, combo)))
            if self._remember(candidate):
                out.append(candidate)
        return out

    def observe(self, scored: Sequence[Tuple[IdAssignment, float]]) -> None:
        for ids, score in scored:
            self._elite.append((score, ids.identifiers(), ids))
        # Highest score first; the identifier tuple is a deterministic
        # tiebreak so equal-scored elites keep a stable order.
        self._elite.sort(key=lambda item: (-item[0], item[1]))
        del self._elite[self.elite_size :]

    @property
    def best_score(self) -> float:
        """The best score observed so far (0.0 before any feedback)."""
        return self._elite[0][0] if self._elite else 0.0


# ---------------------------------------------------------------------- #
# Strategy resolution
# ---------------------------------------------------------------------- #

#: Anything accepted by ``strategy=`` arguments: a backend name or a factory
#: ``(graph, pool, seed) -> SearchStrategy``.
StrategyLike = Union[str, Callable[[LabelledGraph, Sequence[int], int], SearchStrategy]]

_REGISTRY = {
    "exhaustive": ExhaustiveStrategy,
    "random": RandomStrategy,
    "hill-climb": HillClimbStrategy,
}


def strategy_names() -> List[str]:
    """Names of the built-in strategies."""
    return sorted(_REGISTRY)


def resolve_strategy(
    strategy: StrategyLike,
    graph: LabelledGraph,
    pool: Sequence[int],
    seed: int = 0,
) -> SearchStrategy:
    """Build a fresh instance-bound strategy from a name or factory."""
    if isinstance(strategy, str):
        try:
            factory: Callable[..., SearchStrategy] = _REGISTRY[strategy]
        except KeyError:
            raise AlgorithmError(
                f"unknown search strategy {strategy!r}; choose from {strategy_names()}"
            ) from None
        return factory(graph, pool, seed)
    if callable(strategy):
        built = strategy(graph, pool, seed)
        if not isinstance(built, SearchStrategy):
            raise AlgorithmError(
                f"strategy factory returned {type(built).__qualname__}, expected a SearchStrategy"
            )
        return built
    raise AlgorithmError(f"cannot interpret {strategy!r} as a search strategy")
