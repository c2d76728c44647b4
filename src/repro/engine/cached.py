"""Caching backend: shared interned ball collections + memoised evaluation.

Three observations make it sound:

* the balls of a graph do not depend on the identifier assignment, so one
  interned ball collection per ``(graph, radius)``
  (:func:`~repro.engine.interned.interned_id_free_views`) serves every
  assignment the verifier sweeps over;
* a local algorithm is, by definition, a function of the isomorphism type
  of its view, so its output can be memoised per ``(algorithm, view key)``
  where the key is the canonical tuple of
  :func:`~repro.engine.interned.interned_view_key`: isomorphic balls (every
  node of a cycle, every interior node of a long path) are evaluated
  exactly once.  An identifier view is keyed by ordering its nodes by
  identifier, with no search; an Id-oblivious view whose key search
  exceeds its budget is evaluated without memoising;
* a whole deterministic run is itself a pure function of
  ``(algorithm, graph, ids)`` — and of ``(algorithm, graph)`` alone for
  Id-oblivious algorithms — so complete output maps are memoised too.  This
  is what makes the ``verify_decider`` sweep fast: the second and every
  later identifier assignment of an oblivious decider on the same graph is
  answered with a single cache lookup.

All four stores are bounded LRUs (sizes are the module constants below);
memory stays flat over arbitrarily long sweeps.  Randomised algorithms get
the shared balls but are never memoised (their output is not a function of
the view alone).

The memoisation contract is exactly the model's definition of a local
algorithm.  An object that violates the definition — e.g. one whose output
depends on raw node names rather than the labelled structure — is not a
local algorithm in the paper's sense; run such code through the
:class:`~repro.engine.direct.DirectEngine` default instead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Iterable, Optional, Tuple

from ..errors import GraphError
from ..graphs.identifiers import IdAssignment
from ..graphs.labelled_graph import LabelledGraph, Node
from ..graphs.neighbourhood import Neighbourhood
from .base import ExecutionEngine
from .interned import interned_id_free_views, interned_view_key
from .store import LRUStore

if TYPE_CHECKING:  # type-only; keeps engine ↔ local_model import-cycle-free
    from ..local_model.algorithm import LocalAlgorithm

__all__ = ["CachedEngine"]


#: Bounds of the four LRU stores: ``(graph, radius)`` ball collections,
#: ``(algorithm, view key)`` outputs, interned canonical keys, whole runs.
MAX_BALL_COLLECTIONS = 512
MAX_MEMO_ENTRIES = 100_000
MAX_INTERNED_KEYS = 100_000
MAX_RUN_ENTRIES = 4096


class CachedEngine(ExecutionEngine):
    """Shared interned balls, canonical-key interning and memoised evaluation.

    The memo and run stores are keyed by the algorithm's exact content
    fingerprint (:func:`~repro.engine.persistent.algorithm_fingerprint`)
    when it has one, so sweeps that rebuild equal-content algorithm
    objects (the workload matrix builds a fresh decider for every cell)
    share one memo.  An algorithm without a fingerprint is keyed by
    identity, so behaviourally different code is never conflated.
    """

    name = "cached"

    def __init__(self) -> None:
        super().__init__()
        self._balls = LRUStore(MAX_BALL_COLLECTIONS)
        self._memo = LRUStore(MAX_MEMO_ENTRIES)
        self._keys = LRUStore(MAX_INTERNED_KEYS)
        self._runs = LRUStore(MAX_RUN_ENTRIES)
        # id(algorithm) -> (algorithm, key); the stored reference keeps the
        # object alive so a recycled id can never alias a dead algorithm.
        self._algo_keys: Dict[int, Tuple[object, Hashable]] = {}

    def _algo_key(self, algorithm: "LocalAlgorithm") -> Hashable:
        """The memo key component standing for ``algorithm``: its fingerprint, else itself."""
        entry = self._algo_keys.get(id(algorithm))
        if entry is not None and entry[0] is algorithm:
            return entry[1]
        from .persistent import algorithm_fingerprint

        token = algorithm_fingerprint(algorithm)
        key: Hashable = algorithm if token is None else ("content", token)
        if len(self._algo_keys) > 4096:
            self._algo_keys.clear()
        self._algo_keys[id(algorithm)] = (algorithm, key)
        return key

    def clear_caches(self) -> None:
        """Drop all cached balls, interned keys and memoised outputs."""
        self._balls.clear()
        self._memo.clear()
        self._keys.clear()
        self._runs.clear()
        self._algo_keys.clear()

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Return the counters of the underlying LRU stores."""
        return {
            "balls": self._balls.stats(),
            "memo": self._memo.stats(),
            "keys": self._keys.stats(),
            "runs": self._runs.stats(),
        }

    # ------------------------------------------------------------------ #
    # View production
    # ------------------------------------------------------------------ #

    def _id_free_views(self, graph: LabelledGraph, radius: int) -> Dict[Node, Neighbourhood]:
        cache_key = (graph, radius)
        cached = self._balls.get(cache_key)
        if cached is not None:
            self.stats.ball_hits += len(cached)
            return cached
        views = interned_id_free_views(graph, radius)
        self.stats.ball_extractions += len(views)
        self._balls.put(cache_key, views)
        return views

    def views(
        self,
        graph: LabelledGraph,
        radius: int,
        ids: Optional[IdAssignment] = None,
        nodes: Optional[Iterable[Node]] = None,
    ) -> Dict[Node, Neighbourhood]:
        """Serve views from the per-``(graph, radius)`` ball cache, attaching ``ids`` on top."""
        chosen = list(nodes) if nodes is not None else list(graph.nodes())
        base = self._id_free_views(graph, radius)
        missing = [v for v in chosen if v not in base]
        if missing:
            raise GraphError(f"node {missing[0]!r} is not in the graph")
        if ids is None:
            return {v: base[v] for v in chosen}
        # Identifier views reuse the cached ball topology.  The assignment
        # is checked once to cover the graph; each view then restricts it
        # to its ball without copying.
        ids._check_covers(base)
        return {v: base[v]._with_covering_ids(ids) for v in chosen}

    # ------------------------------------------------------------------ #
    # Memoised whole-graph runs
    # ------------------------------------------------------------------ #

    def _run_core(
        self,
        algorithm: "LocalAlgorithm",
        graph: LabelledGraph,
        ids: Optional[IdAssignment] = None,
        nodes: Optional[Iterable[Node]] = None,
    ) -> Dict[Node, Hashable]:
        """Run with whole-run memoisation: repeat ``(algorithm, graph[, ids])`` runs are one lookup."""
        if nodes is not None:
            # Partial runs are not worth a cache slot; they still benefit
            # from the ball cache and the per-view memo.
            return super()._run_core(algorithm, graph, ids, nodes)
        use_ids = self._ids_for(algorithm, ids)
        # Id-oblivious outputs are independent of the assignment, so the run
        # key deliberately omits it: every assignment of a verification
        # sweep after the first is a single lookup.
        run_key = (self._algo_key(algorithm), graph, algorithm.radius, use_ids)
        cached = self._runs.get(run_key)
        if cached is not None:
            self.stats.nodes_run += len(cached)
            self.stats.evaluation_hits += len(cached)
            return dict(cached)
        outputs = super()._run_core(algorithm, graph, use_ids if algorithm.uses_identifiers else None)
        self._runs.put(run_key, outputs)
        return dict(outputs)

    # ------------------------------------------------------------------ #
    # Memoised evaluation
    # ------------------------------------------------------------------ #

    def _view_key(self, algorithm: "LocalAlgorithm", view: Neighbourhood) -> Optional[Tuple]:
        """The memo key of ``view``, or ``None`` when it has no exact canonical key."""
        if not algorithm.uses_identifiers:
            kind, use_ids = "oblivious", False
        else:
            kind, use_ids = ("id", True) if view.ids is not None else ("bare", False)
        key = interned_view_key(view, use_ids=use_ids)
        if key is None:
            return None
        return (kind, self._keys.intern(key))

    def evaluate_view(self, algorithm: "LocalAlgorithm", view: Neighbourhood) -> Hashable:
        """Evaluate one view, memoised per ``(algorithm, canonical view key)``."""
        if not algorithm.uses_identifiers and view.ids is not None:
            view = view.without_ids()
        self.stats.nodes_run += 1
        view_key = self._view_key(algorithm, view)
        if view_key is None:
            self.stats.evaluations += 1
            return algorithm.evaluate(view)
        memo_key = (self._algo_key(algorithm), view_key)
        cached = self._memo.get(memo_key, _MISSING)
        if cached is not _MISSING:
            self.stats.evaluation_hits += 1
            return cached
        self.stats.evaluations += 1
        out = algorithm.evaluate(view)
        self._memo.put(memo_key, out)
        return out


_MISSING = object()
