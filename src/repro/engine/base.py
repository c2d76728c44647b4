"""The :class:`ExecutionEngine` protocol — how local algorithms get executed.

Every layer of the package ultimately does the same thing: produce the
radius-``t`` view of some nodes of an input ``(G, x, Id)`` and apply a local
algorithm to those views.  Historically that logic was duplicated between
the ball-evaluation runner, the message-passing simulator, the exhaustive
decider verifiers and the coverage analysis, each re-extracting every view
from scratch.  The engine layer factors it into one seam:

* :meth:`ExecutionEngine.views` — produce the views (backends differ here:
  direct per-node BFS, synchronous message passing, batched+cached BFS);
* :meth:`ExecutionEngine.evaluate_view` — apply an algorithm to one view
  (the caching backend memoises this per canonical view key);
* :meth:`ExecutionEngine.run` / :meth:`ExecutionEngine.run_randomised` —
  the whole-graph drivers built from the two primitives above.

Call sites throughout :mod:`repro.local_model`, :mod:`repro.decision`,
:mod:`repro.separation` and :mod:`repro.analysis` accept an optional
``engine=`` argument and route execution through this protocol;
``engine=None`` resolves to the :class:`~repro.engine.direct.DirectEngine`
singleton, which preserves the original ball-evaluation semantics exactly.

The module also owns :func:`derive_node_seed`, the stable per-node seeding
used by every backend for randomised algorithms: seeds are a pure function
of ``(seed, node index)`` (a splitmix64 mix), so runs are reproducible
across processes and interpreter hash randomisation.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import AlgorithmError, IdentifierError
from ..graphs.identifiers import IdAssignment
from ..graphs.labelled_graph import LabelledGraph, Node
from ..graphs.neighbourhood import Neighbourhood
from ..obs import trace
from ..obs.metrics import STORE_COMPUTED, STORE_REPLAYED, Metric, MetricsRegistry

if TYPE_CHECKING:  # imported lazily to keep engine ↔ local_model import-cycle-free
    from ..local_model.algorithm import LocalAlgorithm, RandomisedLocalAlgorithm

__all__ = [
    "EngineLike",
    "EngineStats",
    "ExecutionEngine",
    "derive_node_seed",
    "resolve_engine",
    "default_engine",
    "store_counters",
    "store_job_split",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_node_seed(seed: int, index: int) -> int:
    """Derive the random seed of the node at position ``index`` from a run seed.

    The construction is the splitmix64 output function applied to
    ``seed + (index + 1) * golden_ratio``: a pure, platform-independent
    function of ``(seed, index)``.  In particular it does **not** involve
    ``hash()`` (whose value for strings depends on ``PYTHONHASHSEED``), so
    per-node randomness is reproducible across processes, which the previous
    ``hash(repr(v))``-salted construction was not.
    """
    x = (seed + (index + 1) * _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class EngineStats:
    """Counters describing the work one engine has performed.

    ``evaluations`` counts actual calls into ``algorithm.evaluate``;
    ``evaluation_hits`` counts node outputs served from the memo store
    instead.  ``ball_extractions`` counts views built by (batched) BFS;
    ``ball_hits`` counts views served from the per-graph ball cache.
    These five hot-path counts are plain attributes.  Every other count
    (store traffic, simulator messages, per-sweep pool deltas) lives in a
    :class:`~repro.obs.metrics.MetricsRegistry` the stats object owns,
    written only through :meth:`inc` with a declared
    :class:`~repro.obs.metrics.Metric` and read through :meth:`get` or
    the read-only :attr:`extra` mapping.
    """

    #: The hot-path attribute counters, in reporting order.
    FIELDS = ("nodes_run", "evaluations", "evaluation_hits", "ball_extractions", "ball_hits")

    __slots__ = FIELDS + ("_registry",)

    def __init__(self) -> None:
        self.nodes_run = 0
        self.evaluations = 0
        self.evaluation_hits = 0
        self.ball_extractions = 0
        self.ball_hits = 0
        self._registry = MetricsRegistry()

    def inc(self, metric: Metric, amount: int = 1) -> None:
        """Add ``amount`` to the declared counter ``metric``."""
        self._registry.inc(metric, amount)

    def get(self, metric: Metric) -> int:
        """Current value of a registry counter (0 when never touched)."""
        return self._registry.get(metric)

    @property
    def extra(self) -> Mapping[str, int]:
        """Read-only, live mapping of the registry counters by wire name."""
        return self._registry.view()

    def as_dict(self) -> Dict[str, int]:
        """Return all counters as a plain dictionary (for reports / JSON)."""
        out = {name: getattr(self, name) for name in self.FIELDS}
        out.update(self._registry.snapshot())
        return out

    def __repr__(self) -> str:
        return f"EngineStats({self.as_dict()})"


class ExecutionEngine(ABC):
    """Pluggable execution backend for local algorithms.

    Subclasses implement :meth:`views`; the generic drivers below turn that
    into whole-graph execution.  Engines are stateful only in their caches
    and statistics — running the same algorithm on the same input through
    any engine yields identical outputs (the equivalence test-suite asserts
    this across all backends).
    """

    #: Short name used in reports and benchmark tables.
    name: str = "engine"

    def __init__(self) -> None:
        self.stats = EngineStats()
        # Span kinds are precomputed so the tracing-disabled fast path of
        # the public drivers below never concatenates strings per job.
        name = type(self).name
        self._kind_run = name + ".run"
        self._kind_run_randomised = name + ".run_randomised"
        self._kind_run_many = name + ".run_many"
        self._kind_run_randomised_many = name + ".run_randomised_many"

    def reset_stats(self) -> None:
        """Zero the statistics counters (caches are kept)."""
        self.stats = EngineStats()

    # ------------------------------------------------------------------ #
    # Primitive: view production
    # ------------------------------------------------------------------ #

    @abstractmethod
    def views(
        self,
        graph: LabelledGraph,
        radius: int,
        ids: Optional[IdAssignment] = None,
        nodes: Optional[Iterable[Node]] = None,
    ) -> Dict[Node, Neighbourhood]:
        """Return the radius-``radius`` view of every node (or of ``nodes``)."""

    # ------------------------------------------------------------------ #
    # Primitive: single-view evaluation
    # ------------------------------------------------------------------ #

    def evaluate_view(self, algorithm: "LocalAlgorithm", view: Neighbourhood) -> Hashable:
        """Apply a deterministic local algorithm to one view.

        Identifier information is stripped first when the algorithm declares
        itself Id-oblivious, so obliviousness holds structurally no matter
        where the view came from.
        """
        if not algorithm.uses_identifiers and view.ids is not None:
            view = view.without_ids()
        self.stats.nodes_run += 1
        self.stats.evaluations += 1
        return algorithm.evaluate(view)

    # ------------------------------------------------------------------ #
    # Drivers
    # ------------------------------------------------------------------ #

    def _ids_for(self, algorithm, ids: Optional[IdAssignment]) -> Optional[IdAssignment]:
        if algorithm.uses_identifiers:
            if ids is None:
                raise IdentifierError(
                    f"algorithm {algorithm.name!r} runs in the full LOCAL model and needs an identifier assignment"
                )
            return ids
        return None

    def run(
        self,
        algorithm: "LocalAlgorithm",
        graph: LabelledGraph,
        ids: Optional[IdAssignment] = None,
        nodes: Optional[Iterable[Node]] = None,
    ) -> Dict[Node, Hashable]:
        """Run a deterministic local algorithm at every node (or at ``nodes``).

        The public drivers (``run`` and friends) each time one span around
        the backend-specific ``_*_core`` implementation; subclasses that
        replace a driver override the core method, so every public call
        yields exactly one span no matter how the backends delegate.
        """
        with trace.span(self._kind_run, graph_nodes=graph.num_nodes()):
            return self._run_core(algorithm, graph, ids, nodes)

    def _run_core(
        self,
        algorithm: "LocalAlgorithm",
        graph: LabelledGraph,
        ids: Optional[IdAssignment] = None,
        nodes: Optional[Iterable[Node]] = None,
    ) -> Dict[Node, Hashable]:
        """Backend implementation of :meth:`run` (unspanned)."""
        chosen = list(nodes) if nodes is not None else list(graph.nodes())
        use_ids = self._ids_for(algorithm, ids)
        view_map = self.views(graph, algorithm.radius, use_ids, chosen)
        return {v: self.evaluate_view(algorithm, view_map[v]) for v in chosen}

    def run_at(
        self,
        algorithm: "LocalAlgorithm",
        graph: LabelledGraph,
        node: Node,
        ids: Optional[IdAssignment] = None,
    ) -> Hashable:
        """Run a deterministic local algorithm at a single node."""
        return self.run(algorithm, graph, ids, nodes=[node])[node]

    def run_randomised(
        self,
        algorithm: "RandomisedLocalAlgorithm",
        graph: LabelledGraph,
        ids: Optional[IdAssignment] = None,
        seed: Optional[int] = None,
        nodes: Optional[Iterable[Node]] = None,
    ) -> Dict[Node, Hashable]:
        """Run a randomised local algorithm once, with independent per-node randomness.

        Each node's :class:`random.Random` stream is seeded by
        :func:`derive_node_seed` from the run seed and the node's position —
        the paper's "unbounded string of random bits" per node, made
        reproducible.  When ``seed`` is ``None`` a fresh run seed is drawn
        from the global generator.  Randomised outputs are never memoised.
        """
        with trace.span(self._kind_run_randomised, graph_nodes=graph.num_nodes()):
            return self._run_randomised_core(algorithm, graph, ids, seed, nodes)

    def _run_randomised_core(
        self,
        algorithm: "RandomisedLocalAlgorithm",
        graph: LabelledGraph,
        ids: Optional[IdAssignment] = None,
        seed: Optional[int] = None,
        nodes: Optional[Iterable[Node]] = None,
    ) -> Dict[Node, Hashable]:
        """Backend implementation of :meth:`run_randomised` (unspanned)."""
        chosen = list(nodes) if nodes is not None else list(graph.nodes())
        view_map = self.views(graph, algorithm.radius, self._ids_for(algorithm, ids), chosen)
        return self._evaluate_randomised(algorithm, view_map, chosen, seed)

    def _evaluate_randomised(
        self,
        algorithm: "RandomisedLocalAlgorithm",
        view_map: Mapping[Node, Neighbourhood],
        chosen: Sequence[Node],
        seed: Optional[int],
    ) -> Dict[Node, Hashable]:
        """Evaluate one randomised run over ready views: the node at position
        ``index`` of ``chosen`` draws from ``derive_node_seed(seed, index)``
        (``seed=None`` draws a fresh run seed from the global generator)."""
        base = seed if seed is not None else random.randrange(2**63)
        outputs: Dict[Node, Hashable] = {}
        for index, v in enumerate(chosen):
            rng = random.Random(derive_node_seed(base, index))
            self.stats.nodes_run += 1
            self.stats.evaluations += 1
            outputs[v] = algorithm.evaluate(view_map[v], rng)
        return outputs

    # ------------------------------------------------------------------ #
    # Batched drivers — the fan-out seam
    # ------------------------------------------------------------------ #
    #
    # The verification sweeps (``verify_decider``, the Monte-Carlo
    # estimators, campaign runs) are embarrassingly parallel across their
    # ``(graph, ids)`` / ``(graph, ids, seed)`` jobs.  They submit whole job
    # lists through these two methods so that a parallel backend can shard
    # the list across workers; the default implementations run the jobs
    # sequentially, and the randomised one produces the views of a run of
    # jobs on one input once.

    def run_many(
        self,
        algorithm: "LocalAlgorithm",
        jobs: Sequence[Tuple[LabelledGraph, Optional[IdAssignment]]],
    ) -> List[Dict[Node, Hashable]]:
        """Run a deterministic algorithm over many ``(graph, ids)`` jobs.

        Returns one output map per job, in job order.
        """
        with trace.span(self._kind_run_many, jobs=len(jobs)):
            return self._run_many_core(algorithm, jobs)

    def _run_many_core(
        self,
        algorithm: "LocalAlgorithm",
        jobs: Sequence[Tuple[LabelledGraph, Optional[IdAssignment]]],
    ) -> List[Dict[Node, Hashable]]:
        """Backend implementation of :meth:`run_many` (unspanned)."""
        return [self.run(algorithm, graph, ids) for graph, ids in jobs]

    def run_randomised_many(
        self,
        algorithm: "RandomisedLocalAlgorithm",
        jobs: Sequence[Tuple[LabelledGraph, Optional[IdAssignment], int]],
    ) -> List[Dict[Node, Hashable]]:
        """Run a randomised algorithm over many ``(graph, ids, seed)`` jobs.

        Each job's seed is explicit, so results are reproducible and
        independent of how a backend orders or shards the jobs.
        """
        with trace.span(self._kind_run_randomised_many, jobs=len(jobs)):
            return self._run_randomised_many_core(algorithm, jobs)

    def _run_randomised_many_core(
        self,
        algorithm: "RandomisedLocalAlgorithm",
        jobs: Sequence[Tuple[LabelledGraph, Optional[IdAssignment], int]],
    ) -> List[Dict[Node, Hashable]]:
        """Backend implementation of :meth:`run_randomised_many` (unspanned).

        Randomness enters only through each node's ``rng``, so the views of
        a job equal the previous job's whenever both run on the same graph
        object under the same assignment object (any assignment, for an
        Id-oblivious algorithm).  A run of such jobs — a Monte-Carlo
        estimate's trials, a pool chunk of them — produces its views once;
        every job is still evaluated node by node with its own seed.
        """
        results: List[Dict[Node, Hashable]] = []
        last: Optional[Tuple[LabelledGraph, Optional[IdAssignment]]] = None
        for graph, ids, seed in jobs:
            use_ids = self._ids_for(algorithm, ids)
            if last is None or last[0] is not graph or last[1] is not use_ids:
                chosen = list(graph.nodes())
                view_map = self.views(graph, algorithm.radius, use_ids, chosen)
                last = (graph, use_ids)
            results.append(self._evaluate_randomised(algorithm, view_map, chosen, seed))
        return results

    # ------------------------------------------------------------------ #
    # Cross-run persistence seam
    # ------------------------------------------------------------------ #

    def with_store(self, store) -> "ExecutionEngine":
        """Return this engine wrapped in a cross-run persistent verdict store.

        ``store`` is a directory path or an open
        :class:`~repro.engine.persistent.VerdictStore`.  The wrapper
        replays whole jobs whose digest is already settled on disk and
        delegates only the misses to this engine; see
        :class:`~repro.engine.persistent.PersistentEngine`.
        """
        from .persistent import PersistentEngine

        return PersistentEngine(store, inner=self)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def shutdown(self) -> None:
        """Release any long-lived execution resources (worker pools).

        A no-op for the in-process backends; the parallel backend stops
        its persistent workers here.  Engines stay usable after shutdown —
        resources are re-acquired lazily.
        """

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


# ---------------------------------------------------------------------- #
# Store-traffic attribution
# ---------------------------------------------------------------------- #
#
# Sweeping drivers (``verify_decider``, the adversarial hunts) report how
# many of their jobs replayed from a cross-run verdict store.  They
# snapshot the engine's counters before the sweep and diff afterwards;
# these helpers are that idiom, shared so the counter keys live in one
# place.


def store_counters(engine: "ExecutionEngine") -> Tuple[int, int]:
    """Snapshot the engine's ``(store_replayed, store_computed)`` counters."""
    return engine.stats.get(STORE_REPLAYED), engine.stats.get(STORE_COMPUTED)


def store_job_split(
    engine: "ExecutionEngine", before: Tuple[int, int], fallback_computed: int
) -> Tuple[int, int]:
    """Attribute the jobs run since ``before`` to replay vs fresh computation.

    Returns ``(replayed, computed)``.  A storeless engine never moves the
    counters; its jobs all count as computed (``fallback_computed``, the
    driver's own job tally).
    """
    replayed, computed = store_counters(engine)
    replayed -= before[0]
    computed -= before[1]
    if replayed or computed:
        return replayed, computed
    return 0, fallback_computed


# ---------------------------------------------------------------------- #
# Engine resolution
# ---------------------------------------------------------------------- #

#: Anything accepted by ``engine=`` arguments across the package: a concrete
#: engine, a backend name (``"direct"`` / ``"synchronous"`` / ``"cached"`` /
#: ``"parallel"``), or ``None`` for the shared default.
EngineLike = Union[None, str, "ExecutionEngine"]

_default: Optional["ExecutionEngine"] = None


def default_engine() -> "ExecutionEngine":
    """Return the process-wide default engine (a shared :class:`DirectEngine`)."""
    global _default
    if _default is None:
        from .direct import DirectEngine

        _default = DirectEngine()
    return _default


def resolve_engine(engine: Union[None, str, "ExecutionEngine"]) -> "ExecutionEngine":
    """Resolve an ``engine=`` argument to a concrete backend.

    ``None`` means the shared default :class:`DirectEngine` (the original
    ball-evaluation semantics); a string names a backend (``"direct"``,
    ``"synchronous"``, ``"cached"``, ``"parallel"``) and builds a fresh
    instance of it; an :class:`ExecutionEngine` instance is returned as-is.
    """
    if engine is None:
        return default_engine()
    if isinstance(engine, ExecutionEngine):
        return engine
    if isinstance(engine, str):
        from .cached import CachedEngine
        from .direct import DirectEngine
        from .parallel import ParallelEngine
        from .synchronous import SynchronousEngine

        registry = {
            "direct": DirectEngine,
            "synchronous": SynchronousEngine,
            "cached": CachedEngine,
            "parallel": ParallelEngine,
        }
        try:
            return registry[engine]()
        except KeyError:
            raise AlgorithmError(
                f"unknown execution engine {engine!r}; choose from {sorted(registry)}"
            ) from None
    raise AlgorithmError(f"cannot interpret {engine!r} as an execution engine")
