"""Execution engines — the pluggable layer every execution path routes through.

* :class:`~repro.engine.base.ExecutionEngine` — the protocol (views,
  single-view evaluation, whole-graph drivers);
* :class:`~repro.engine.direct.DirectEngine` — per-node ball evaluation,
  the default backend and the paper's mathematical semantics;
* :class:`~repro.engine.synchronous.SynchronousEngine` — views produced by
  the full-information message-passing protocol;
* :class:`~repro.engine.cached.CachedEngine` — the fast path: one shared
  ball collection per graph, canonical-key interning, and memoised
  evaluation per ``(algorithm, view key)``;
* :mod:`~repro.engine.interned` — the one production path for views and
  keys under both of the above: graphs interned into integer adjacency lists,
  balls grown by one frontier BFS per centre, canonical keys as integer
  tuples (identifier views ordered by identifier, no search).  The per-node dict path of
  :mod:`repro.graphs.neighbourhood` is the test oracle;
* :class:`~repro.engine.parallel.ParallelEngine` — job-list sharding
  across the persistent :class:`~repro.engine.pool.WorkerPool` of warm
  caching workers (single-graph runs stay in-process).  One rule routes
  each job list: two or more jobs on a forking multi-worker engine go to
  the pool, and an ``adaptive`` engine (the default) additionally needs
  ``nodes x (radius + 1)`` summed over the list to reach
  :data:`~repro.engine.parallel.POOL_MIN_UNITS`.  Chunks are contiguous,
  so verdicts match the serial backends for any worker count;
* :class:`~repro.engine.persistent.PersistentEngine` — cross-run
  persistence: wraps any backend (``engine.with_store(path)``) with an
  on-disk :class:`~repro.engine.persistent.VerdictStore` so settled jobs
  are replayed instead of recomputed across campaigns and CI runs.

``engine=`` arguments across the package accept an instance, a backend name
(``"direct"`` / ``"synchronous"`` / ``"cached"`` / ``"parallel"``) or
``None`` for the shared default; see
:func:`~repro.engine.base.resolve_engine`.
"""

from .base import (
    EngineLike,
    EngineStats,
    ExecutionEngine,
    default_engine,
    derive_node_seed,
    resolve_engine,
)
from .cached import CachedEngine
from .direct import DirectEngine
from .interned import (
    InternedGraph,
    intern_graph,
    interned_id_free_views,
    interned_view_key,
)
from .parallel import POOL_MIN_UNITS, ParallelEngine, partition_chunks
from .persistent import (
    PersistentEngine,
    StoreCorruptionWarning,
    VerdictStore,
    algorithm_fingerprint,
    job_digest,
)
from .pool import (
    WorkerPool,
    get_pool,
    reset_shared_local_engine,
    shared_local_engine,
    shutdown_pool,
)
from .store import LRUStore
from .synchronous import SynchronousEngine

__all__ = [
    "EngineLike",
    "EngineStats",
    "ExecutionEngine",
    "default_engine",
    "derive_node_seed",
    "resolve_engine",
    "DirectEngine",
    "SynchronousEngine",
    "CachedEngine",
    "ParallelEngine",
    "POOL_MIN_UNITS",
    "PersistentEngine",
    "VerdictStore",
    "StoreCorruptionWarning",
    "algorithm_fingerprint",
    "job_digest",
    "partition_chunks",
    "InternedGraph",
    "intern_graph",
    "interned_id_free_views",
    "interned_view_key",
    "LRUStore",
    "WorkerPool",
    "get_pool",
    "reset_shared_local_engine",
    "shared_local_engine",
    "shutdown_pool",
]
