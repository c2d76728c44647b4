"""Typed counters: declared :class:`Metric` constants and the registry that counts them.

Every counter of the package is declared **once** below as a
:class:`Metric` constant; its ``name`` is the wire string that appears
in ``EngineStats.extra``, ``WorkerPool.counters()`` and campaign
reports.  A :class:`MetricsRegistry` counts only declared constants, so
a typo fails loudly instead of producing a silently-zero counter.
Registries live where the counts happen: one per
:class:`~repro.engine.base.EngineStats` (store traffic, message
counts, per-sweep pool deltas), one per
:class:`~repro.engine.pool.WorkerPool` (lifetime pool totals) and one
process-global registry (:func:`global_metrics`) for the interned-graph
caches.  :func:`diff_snapshots` turns two snapshots of lifetime totals
into per-interval deltas.

Usage::

    registry = MetricsRegistry()
    registry.inc(FORKS)
    before = registry.snapshot()
    ...
    deltas = diff_snapshots(before, registry.snapshot())
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

__all__ = [
    "BALL_TABLES_GROWN",
    "BATCHES",
    "CHUNKS",
    "DECLARED",
    "FORKS",
    "INTERN_CACHE_HITS",
    "INTERN_CACHE_MISSES",
    "MESSAGES_SENT",
    "Metric",
    "MetricsRegistry",
    "PAYLOAD_SHIPS",
    "PAYLOAD_SHIP_BYTES",
    "POOL_COUNTERS",
    "STORE_COMPUTED",
    "STORE_DECODE_FAILURES",
    "STORE_REPLAYED",
    "STORE_UNPERSISTABLE",
    "WORKER_DEATHS",
    "diff_snapshots",
    "global_metrics",
    "reset_global_metrics",
]


@dataclass(frozen=True)
class Metric:
    """Declaration of one counter: its wire name, unit and meaning.

    The ``name`` doubles as the wire/storage key (``EngineStats.extra``,
    campaign report JSON, ``WorkerPool.counters()``).
    """

    name: str
    unit: str
    description: str


# -- the worker-pool counters (names are the historical counters() keys) -- #

FORKS = Metric("parallel_forks", "processes", "worker processes forked by the pool")
PAYLOAD_SHIPS = Metric("payload_ships", "ships", "job slices pickled and sent, one per worker per generation")
PAYLOAD_SHIP_BYTES = Metric("payload_ship_bytes", "bytes", "total pickled job-slice bytes shipped")
BATCHES = Metric("parallel_batches", "batches", "submit() batches dispatched to the pool")
CHUNKS = Metric("parallel_chunks", "chunks", "work chunks executed across all batches")
WORKER_DEATHS = Metric("worker_deaths_recovered", "workers", "dead workers detected and respawned mid-batch")

#: The pool's counters in their stable reporting order — the single source
#: for ``WorkerPool.counters()`` keys and campaign report parallel totals.
POOL_COUNTERS: Tuple[Metric, ...] = (
    FORKS,
    PAYLOAD_SHIPS,
    PAYLOAD_SHIP_BYTES,
    BATCHES,
    CHUNKS,
    WORKER_DEATHS,
)

# -- the persistent-store counters ----------------------------------------- #

STORE_REPLAYED = Metric("store_replayed", "jobs", "jobs answered from the verdict store")
STORE_COMPUTED = Metric("store_computed", "jobs", "jobs computed, not replayed (persisted unless store_unpersistable)")
STORE_DECODE_FAILURES = Metric("store_decode_failures", "jobs", "stored verdicts that failed to decode")
STORE_UNPERSISTABLE = Metric("store_unpersistable", "jobs", "computed jobs not persisted: unencodable output or no fingerprint")

# -- engine-local counters ------------------------------------------------ #

MESSAGES_SENT = Metric("messages_sent", "messages", "messages exchanged by the synchronous LOCAL simulator")

# -- process-global interned-graph counters ------------------------------- #

INTERN_CACHE_HITS = Metric("intern_cache_hits", "graphs", "intern_graph() calls served from the process cache")
INTERN_CACHE_MISSES = Metric("intern_cache_misses", "graphs", "intern_graph() calls that built a new interned form")
BALL_TABLES_GROWN = Metric("ball_tables_grown", "tables", "all-centres ball tables grown by one frontier BFS per centre")

#: Every declared counter by wire name; registries count nothing else.
DECLARED: Mapping[str, Metric] = MappingProxyType(
    {
        metric.name: metric
        for metric in POOL_COUNTERS
        + (STORE_REPLAYED, STORE_COMPUTED, STORE_DECODE_FAILURES, STORE_UNPERSISTABLE)
        + (MESSAGES_SENT, INTERN_CACHE_HITS, INTERN_CACHE_MISSES, BALL_TABLES_GROWN)
    }
)


class MetricsRegistry:
    """Current totals of declared counters.

    :meth:`inc` accepts only the constants in :data:`DECLARED`.
    :meth:`snapshot` copies the totals as a plain dict — feed two
    snapshots to :func:`diff_snapshots` for per-interval deltas — and
    :meth:`view` exposes them read-only and live.
    """

    __slots__ = ("_counters",)

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}

    def inc(self, metric: Metric, amount: int = 1) -> int:
        """Add ``amount`` to a declared counter; returns the new total."""
        if DECLARED.get(metric.name) is not metric:
            raise ValueError(f"{metric.name!r} is not a declared metric")
        total = self._counters.get(metric.name, 0) + amount
        self._counters[metric.name] = total
        return total

    def get(self, metric: Metric) -> int:
        """Current total of a counter (0 when never touched)."""
        return self._counters.get(metric.name, 0)

    def snapshot(self) -> Dict[str, int]:
        """Plain dict of every touched counter at this instant."""
        return dict(self._counters)

    def view(self) -> Mapping[str, int]:
        """Live read-only mapping of every touched counter."""
        return MappingProxyType(self._counters)

    def __repr__(self) -> str:
        """Short debug form listing how many counters hold data."""
        return f"MetricsRegistry(counters={len(self._counters)})"


def diff_snapshots(before: Mapping[str, int], after: Mapping[str, int]) -> Dict[str, int]:
    """Per-interval deltas between two snapshots (only nonzero entries).

    Keys absent from ``before`` are treated as 0, so metrics first touched
    during the interval still show up.
    """
    deltas: Dict[str, int] = {}
    for key, value in after.items():
        delta = value - before.get(key, 0)
        if delta:
            deltas[key] = delta
    return deltas


# ---------------------------------------------------------------------- #
# The process-global registry (interned-graph caches live at process scope)
# ---------------------------------------------------------------------- #

_GLOBAL: Optional[MetricsRegistry] = None


def global_metrics() -> MetricsRegistry:
    """The process-wide registry for process-scoped caches (intern, balls)."""
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = MetricsRegistry()
    return _GLOBAL


def reset_global_metrics() -> None:
    """Replace the process-wide registry with a fresh one (test isolation)."""
    global _GLOBAL
    _GLOBAL = None
