"""Parallel backend: shard sweeps across the persistent worker pool.

The verification workloads of this reproduction — ``verify_decider`` sweeps
over identifier assignments, Monte-Carlo estimation of randomised deciders,
campaign runs over whole scenario grids — are embarrassingly parallel: the
jobs share no state beyond the (immutable) input graphs and algorithms.
:class:`ParallelEngine` fans the batched drivers
(:meth:`~repro.engine.base.ExecutionEngine.run_many`,
:meth:`~repro.engine.base.ExecutionEngine.run_randomised_many`) out over
the process-wide persistent :class:`~repro.engine.pool.WorkerPool`.  Only
job lists reach the pool; a single-graph ``run`` or ``run_randomised``
always runs in-process:

* **persistent, warm workers** — workers are forked once per process and
  live across batches, sweeps, campaign scenarios and engine instances;
  each owns a fork-time copy of the shared warm
  :class:`~repro.engine.cached.CachedEngine`, so ball caches and verdict
  memos survive from one batch to the next;
* **one chunk per worker** — a batch's jobs are split into at most one
  contiguous chunk per worker, and each worker is shipped only its own
  pickled slice, and only when it does not already hold the batch's
  generation; a repeated sweep over the same job list ships no jobs.
  Pickling is the only way jobs reach a worker: a batch whose algorithm
  does not pickle (a lambda or closure) runs in-process;
* **one routing rule** — a batch with fewer than two jobs, a one-worker
  engine, or a process that cannot fork runs in-process.  Otherwise
  ``adaptive=False`` sends it to the pool, and ``adaptive=True`` (the
  default) sends it there only when its work units, ``nodes x (radius +
  1)`` summed over the batch, reach :data:`POOL_MIN_UNITS`.  The rule
  reads nothing but the batch, so the same batch routes the same way
  whatever ran before it;
* **deterministic work partitioning** — the chunks are a pure function
  of the job count and the worker count, and results are re-assembled in
  job order; a randomised job carries its own seed, so verdicts are
  identical to the serial backends for any worker count — the
  equivalence suite asserts this;
* **no store in the workers** — a wrapping
  :class:`~repro.engine.persistent.PersistentEngine` replays settled jobs
  in the parent and sends only the misses here, so workers compute and
  never open the verdict store;
* **graceful serial fallback** — in-process batches, and batches the pool
  cannot run (the payload does not pickle, a worker crashed twice, the
  pool could not be rebuilt), run on the in-process shared engine with
  identical semantics.
"""

from __future__ import annotations

import multiprocessing
import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..graphs.identifiers import IdAssignment
from ..graphs.labelled_graph import LabelledGraph, Node
from ..graphs.neighbourhood import Neighbourhood
from ..obs import trace
from ..obs.metrics import POOL_COUNTERS, diff_snapshots
from .base import EngineStats, ExecutionEngine
from .pool import PoolPayload, UnpicklablePayloadError, WorkerCrashError, get_pool, run_jobs
from .pool import shared_local_engine, shutdown_pool

if TYPE_CHECKING:  # type-only; keeps engine ↔ local_model import-cycle-free
    from ..local_model.algorithm import LocalAlgorithm, RandomisedLocalAlgorithm

__all__ = ["POOL_MIN_UNITS", "ParallelEngine", "partition_chunks"]

#: Smallest batch, in work units (``nodes x (radius + 1)`` summed over the
#: batch), that an adaptive engine sends to the pool.  Measured on a
#: 2-vCPU Xeon with 2 workers and fresh radius-1 cycle sweeps: a cold fork
#: of both workers costs about 10 ms, and 512 units is the smallest batch
#: whose in-process-minus-pool saving repaid it in every run (the
#: crossover table is in CHANGES.md).  Quick-matrix batches peak at 200
#: units and stay in-process.
POOL_MIN_UNITS = 512


def partition_chunks(count: int, shards: int) -> List[range]:
    """Split ``range(count)`` into at most ``shards`` contiguous chunks.

    Chunk sizes differ by at most one, every index is covered exactly
    once, and jobs touching the same graph stay on the same worker (cache
    affinity).  The partition is a pure function of ``(count, shards)``.
    """
    shards = max(1, min(shards, count))
    base, excess = divmod(count, shards)
    chunks: List[range] = []
    start = 0
    for k in range(shards):
        stop = start + base + (1 if k < excess else 0)
        if stop > start:
            chunks.append(range(start, stop))
        start = stop
    return chunks


# ---------------------------------------------------------------------- #
# The engine
# ---------------------------------------------------------------------- #


class ParallelEngine(ExecutionEngine):
    """Shard job lists over the persistent pool of warm caching workers.

    Parameters
    ----------
    workers:
        Number of pool workers to shard over.  Defaults to the machine's
        CPU count (capped at 8).  ``workers=1`` never uses the pool.
    adaptive:
        ``True`` (the default) sends a batch of two or more jobs to the
        pool only when its work units reach :data:`POOL_MIN_UNITS`;
        ``False`` sends every such batch to the
        pool (tests and measurements use this to exercise the pool on
        small inputs).

    The engine is a context manager: ``with ParallelEngine(4) as eng:``
    shuts the (process-wide) pool down on exit.  All in-process execution
    runs on the shared warm :func:`~repro.engine.pool.shared_local_engine`
    with statistics attributed to this engine.
    """

    name = "parallel"

    def __init__(self, workers: Optional[int] = None, adaptive: bool = True) -> None:
        super().__init__()
        if workers is None:
            workers = max(1, min(os.cpu_count() or 1, 8))
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.adaptive = adaptive

    # -- lifecycle --------------------------------------------------------- #

    def shutdown(self) -> None:
        """Stop the (process-wide) worker pool.  Idempotent; the next
        batch that wants the pool re-forks it lazily."""
        shutdown_pool()

    # -- the shared in-process engine -------------------------------------- #

    @contextmanager
    def _borrow_inner(self):
        """The shared warm engine, with stats attributed to this engine."""
        engine = shared_local_engine()
        saved = engine.stats
        engine.stats = self.stats
        try:
            yield engine
        finally:
            engine.stats = saved

    # -- routing ----------------------------------------------------------- #

    def _can_fork(self) -> bool:
        if self.workers <= 1:
            return False
        if "fork" not in multiprocessing.get_all_start_methods():
            return False
        # Pool workers are daemonic and may not fork pools of their own.
        if multiprocessing.current_process().daemon:
            return False
        return True

    def _pool_shards(self, algorithm, jobs: List[Tuple]) -> Optional[List]:
        """Route one job list: its outputs in job order when it ran on the pool.

        Returns ``None`` when the list belongs in-process (or the pool could
        not run it).
        """
        if len(jobs) < 2 or not self._can_fork():
            return None
        if self.adaptive:
            nodes = sum(job[0].num_nodes() for job in jobs)
            if nodes * (algorithm.radius + 1) < POOL_MIN_UNITS:
                return None
        return self._fan_out(PoolPayload(algorithm, jobs))

    # -- pool plumbing ----------------------------------------------------- #

    def _fan_out(self, payload: PoolPayload) -> Optional[List]:
        """Run the payload's jobs on the persistent pool, one chunk per worker.

        Returns the outputs in job order, or ``None`` when the pool could
        not run the batch (callers fall back to in-process execution): the
        payload does not pickle, or a worker crashed twice.  Algorithm
        errors raised inside workers propagate.
        """
        chunks = partition_chunks(len(payload.jobs), self.workers)
        pool = get_pool()
        tracer = trace.active()
        before = pool.metrics.snapshot()
        with trace.span("pool.fan_out", chunks=len(chunks), workers=len(chunks)) as sp:
            # Workers trace into per-worker sidecar files parented under
            # this span; absorbing them (even on failure) keeps one sweep
            # one coherent tree in the parent's trace file.
            trace_ctx = (tracer.sidecar_dir(), sp.id) if tracer is not None else None
            try:
                replies = pool.submit(payload, chunks, trace_ctx=trace_ctx)
            except (UnpicklablePayloadError, WorkerCrashError, OSError) as exc:
                sp.add(failed=type(exc).__name__)
                replies = None
            finally:
                if tracer is not None:
                    tracer.absorb_sidecar()
        if replies is None:
            return None
        deltas = diff_snapshots(before, pool.metrics.snapshot())
        for metric in POOL_COUNTERS:
            if metric.name in deltas:
                self.stats.inc(metric, deltas[metric.name])
        merged: List = []
        for outputs, worker_stats in replies:
            # Chunks are contiguous and in order: concatenation is job order.
            merged.extend(outputs)
            self._absorb_stats(worker_stats)
        return merged

    def _absorb_stats(self, worker_stats: Dict[str, int]) -> None:
        # Workers run bare CachedEngines, which count only the hot-path
        # attribute fields.
        for name in EngineStats.FIELDS:
            setattr(self.stats, name, getattr(self.stats, name) + worker_stats[name])

    # -- drivers (cores; the public drivers in the base class wrap each
    #    call in exactly one span) ---------------------------------------- #

    def _run_core(
        self,
        algorithm: "LocalAlgorithm",
        graph: LabelledGraph,
        ids: Optional[IdAssignment] = None,
        nodes: Optional[Iterable[Node]] = None,
    ) -> Dict[Node, Hashable]:
        """Run one deterministic job in-process on the shared warm engine."""
        with self._borrow_inner() as inner:
            return inner.run(algorithm, graph, ids, nodes)

    def _run_randomised_core(
        self,
        algorithm: "RandomisedLocalAlgorithm",
        graph: LabelledGraph,
        ids: Optional[IdAssignment] = None,
        seed: Optional[int] = None,
        nodes: Optional[Iterable[Node]] = None,
    ) -> Dict[Node, Hashable]:
        """Run one randomised job in-process on the shared warm engine."""
        with self._borrow_inner() as inner:
            return inner.run_randomised(algorithm, graph, ids, seed, nodes)

    def _run_jobs(self, algorithm, jobs: Sequence[Tuple]) -> List[Dict[Node, Hashable]]:
        """Run a ``(graph, ids)`` or ``(graph, ids, seed)`` job list, in job order:
        on the pool when the routing rule says so, else in-process."""
        jobs = list(jobs)
        if not jobs:
            return []
        outputs = self._pool_shards(algorithm, jobs)
        if outputs is not None:
            return outputs
        with self._borrow_inner() as inner:
            return run_jobs(inner, algorithm, jobs)

    #: Deterministic and randomised job lists take the one path.
    _run_many_core = _run_randomised_many_core = _run_jobs

    # -- single-view primitives (always in-process) ------------------------- #

    def views(
        self,
        graph: LabelledGraph,
        radius: int,
        ids: Optional[IdAssignment] = None,
        nodes: Optional[Iterable[Node]] = None,
    ) -> Dict[Node, Neighbourhood]:
        """Produce views through the warm in-process inner engine (never sharded)."""
        with self._borrow_inner() as inner:
            return inner.views(graph, radius, ids, nodes)

    def evaluate_view(self, algorithm: "LocalAlgorithm", view: Neighbourhood) -> Hashable:
        """Evaluate one view through the warm in-process inner engine (never sharded)."""
        with self._borrow_inner() as inner:
            return inner.evaluate_view(algorithm, view)

    def __repr__(self) -> str:
        return f"ParallelEngine(workers={self.workers}, adaptive={self.adaptive})"
