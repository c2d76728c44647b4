"""Persistent worker pool: long-lived fork workers with warm caches.

* :class:`WorkerPool` — a lazily created, process-wide pool of long-lived
  worker processes.  Each worker owns one duplex pipe and one warm
  execution engine (a fork-time copy of :func:`shared_local_engine`), and
  survives across batches, sweeps, campaign scenarios and engine
  instances: the fork tax is paid once per process, not once per batch.
* **One payload shape, one way to ship it** — a batch is an algorithm
  plus a job list, each job ``(graph, ids)`` or ``(graph, ids, seed)``;
  a worker runs each job it is sent through its engine's ``run`` or
  ``run_randomised``.  The payload is pickled once and shipped to a
  worker only when that worker does not already hold its generation, so
  repeated sweeps over the same job list ship nothing but chunk indices.
  A payload that does not pickle (a lambda- or closure-based algorithm)
  raises :class:`UnpicklablePayloadError` before anything is forked or
  sent, and the caller runs the batch in-process.
* **Re-fork recovery** — a worker that dies mid-batch (killed, OOM,
  crashed) is detected through its broken pipe, replaced by a fresh fork,
  re-shipped the payload and re-sent its chunks; the batch completes
  without loss.  A worker that cannot unpickle a payload (it was forked
  before a class the payload names was importable) is replaced the same
  way, once.
* :func:`shared_local_engine` — the process-wide warm
  :class:`~repro.engine.cached.CachedEngine` every ``ParallelEngine``
  runs in-process batches on; its memo is keyed by algorithm fingerprint,
  so equal-content deciders rebuilt per cell share it, and its balls and
  memoised verdicts survive across the per-scenario engines a campaign
  creates.  Workers inherit it at fork time, so they run the
  interned-graph path (:mod:`repro.engine.interned`) too.

Which batches reach the pool is decided by
:class:`~repro.engine.parallel.ParallelEngine`; this module only runs them.
Workers compute every job they are sent: verdict-store replay happens in
the parent (:class:`~repro.engine.persistent.PersistentEngine` checks the
store before any miss reaches the pool), so no worker opens the store.

Lifecycle: the pool is created lazily on first use, shut down explicitly
with :func:`shutdown_pool` (idempotent; also registered via ``atexit``)
and re-created lazily afterwards.  Workers are daemonic, so a crashed
parent never leaks processes.
"""
from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs import trace
from ..obs.metrics import (
    BATCHES,
    CHUNKS,
    COALESCED_BATCHES,
    FORKS,
    PAYLOAD_SHIP_BYTES,
    PAYLOAD_SHIPS,
    POOL_COUNTERS,
    WORKER_DEATHS,
    MetricsRegistry,
)
from .cached import CachedEngine

__all__ = [
    "PoolPayload",
    "WorkerPool",
    "WorkerCrashError",
    "UnpicklablePayloadError",
    "get_pool",
    "shutdown_pool",
    "shared_local_engine",
    "reset_shared_local_engine",
]


# ---------------------------------------------------------------------- #
# The shared in-process engine
# ---------------------------------------------------------------------- #

_LOCAL_ENGINE: Optional[CachedEngine] = None


def shared_local_engine() -> CachedEngine:
    """The process-wide warm caching engine used for in-process execution.

    Shared by every :class:`~repro.engine.parallel.ParallelEngine` (and,
    copied at fork time, the starting state of every pool worker), so the
    ball cache and the fingerprint-keyed memo survive across the short-lived
    per-scenario engines a campaign run creates.  Callers temporarily
    rebind ``stats`` so the work is attributed to the borrowing engine.
    """
    global _LOCAL_ENGINE
    if _LOCAL_ENGINE is None:
        _LOCAL_ENGINE = CachedEngine()
    return _LOCAL_ENGINE


def reset_shared_local_engine() -> None:
    """Drop the shared engine (tests; the next use builds a cold one)."""
    global _LOCAL_ENGINE
    _LOCAL_ENGINE = None


# ---------------------------------------------------------------------- #
# Payloads and chunks
# ---------------------------------------------------------------------- #


@dataclass
class PoolPayload:
    """One batch's work, shipped to workers at most once.

    A job is ``(graph, ids)`` for a deterministic algorithm or ``(graph,
    ids, seed)`` for a randomised one.  Chunks are ``range`` objects of
    global indices into ``jobs``, so any split into chunks executes
    identically.
    """

    algorithm: Any
    jobs: Sequence[Tuple]


def _same_payload(a: PoolPayload, b: PoolPayload) -> bool:
    """Whether two payloads describe identical work (by object identity).

    Used for generation re-use: a repeated sweep that passes the same
    algorithm and the same job objects must not re-ship the payload.
    Identity is sound because graphs and assignments are immutable.
    """
    if a.algorithm is not b.algorithm or len(a.jobs) != len(b.jobs):
        return False
    return all(
        x is y or (len(x) == len(y) and all(p is q for p, q in zip(x, y))) for x, y in zip(a.jobs, b.jobs)
    )


def run_job(engine, algorithm, job: Tuple):
    """Run one ``(graph, ids)`` or ``(graph, ids, seed)`` job on ``engine``."""
    if len(job) == 3:
        return engine.run_randomised(algorithm, *job)
    return engine.run(algorithm, *job)


# ---------------------------------------------------------------------- #
# Worker-side machinery
# ---------------------------------------------------------------------- #


def _execute_chunk(engine, payload: PoolPayload, chunk: range):
    """Run one chunk of global job indices; return ``(outputs, stats)``.

    Each job runs through the worker's caching engine exactly as the
    serial drivers run it; a randomised job carries its own seed, so its
    outputs do not depend on which worker or chunk runs it.
    """
    engine.reset_stats()
    outputs = [run_job(engine, payload.algorithm, payload.jobs[i]) for i in chunk]
    return outputs, engine.stats.as_dict()


def _worker_main(conn) -> None:
    """Long-lived worker loop: cache payloads by generation, run chunks."""
    engine = shared_local_engine()  # fork-time warm copy of the parent's engine
    payloads: Dict[int, PoolPayload] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        tag = message[0]
        if tag == "stop":
            break
        if tag == "payload":
            _, generation, blob = message
            try:
                # Keep only the newest generation: batches are strictly ordered.
                payloads = {generation: pickle.loads(blob)}
            except BaseException:
                # Pickled-by-reference objects can fail to resolve in a
                # worker forked before they were defined.  Tell the parent
                # so it replaces this worker with a fresh fork.
                payloads = {}
                conn.send(("payload-error", generation))
            continue
        if tag != "run":  # pragma: no cover - defensive
            continue
        _, generation, chunks, trace_ctx = message
        payload = payloads.get(generation)
        if payload is None:
            conn.send(("missing-payload", generation))
            continue
        if trace_ctx is not None:
            # Trace this batch into a per-worker sidecar file, every span
            # tagged with the worker id and parented (via root_parent)
            # under the parent process's pool.fan_out span.  The file is
            # closed by trace.disable() *before* the reply is sent, so the
            # parent never absorbs a file still being written.
            directory, parent_span, worker_index = trace_ctx
            try:
                trace.enable(
                    os.path.join(directory, f"worker-{worker_index}-{os.getpid()}.jsonl"),
                    tags={"worker": worker_index, "generation": generation},
                    root_parent=parent_span,
                )
            except OSError:  # pragma: no cover - unwritable sidecar dir
                trace_ctx = None
        try:
            results = []
            for chunk in chunks:
                with trace.span("pool.chunk", jobs=len(chunk)):
                    results.append(_execute_chunk(engine, payload, chunk))
        except BaseException as exc:  # ship the failure, stay alive
            try:
                conn.send(("error", exc))
            except (pickle.PicklingError, TypeError, AttributeError):
                conn.send(("error", RuntimeError(f"worker raised unpicklable {exc!r}")))
            continue
        finally:
            if trace_ctx is not None:
                trace.disable()
        conn.send(("ok", results))
    try:
        conn.close()
    except OSError:  # pragma: no cover - defensive
        pass


# ---------------------------------------------------------------------- #
# Parent-side pool
# ---------------------------------------------------------------------- #


class WorkerCrashError(RuntimeError):
    """A worker died repeatedly while executing one batch."""


class UnpicklablePayloadError(TypeError):
    """A batch's payload does not pickle, so no worker can receive it."""


class _Handle:
    """Parent-side view of one worker: process, pipe, payload generation."""

    __slots__ = ("process", "conn", "generation")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.generation: Optional[int] = None


@dataclass
class _LastPayload:
    payload: PoolPayload
    generation: int
    blob: bytes


class WorkerPool:
    """Process-wide pool of persistent fork workers.

    One instance exists per process (see :func:`get_pool`); it grows
    lazily to the largest worker count requested and shrinks only on
    :meth:`shutdown`.  Counters live in a typed
    :class:`~repro.obs.metrics.MetricsRegistry` as lifetime totals —
    callers snapshot ``metrics`` and :func:`~repro.obs.metrics.diff_snapshots`
    two snapshots to attribute per-batch deltas to engine statistics
    (:meth:`~repro.engine.parallel.ParallelEngine._fan_out` does exactly
    this).
    """

    def __init__(self) -> None:
        self._handles: List[_Handle] = []
        self._generation = 0
        self._last: Optional[_LastPayload] = None
        self._trace_ctx: Optional[Tuple[str, Optional[str]]] = None
        #: Lifetime counters, declared in repro.obs.metrics.POOL_COUNTERS.
        self.metrics = MetricsRegistry()

    # -- counter views (historical attribute names, registry-backed) ------- #

    @property
    def forks(self) -> int:
        """Lifetime worker processes forked (``parallel_forks``)."""
        return int(self.metrics.get(FORKS))

    @property
    def payload_ships(self) -> int:
        """Lifetime payload generations shipped (``payload_ships``)."""
        return int(self.metrics.get(PAYLOAD_SHIPS))

    @property
    def payload_ship_bytes(self) -> int:
        """Lifetime pickled payload bytes shipped (``payload_ship_bytes``)."""
        return int(self.metrics.get(PAYLOAD_SHIP_BYTES))

    @property
    def batches(self) -> int:
        """Lifetime batches submitted (``parallel_batches``)."""
        return int(self.metrics.get(BATCHES))

    @property
    def chunks_run(self) -> int:
        """Lifetime chunks executed (``parallel_chunks``)."""
        return int(self.metrics.get(CHUNKS))

    @property
    def coalesced_batches(self) -> int:
        """Lifetime batches with more jobs than chunks (``coalesced_batches``)."""
        return int(self.metrics.get(COALESCED_BATCHES))

    @property
    def deaths_recovered(self) -> int:
        """Lifetime dead workers replaced (``worker_deaths_recovered``)."""
        return int(self.metrics.get(WORKER_DEATHS))

    # -- lifecycle ------------------------------------------------------- #

    def alive_workers(self) -> int:
        """How many workers are currently running."""
        return sum(1 for h in self._handles if h.process.is_alive())

    def _spawn(self) -> _Handle:
        ctx = multiprocessing.get_context("fork")
        with trace.span("pool.fork"):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(target=_worker_main, args=(child_conn,), daemon=True)
            process.start()
        # Close the parent's copy of the child end immediately: EOF
        # detection (re-fork-on-death) needs the child end closed
        # everywhere but in the worker itself, and later forks must not
        # inherit it.
        child_conn.close()
        self.metrics.inc(FORKS)
        return _Handle(process, parent_conn)

    def _ensure(self, workers: int) -> None:
        for index in range(workers):
            if index < len(self._handles) and self._handles[index].process.is_alive():
                continue
            handle = self._spawn()
            if index < len(self._handles):
                self._discard(self._handles[index])
                self._handles[index] = handle
                self.metrics.inc(WORKER_DEATHS)
            else:
                self._handles.append(handle)

    @staticmethod
    def _discard(handle: _Handle) -> None:
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
        if handle.process.is_alive():
            handle.process.terminate()
        handle.process.join(timeout=2.0)

    def shutdown(self) -> None:
        """Stop every worker and drop the payload cache.  Idempotent.

        The pool object stays usable: the next submit re-forks lazily.
        """
        for handle in self._handles:
            try:
                handle.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for handle in self._handles:
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():  # pragma: no cover - defensive
                handle.process.terminate()
                handle.process.join(timeout=2.0)
        self._handles = []
        self._last = None

    # -- payload generations ---------------------------------------------- #

    def _generation_for(self, payload: PoolPayload) -> Tuple[int, bytes]:
        """Resolve the payload's generation and pickled blob, re-using the
        previous generation when the work is identical.

        Raises :class:`UnpicklablePayloadError` when the payload does not
        pickle; nothing has been forked or sent at that point.
        """
        if self._last is not None and _same_payload(self._last.payload, payload):
            return self._last.generation, self._last.blob
        try:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise UnpicklablePayloadError(f"the batch payload does not pickle: {exc}") from exc
        self._generation += 1
        self._last = _LastPayload(payload, self._generation, blob)
        return self._generation, blob

    # -- batch submission -------------------------------------------------- #

    def submit(
        self,
        payload: PoolPayload,
        chunks: Sequence[range],
        workers: int,
        trace_ctx: Optional[Tuple[str, Optional[str]]] = None,
    ) -> List[Tuple]:
        """Run the chunks across ``workers`` live workers; per-chunk results.

        Chunk ``i`` is deterministically assigned to worker ``i % workers``
        and a worker's chunks travel as one task message (the coalescing
        seam).  Results return in chunk order.  A worker found dead is
        replaced and its share re-sent; the batch never loses work.

        ``trace_ctx`` is ``(sidecar_dir, parent_span_id)`` when the parent
        is tracing this batch: every dispatch (including death-recovery
        re-dispatches) extends it with the worker index and ships it in the
        run message, so workers trace into per-worker sidecar files whose
        spans hang off the parent's dispatch span.

        Raises :class:`UnpicklablePayloadError`, before forking or sending
        anything, when the payload does not pickle.
        """
        if not chunks:
            return []
        generation, blob = self._generation_for(payload)
        self._trace_ctx = trace_ctx
        workers = max(1, min(workers, len(chunks)))
        self._ensure(workers)
        assignments: List[List[Tuple[int, range]]] = [
            [(index, chunk) for index, chunk in enumerate(chunks)][w::workers] for w in range(workers)
        ]
        pending: List[int] = []
        for w in range(workers):
            if not assignments[w]:
                continue
            self._dispatch(w, generation, blob, assignments[w])
            pending.append(w)
        results: List[Optional[Tuple]] = [None] * len(chunks)
        failure: Optional[BaseException] = None
        for w in pending:
            # Drain every dispatched worker even after a failure: an
            # uncollected reply would desynchronise the next batch.
            try:
                replies = self._collect(w, generation, blob, assignments[w])
            except BaseException as exc:
                if failure is None:
                    failure = exc
                continue
            for (chunk_index, _), reply in zip(assignments[w], replies):
                results[chunk_index] = reply
        if failure is not None:
            raise failure
        self.metrics.inc(BATCHES)
        self.metrics.inc(CHUNKS, len(chunks))
        if len(payload.jobs) > len(chunks):
            self.metrics.inc(COALESCED_BATCHES)
        return results  # type: ignore[return-value]

    def _dispatch(
        self,
        index: int,
        generation: int,
        blob: bytes,
        tasks: List[Tuple[int, range]],
        retried: bool = False,
    ) -> None:
        handle = self._handles[index]
        chunk_ranges = [chunk for _, chunk in tasks]
        try:
            if handle.generation != generation:
                handle.conn.send(("payload", generation, blob))
                handle.generation = generation
                self.metrics.inc(PAYLOAD_SHIPS)
                self.metrics.inc(PAYLOAD_SHIP_BYTES, len(blob))
            ctx = self._trace_ctx
            worker_ctx = None if ctx is None else (ctx[0], ctx[1], index)
            handle.conn.send(("run", generation, chunk_ranges, worker_ctx))
        except (BrokenPipeError, ConnectionResetError, OSError):
            if retried:
                raise WorkerCrashError(f"worker {index} died twice while receiving a batch")
            self._replace_dead(index)
            self._dispatch(index, generation, blob, tasks, retried=True)

    def _collect(
        self,
        index: int,
        generation: int,
        blob: bytes,
        tasks: List[Tuple[int, range]],
        retried: bool = False,
    ) -> List[Tuple]:
        handle = self._handles[index]
        try:
            reply = handle.conn.recv()
        except (EOFError, ConnectionResetError, OSError):
            # The worker died mid-batch: replace it, re-ship, re-run its
            # share once.  A second death is a real crash worth raising.
            if retried:
                raise WorkerCrashError(f"worker {index} died twice while executing a batch")
            self._replace_dead(index)
            self._dispatch(index, generation, blob, tasks)
            return self._collect(index, generation, blob, tasks, retried=True)
        tag = reply[0]
        if tag == "ok":
            return reply[1]
        if tag == "error":
            raise reply[1]
        if tag in ("payload-error", "missing-payload"):
            # The worker does not hold the payload: it could not unpickle
            # it (forked before a class it names was importable), or lost
            # it.  A fresh fork can take it; replacing the worker also
            # discards the run message still queued for it.
            if retried:
                raise WorkerCrashError(f"worker {index} rejected the payload twice")
            self._replace_dead(index)
            self._dispatch(index, generation, blob, tasks)
            return self._collect(index, generation, blob, tasks, retried=True)
        raise WorkerCrashError(f"worker {index} sent unknown reply {tag!r}")  # pragma: no cover

    def _replace_dead(self, index: int) -> None:
        with trace.span("pool.worker_respawn", worker=index):
            self._discard(self._handles[index])
            handle = self._spawn()
        self._handles[index] = handle
        self.metrics.inc(WORKER_DEATHS)

    # -- observability ----------------------------------------------------- #

    def counters(self) -> Dict[str, int]:
        """Snapshot of the lifetime counters (diff two snapshots per batch).

        Keys come from the declared :data:`~repro.obs.metrics.POOL_COUNTERS`
        constants; every counter is present even when still zero.
        """
        return {metric.name: int(self.metrics.get(metric)) for metric in POOL_COUNTERS}

    def __repr__(self) -> str:
        return f"WorkerPool(alive={self.alive_workers()}, forks={self.forks})"


# ---------------------------------------------------------------------- #
# Process-wide singleton
# ---------------------------------------------------------------------- #

_POOL: Optional[WorkerPool] = None


def get_pool() -> WorkerPool:
    """The process-wide persistent worker pool (created lazily)."""
    global _POOL
    if _POOL is None:
        _POOL = WorkerPool()
        atexit.register(shutdown_pool)
    return _POOL


def shutdown_pool() -> None:
    """Shut the process-wide pool down (idempotent; re-forks lazily on use)."""
    if _POOL is not None:
        _POOL.shutdown()

