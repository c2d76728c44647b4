"""Persistent worker pool: long-lived fork workers with warm caches.

* :class:`WorkerPool` — a lazily created, process-wide pool of long-lived
  worker processes.  Each worker owns one duplex pipe and one warm
  execution engine (a fork-time copy of :func:`shared_local_engine`), and
  survives across batches, sweeps, campaign scenarios and engine
  instances: the fork tax is paid once per process, not once per batch.
* **One chunk per worker** — a batch is an algorithm plus a job list
  (each job ``(graph, ids)`` or ``(graph, ids, seed)``) split into
  contiguous chunks, and worker *i* runs chunk *i*.  Its run message
  carries its own pickled slice of the jobs, or nothing when it already
  holds the batch's generation, so a repeated sweep over the same job
  list ships no jobs.  A payload that does not pickle (a lambda- or
  closure-based algorithm) raises :class:`UnpicklablePayloadError`
  before anything is forked or sent, and the caller runs the batch
  in-process.
* **Re-fork recovery** — a worker that dies mid-batch (killed, OOM,
  crashed) is detected through its broken pipe, replaced by a fresh fork
  and re-sent its chunk, slice included; the batch completes without
  loss.  A worker that cannot unpickle its slice (it was forked before a
  class the slice names was importable) is replaced the same way.  Each
  worker is replaced at most once per batch; a second failure raises
  :class:`WorkerCrashError`.
* :func:`shared_local_engine` — the process-wide warm
  :class:`~repro.engine.cached.CachedEngine` every ``ParallelEngine``
  runs in-process batches on; its memo is keyed by algorithm fingerprint,
  so equal-content deciders rebuilt per cell share it, and its balls and
  memoised verdicts survive across the per-scenario engines a campaign
  creates.  Workers inherit it at fork time, so they run the
  interned-graph path (:mod:`repro.engine.interned`) too.

Which batches reach the pool, and how they are chunked, is decided by
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
# Payloads
# ---------------------------------------------------------------------- #


@dataclass
class PoolPayload:
    """One batch's work: an algorithm and its job list.

    A job is ``(graph, ids)`` for a deterministic algorithm or ``(graph,
    ids, seed)`` for a randomised one.  The pool splits the jobs into
    contiguous chunks and ships each worker a ``PoolPayload`` holding only
    its own slice, at most once per generation.
    """

    algorithm: Any
    jobs: Sequence[Tuple]


def _same_payload(a: PoolPayload, b: PoolPayload) -> bool:
    """Whether two payloads describe identical work (by object identity).

    Used for generation re-use: a repeated sweep that passes the same
    algorithm and the same job objects must not re-ship anything.
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


def _worker_main(conn) -> None:
    """Long-lived worker loop: run each run message's slice, or the held one
    when the message carries none (this worker holds that generation)."""
    engine = shared_local_engine()  # fork-time warm copy of the parent's engine
    payload: Optional[PoolPayload] = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if message[0] == "stop":
            break
        _, generation, blob, trace_ctx = message
        if blob is not None:
            try:
                payload = pickle.loads(blob)
            except BaseException:
                # Pickled-by-reference objects can fail to resolve in a
                # worker forked before they were defined.  Tell the parent
                # so it replaces this worker with a fresh fork.
                conn.send(("payload-error", generation))
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
            # A randomised job carries its own seed, so its outputs do not
            # depend on which worker runs it.
            with trace.span("pool.chunk", jobs=len(payload.jobs)):
                engine.reset_stats()
                outputs = [run_job(engine, payload.algorithm, job) for job in payload.jobs]
            result = (outputs, engine.stats.as_dict())
        except BaseException as exc:  # ship the failure, stay alive
            try:
                conn.send(("error", exc))
            except (pickle.PicklingError, TypeError, AttributeError):
                conn.send(("error", RuntimeError(f"worker raised unpicklable {exc!r}")))
            continue
        finally:
            if trace_ctx is not None:
                trace.disable()
        conn.send(("ok", result))
    try:
        conn.close()
    except OSError:  # pragma: no cover - defensive
        pass


# ---------------------------------------------------------------------- #
# Parent-side pool
# ---------------------------------------------------------------------- #


class WorkerCrashError(RuntimeError):
    """A worker died or rejected its slice twice while executing one batch."""


class UnpicklablePayloadError(TypeError):
    """A batch's payload does not pickle, so no worker can receive it."""


class _Handle:
    """Parent-side view of one worker: process, pipe, held generation."""

    __slots__ = ("process", "conn", "generation")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.generation: Optional[int] = None


class WorkerPool:
    """Process-wide pool of persistent fork workers.

    One instance exists per process (see :func:`get_pool`); it grows
    lazily to the largest chunk count submitted and shrinks only on
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
        #: The last batch's ``(payload, chunks, generation, slice blobs)``.
        self._last: Optional[Tuple[PoolPayload, Tuple[range, ...], int, List[bytes]]] = None
        #: Lifetime counters, declared in repro.obs.metrics.POOL_COUNTERS.
        self.metrics = MetricsRegistry()

    # -- counter views (historical attribute names, registry-backed) ------- #

    @property
    def forks(self) -> int:
        """Lifetime worker processes forked (``parallel_forks``)."""
        return int(self.metrics.get(FORKS))

    @property
    def payload_ships(self) -> int:
        """Lifetime slices shipped to workers (``payload_ships``)."""
        return int(self.metrics.get(PAYLOAD_SHIPS))

    @property
    def payload_ship_bytes(self) -> int:
        """Lifetime pickled slice bytes shipped (``payload_ship_bytes``)."""
        return int(self.metrics.get(PAYLOAD_SHIP_BYTES))

    @property
    def batches(self) -> int:
        """Lifetime batches submitted (``parallel_batches``)."""
        return int(self.metrics.get(BATCHES))

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

    def _generation_for(self, payload: PoolPayload, chunks: Tuple[range, ...]) -> Tuple[int, List[bytes]]:
        """The batch's generation and pickled slices (one per chunk); the
        previous batch's are re-used when its work and chunks are identical.

        Raises :class:`UnpicklablePayloadError` when the payload does not
        pickle; nothing has been forked or sent at that point.
        """
        last = self._last
        if last is not None and last[1] == chunks and _same_payload(last[0], payload):
            return last[2], last[3]
        try:
            blobs = [
                pickle.dumps(PoolPayload(payload.algorithm, payload.jobs[c.start:c.stop]), pickle.HIGHEST_PROTOCOL)
                for c in chunks
            ]
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise UnpicklablePayloadError(f"the batch payload does not pickle: {exc}") from exc
        self._generation += 1
        self._last = (payload, chunks, self._generation, blobs)
        return self._generation, blobs

    # -- batch submission -------------------------------------------------- #

    def submit(
        self,
        payload: PoolPayload,
        chunks: Sequence[range],
        trace_ctx: Optional[Tuple[str, Optional[str]]] = None,
    ) -> List[Tuple]:
        """Run chunk ``i`` of the payload's jobs on worker ``i``.

        Returns one ``(outputs, stats)`` pair per chunk, in chunk order.
        A dead worker, or one that cannot unpickle its slice, is replaced
        once and re-sent its chunk.

        ``trace_ctx`` is ``(sidecar_dir, parent_span_id)`` when the parent
        is tracing this batch: every run message (re-sends included)
        extends it with the worker index, so workers trace into per-worker
        sidecar files whose spans hang off the parent's dispatch span.

        Raises :class:`UnpicklablePayloadError`, before forking or sending
        anything, when the payload does not pickle.
        """
        if not chunks:
            return []
        chunks = tuple(chunks)
        generation, blobs = self._generation_for(payload, chunks)
        self._ensure(len(chunks))
        sent = [self._send(w, generation, blobs[w], trace_ctx) for w in range(len(chunks))]
        results: List[Tuple] = []
        failure: Optional[BaseException] = None
        for w in range(len(chunks)):
            # Drain every worker even after a failure: an uncollected
            # reply would desynchronise the next batch.
            try:
                results.append(self._receive(w, generation, blobs[w], trace_ctx, sent[w]))
            except BaseException as exc:
                failure = failure or exc
        if failure is not None:
            raise failure
        self.metrics.inc(BATCHES)
        self.metrics.inc(CHUNKS, len(chunks))
        return results

    def _send(self, index: int, generation: int, blob: bytes, trace_ctx) -> bool:
        """Send worker ``index`` its run message; ``False`` when its pipe is broken.

        The slice travels only when the worker does not hold ``generation``.
        """
        handle = self._handles[index]
        ship = handle.generation != generation
        worker_ctx = None if trace_ctx is None else (trace_ctx[0], trace_ctx[1], index)
        try:
            handle.conn.send(("run", generation, blob if ship else None, worker_ctx))
        except OSError:
            return False
        if ship:
            handle.generation = generation
            self.metrics.inc(PAYLOAD_SHIPS)
            self.metrics.inc(PAYLOAD_SHIP_BYTES, len(blob))
        return True

    def _receive(self, index: int, generation: int, blob: bytes, trace_ctx, sent: bool) -> Tuple:
        """Worker ``index``'s ``(outputs, stats)``; a worker that died or
        rejected its slice is replaced and re-sent its chunk once."""
        for attempt in range(2):
            if attempt:
                self._replace_dead(index)
                sent = self._send(index, generation, blob, trace_ctx)
            try:
                reply = self._handles[index].conn.recv() if sent else ("dead",)
            except (EOFError, OSError):
                reply = ("dead",)
            if reply[0] == "ok":
                return reply[1]
            if reply[0] == "error":
                raise reply[1]
        self._handles[index].generation = None  # a live worker that rejected its slice holds none
        raise WorkerCrashError(f"worker {index} died or rejected its slice twice in one batch")

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
