"""Zero-dependency span tracing: the flight recorder behind ``--trace``.

A *span* is one timed region of work (an engine batch, a campaign phase, a
pool chunk) with a kind, attributes, and a parent — together they form the
call tree of a sweep.  Completed spans are written as single JSON lines to
an append-only trace file; ``python -m repro.obs report`` aggregates such
a file into self/cumulative time tables and latency percentiles.

Design constraints, in order:

* **Disabled is free.**  Tracing is off by default; :func:`span` then
  returns a shared no-op context manager after one global ``None`` check,
  so instrumented hot paths (every ``engine.run`` of every job) pay a few
  tens of nanoseconds.  The CI record ``BENCH_obs.json`` gates this.
* **One process, one file.**  A tracer owns exactly one append-only
  :mod:`repro.jsonl` log (tail healed on open, one flushed line per span,
  no fsync); timestamps are :func:`time.perf_counter` values, monotonic
  within the writing process.  Cross-process trees therefore never
  compare raw timestamps — only durations and parent edges (the report
  does exactly that).
* **Workers never write the parent's file.**  ``os.register_at_fork``
  drops the global tracer in forked children; pool workers are handed an
  explicit sidecar directory and a parent span id per batch
  (see :mod:`repro.engine.pool`), write their own per-worker files there,
  and the parent merges them with :meth:`Tracer.absorb_sidecar` when the
  batch completes — one sweep, one coherent tree.

Enable globally with the ``REPRO_TRACE=path`` environment variable, the
``--trace PATH`` flag of the campaign/workloads CLIs, or
:func:`enable` / :func:`disable` from code.

Trace line format (one completed span per line)::

    {"attrs": {"graph_nodes": 64}, "id": "3f2a.17", "kind": "cached.run",
     "parent": "3f2a.16", "t0": 1.234, "t1": 1.251}

``id`` is ``<pid hex>.<counter>`` — unique across the processes of one
sweep; ``parent`` is another span's id or ``null`` for roots; ``attrs``
merges the tracer's tags (e.g. a worker id) with the span's own.
"""

from __future__ import annotations

import atexit
import os
import time
from typing import Any, Dict, List, Optional, Union

from ..jsonl import LogReader, append, open_append

__all__ = [
    "Span",
    "Tracer",
    "active",
    "current",
    "disable",
    "enable",
    "enabled",
    "span",
]


class _NoopSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    #: No-op spans have no identity; callers that need a parent id for
    #: cross-process propagation must check :func:`active` first.
    id: Optional[str] = None
    kind: str = ""

    def __enter__(self) -> "_NoopSpan":
        """Enter the no-op region (nothing is recorded)."""
        return self

    def __exit__(self, *exc_info: object) -> bool:
        """Leave the no-op region (exceptions propagate)."""
        return False

    def add(self, **attrs: Any) -> "_NoopSpan":
        """Discard late attributes (mirrors :meth:`Span.add`)."""
        return self


_NOOP = _NoopSpan()


class Span:
    """One timed region: records ``kind``/``attrs`` and writes itself on exit.

    Use as a context manager; the span's parent is whatever span is open
    on the owning tracer's stack at ``__enter__`` time (or the tracer's
    ``root_parent`` when the stack is empty).  :meth:`add` attaches
    attributes that are only known at completion (counters, verdicts).
    """

    __slots__ = ("tracer", "kind", "id", "parent", "t0", "t1", "attrs")

    def __init__(self, tracer: "Tracer", kind: str, span_id: str, attrs: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.kind = kind
        self.id = span_id
        self.parent: Optional[str] = None
        self.t0 = 0.0
        self.t1 = 0.0
        self.attrs = attrs

    def add(self, **attrs: Any) -> "Span":
        """Merge late attributes into the span (last write wins); returns self."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        """Open the region: resolve the parent, push onto the stack, start the clock."""
        stack = self.tracer._stack
        self.parent = stack[-1].id if stack else self.tracer.root_parent
        stack.append(self)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Close the region: stop the clock, record the line, pop the stack."""
        self.t1 = time.perf_counter()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.tracer._finish(self)
        return False


class Tracer:
    """Writes completed spans of one process to one append-only JSONL file.

    Parameters
    ----------
    path:
        Trace file, opened with :func:`repro.jsonl.open_append` (parent
        directories are created, a truncated tail is healed).  Every span
        is flushed as it is written, so a fork can never duplicate
        buffered lines into a child.
    tags:
        Attributes merged into every span this tracer records — worker
        processes tag their spans with ``{"worker": i, "generation": g}``.
    root_parent:
        Span id adopted as the parent of top-of-stack spans.  This is how
        a worker's spans attach under the parent process's dispatch span
        even though they are recorded in a different file.
    """

    def __init__(
        self,
        path: Union[str, "os.PathLike[str]"],
        tags: Optional[Dict[str, Any]] = None,
        root_parent: Optional[str] = None,
    ) -> None:
        self.path = os.fspath(path)
        self._fh = open_append(self.path)
        self.tags = dict(tags or {})
        self.root_parent = root_parent
        self._stack: List[Span] = []
        self._next_id = 0
        self._pid = os.getpid()
        self.spans_written = 0

    # -- span production --------------------------------------------------- #

    def span(self, kind: str, /, **attrs: Any) -> Span:
        """Create a span of ``kind`` (enter it with ``with`` to start timing)."""
        self._next_id += 1
        if self.tags:
            merged = dict(self.tags)
            merged.update(attrs)
            attrs = merged
        return Span(self, kind, f"{self._pid:x}.{self._next_id}", attrs)

    def _finish(self, span: "Span") -> None:
        """Record one completed span and pop it off the stack."""
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # pragma: no cover - unbalanced exit
            self._stack.remove(span)
        if self._fh.closed:  # pragma: no cover - span outlived the tracer
            return
        record = {
            "kind": span.kind,
            "id": span.id,
            "parent": span.parent,
            "t0": span.t0,
            "t1": span.t1,
            "attrs": span.attrs,
        }
        append(self._fh, record, fsync=False)
        self.spans_written += 1

    # -- cross-process merging --------------------------------------------- #

    def sidecar_dir(self) -> str:
        """The directory pool workers write their per-batch trace files into."""
        return self.path + ".workers"

    def absorb_sidecar(self) -> int:
        """Merge (and delete) every worker trace file from the sidecar directory.

        Worker spans are appended to this tracer's file unchanged — they
        already carry globally unique ids and explicit parents, so no
        rewriting is needed; lines a killed worker left undecodable are
        dropped.  Returns the number of spans merged.  Missing directories
        and racing deletions are tolerated silently; merging is
        best-effort by design.
        """
        directory = self.sidecar_dir()
        if not os.path.isdir(directory):
            return 0
        merged = 0
        for name in sorted(os.listdir(directory)):
            if not name.endswith(".jsonl"):
                continue
            file_path = os.path.join(directory, name)
            try:
                for record in LogReader(file_path):
                    append(self._fh, record, fsync=False)
                    merged += 1
            except OSError:  # pragma: no cover - racing deletion
                continue
            try:
                os.unlink(file_path)
            except OSError:  # pragma: no cover - racing deletion
                pass
        try:
            os.rmdir(directory)
        except OSError:
            pass
        self.spans_written += merged
        return merged

    # -- lifecycle --------------------------------------------------------- #

    def close(self) -> None:
        """Close the trace file (idempotent; every span is already flushed)."""
        self._fh.close()

    def __repr__(self) -> str:
        """Short debug form naming the file and span count."""
        return f"Tracer(path={self.path!r}, spans_written={self.spans_written})"


# ---------------------------------------------------------------------- #
# The process-wide tracer
# ---------------------------------------------------------------------- #

_TRACER: Optional[Tracer] = None
_ATEXIT_REGISTERED = False


def span(kind: str, /, **attrs: Any) -> Union[Span, _NoopSpan]:
    """Open a span on the process tracer, or a free no-op when disabled.

    The instrumentation idiom everywhere in the package::

        with trace.span("cached.run_many", jobs=len(jobs)) as sp:
            ...
            sp.add(jobs_replayed=replayed)
    """
    tracer = _TRACER
    if tracer is None:
        return _NOOP
    return tracer.span(kind, **attrs)


def current() -> Union[Span, _NoopSpan]:
    """The innermost open span (annotate it with ``add``), or the free no-op."""
    tracer = _TRACER
    if tracer is None or not tracer._stack:
        return _NOOP
    return tracer._stack[-1]


def enable(
    path: Union[str, "os.PathLike[str]"],
    tags: Optional[Dict[str, Any]] = None,
    root_parent: Optional[str] = None,
) -> Tracer:
    """Start tracing this process into the JSONL file at ``path``.

    Replaces (and closes) any previously enabled tracer.  The file is
    closed automatically at interpreter exit; call :func:`disable` for a
    deterministic flush point (the CLIs do).
    """
    global _TRACER, _ATEXIT_REGISTERED
    if _TRACER is not None:
        _TRACER.close()
    _TRACER = Tracer(path, tags=tags, root_parent=root_parent)
    if not _ATEXIT_REGISTERED:
        atexit.register(disable)
        _ATEXIT_REGISTERED = True
    return _TRACER


def disable() -> None:
    """Stop tracing: flush and close the current trace file (idempotent)."""
    global _TRACER
    if _TRACER is not None:
        _TRACER.close()
        _TRACER = None


def enabled() -> bool:
    """Whether a process tracer is currently active."""
    return _TRACER is not None


def active() -> Optional[Tracer]:
    """The active tracer, or ``None`` — used to reach sidecar merging."""
    return _TRACER


def _drop_in_forked_child() -> None:
    """Forked children must never write the parent's trace file.

    The inherited tracer is simply abandoned (every span is flushed as it
    is written, so the child's copy holds no pending bytes to flush);
    pool workers open their own sidecar files per batch instead.
    """
    global _TRACER
    _TRACER = None


if hasattr(os, "register_at_fork"):  # pragma: no branch - posix in CI
    os.register_at_fork(after_in_child=_drop_in_forked_child)


_ENV_PATH = os.environ.get("REPRO_TRACE")
if _ENV_PATH:  # pragma: no cover - exercised via subprocess in tests
    try:
        enable(_ENV_PATH)
    except OSError:
        pass
