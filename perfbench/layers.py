"""Per-layer timing taken from outside the program.

The traced run swaps the public functions of each layer of the
verification stack for thin wrappers that time every call and keep the
result in memory.  Nothing inside ``repro`` is edited or asked to trace.

A wrapper is installed at *every* module-level name bound to the original
function, not only in the defining module: ``repro.engine.cached`` and
``repro.engine.direct`` import ``interned_*`` by name, so patching only
``repro.engine.interned`` would miss the calls that matter.  Methods are
wrapped on every class that defines them in its own ``__dict__``.

A layer's *self time* is the time its spans cover minus the time covered
by spans nested inside them, so the self times of all layers plus the
unattributed time add up to the traced wall time.
"""

from __future__ import annotations

import copy
import functools
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Recorder", "Instrumentation", "default_instrumentation", "span_spec_builds"]

_now = time.perf_counter


class Recorder:
    """In-memory span store with per-name self time, call counts and exact counters.

    ``spans`` holds ``(name, t0, t1, depth)`` for every completed span.
    Recording happens only between :meth:`start` and :meth:`stop`; the
    covered wall time of those intervals is :attr:`wall`.
    """

    def __init__(self) -> None:
        self.active = False
        self._stack: List[List[float]] = []
        self._started_at = 0.0
        self.clear()
        # Pool workers forked while recording must not record (or grow
        # their copy of the span list): their work is invisible here.
        os.register_at_fork(after_in_child=self._disable)

    def clear(self) -> None:
        """Forget everything recorded so far."""
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.spans: List[Tuple[str, float, float, int]] = []
        self.engines: List[object] = []
        self.wall = 0.0

    def _disable(self) -> None:
        self.active = False
        self._stack = []

    def start(self) -> None:
        """Begin recording."""
        self._started_at = _now()
        self.active = True

    def stop(self) -> None:
        """Stop recording (outside any span) and add the interval to :attr:`wall`."""
        if self._stack:
            raise RuntimeError("recorder stopped inside an open span")
        self.active = False
        self.wall += _now() - self._started_at

    def unattributed_s(self) -> float:
        """Traced wall time covered by no top-level span (from the raw spans)."""
        covered = sum(t1 - t0 for _, t0, t1, depth in self.spans if depth == 0)
        return self.wall - covered

    def spanned(self, name: Optional[str], fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call records a span ``name`` (``None``: only ``on_result``)."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            if name is None:
                result = fn(*args, **kwargs)
                on_result(recorder, args, result)
                return result
            stack = recorder._stack
            frame = [0.0]
            stack.append(frame)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                elapsed = t1 - t0
                recorder.self_s[name] += elapsed - frame[0]
                recorder.calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
                recorder.spans.append((name, t0, t1, len(stack)))
            if on_result is not None:
                on_result(recorder, args, result)
            return result

        return wrapper


# ---------------------------------------------------------------------- #
# What gets wrapped
# ---------------------------------------------------------------------- #


def _count_assignments(rec: Recorder, args, result) -> None:
    rec.counts["graphs.assignments"] += len(result)


def _count_key(rec: Recorder, args, result) -> None:
    if result is None:
        rec.counts["interned.key_fallbacks"] += 1


def _count_trials(rec: Recorder, args, result) -> None:
    rec.counts["decision.trials"] += result.trials


def _count_candidates(rec: Recorder, args, result) -> None:
    rec.counts["adversary.candidates"] += result.executions


def _register_engine(rec: Recorder, args, result) -> None:
    rec.engines.append(args[0])


#: ``(defining module, function name, span name, result hook)``.
FUNCTIONS: Tuple[Tuple[str, str, Optional[str], Optional[Callable]], ...] = (
    ("repro.decision.decider", "assignments_for", "graphs.assign", _count_assignments),
    ("repro.graphs.neighbourhood", "extract_neighbourhood", "graphs.extract", None),
    ("repro.engine.interned", "intern_graph", "interned.intern", None),
    ("repro.engine.interned", "interned_id_free_views", "interned.views", None),
    ("repro.engine.interned", "interned_view_key", "interned.key", _count_key),
    ("repro.decision.decider", "verify_decider", "decision.aggregate", None),
    ("repro.decision.randomized", "estimate_acceptance_probability", "decision.estimate", _count_trials),
    ("repro.engine.persistent", "job_digest", "store.digest", None),
    ("repro.adversary.search", "find_counterexample", "adversary.search", _count_candidates),
    ("repro.campaign.runner", "run_campaign", "campaign.run", None),
    ("repro.campaign.runner", "run_scenario", "campaign.verify", None),
    ("repro.campaign.runner", "_append_result", "campaign.log_append", None),
    ("repro.separation.computability.execution_graph", "build_execution_graph", "separation.build", None),
)

#: ``(defining module, class name, method name, span name, result hook)``;
#: the method is wrapped on the class and on every loaded subclass that
#: overrides it.
METHODS: Tuple[Tuple[str, str, str, Optional[str], Optional[Callable]], ...] = (
    ("repro.engine.base", "ExecutionEngine", "run", "engine.drive", None),
    ("repro.engine.base", "ExecutionEngine", "run_many", "engine.drive", None),
    ("repro.engine.base", "ExecutionEngine", "run_randomised", "engine.drive", None),
    ("repro.engine.base", "ExecutionEngine", "run_randomised_many", "engine.drive", None),
    ("repro.engine.base", "ExecutionEngine", "views", "engine.views", None),
    ("repro.engine.base", "ExecutionEngine", "evaluate_view", "engine.evaluate", None),
    ("repro.engine.cached", "CachedEngine", "__init__", None, _register_engine),
    ("repro.engine.persistent", "VerdictStore", "__init__", "store.load", None),
    ("repro.engine.persistent", "VerdictStore", "get", "store.lookup", None),
    ("repro.engine.persistent", "VerdictStore", "put", "store.append", None),
    ("repro.engine.pool", "WorkerPool", "_spawn", "pool.fork", None),
    ("repro.engine.pool", "WorkerPool", "submit", "pool.wait", None),
    ("repro.workloads.matrix", "WorkloadMatrix", "scenarios", "workloads.expand", None),
)


def _subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(current.__subclasses__())
    return out


class Instrumentation:
    """Install and remove the layer wrappers around one :class:`Recorder`."""

    def __init__(self, recorder: Recorder, scan_roots: Tuple[str, ...]) -> None:
        self.recorder = recorder
        self.scan_roots = scan_roots
        self._undo: List[Tuple[object, str, object]] = []

    def _modules(self):
        for module in list(sys.modules.values()):
            path = getattr(module, "__file__", None) or ""
            if any(path.startswith(root) for root in self.scan_roots):
                yield module

    def install(self) -> None:
        """Wrap every name bound to a listed function, and every listed method."""
        if self._undo:
            raise RuntimeError("instrumentation already installed")
        modules = list(self._modules())
        for module_name, attr, span, hook in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.recorder.spanned(span, original, hook)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)
        for module_name, class_name, attr, span, hook in METHODS:
            base = getattr(sys.modules[module_name], class_name)
            for cls in _subclasses(base):
                original = cls.__dict__.get(attr)
                if original is not None:
                    self._patch(cls, attr, self.recorder.spanned(span, original, hook))

    def _patch(self, owner, name: str, wrapper) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


class _SpannedBuild:
    """A scenario ``build`` callable timed as ``campaign.build``.

    ``__func__`` points at the original so ``ScenarioSpec.digest`` (which
    unwraps bound methods through it) hashes the original code and the
    wrapped spec keeps its digest byte for byte.
    """

    def __init__(self, recorder: Recorder, fn: Callable) -> None:
        self.__func__ = fn
        self._call = recorder.spanned("campaign.build", fn)

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)


def span_spec_builds(specs, recorder: Recorder) -> list:
    """Copies of ``specs`` whose ``build`` records ``campaign.build`` spans.

    The campaign runner looks the build up on the spec object, so this is
    the name the caller uses.  Raises when a copy's digest would change.
    """
    out = []
    for spec in specs:
        wrapped = copy.copy(spec)
        object.__setattr__(wrapped, "build", _SpannedBuild(recorder, spec.build))  # frozen dataclass
        if wrapped.digest(False) != spec.digest(False):
            raise RuntimeError(f"wrapping the build of {spec.name} changed its digest")
        out.append(wrapped)
    return out


def default_instrumentation(recorder: Recorder, root: str) -> Instrumentation:
    """Instrumentation over the program (``src``) and the benchmark's own modules."""
    here = os.path.dirname(os.path.abspath(__file__))
    return Instrumentation(recorder, (os.path.join(root, "src") + os.sep, here + os.sep))
