"""Persistent verdict store: cross-run memoisation of whole verification jobs.

The caching backends make a *single* sweep fast, but every campaign or CI
run still starts cold: verdicts computed yesterday are recomputed today.
This module adds the cross-run layer the ROADMAP's sharding + caching
direction calls for:

* :class:`VerdictStore` — an on-disk, append-only store of settled job
  outputs.  Entries live in JSONL *segments* (one file per writing
  process), are loaded into a bounded :class:`~repro.engine.store.LRUStore`
  front on open, and are content-addressed by a stable digest of the job
  (canonical graph/identifier/seed tokens + the algorithm's exact
  :func:`algorithm_fingerprint`).
  Segments are :mod:`repro.jsonl` logs: append-only, so concurrent
  readers are safe and a crashed run can never corrupt previously settled
  verdicts; a truncated trailing line (killed mid-append) is healed on
  the next open and skipped with a warning.
* :class:`PersistentEngine` — an :class:`~repro.engine.base.ExecutionEngine`
  that wraps any inner backend (default: a fresh
  :class:`~repro.engine.cached.CachedEngine`) and consults the store
  *before* delegating: whole jobs whose digest is already settled are
  replayed from disk; only the misses are batched to the inner engine
  (so a :class:`~repro.engine.parallel.ParallelEngine` inner still fans
  the misses out across its pool), and their outputs are appended to the
  store afterwards.  Replay happens only here, in the calling process:
  the store is consulted for every job before any miss is sent on, so
  pool workers never open it.  Every engine grows a
  :meth:`~repro.engine.base.ExecutionEngine.with_store` seam returning
  itself wrapped this way.

Soundness mirrors the in-memory memoisation contract: a deterministic run
is a pure function of ``(algorithm, graph, ids)`` — of ``(algorithm,
graph)`` alone for Id-oblivious algorithms — and a randomised run with an
*explicit* seed is a pure function of ``(algorithm, graph, ids, seed)``
because per-node streams derive from
:func:`~repro.engine.base.derive_node_seed`.  Randomised runs without an
explicit seed are never persisted.

Invalidation is by construction rather than by deletion: the digest keys
include an exact fingerprint of the algorithm's *code and parameters*
(bytecode of every function its classes define, closure values, every
instance attribute), so editing a decider or any helper it calls changes
its fingerprint and its stored verdicts simply stop matching.  An
algorithm the fingerprint cannot capture exactly (an attribute holding an
arbitrary object, say) has no digest: its jobs run unpersisted, so a
replay is always of the very algorithm that stored it.  :meth:`VerdictStore.clear`
drops the segments wholesale when an explicit reset is wanted.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..graphs.identifiers import IdAssignment
from ..graphs.labelled_graph import LabelledGraph, Node
from ..graphs.neighbourhood import Neighbourhood
from ..jsonl import LogReader, append, open_append
from ..local_model.outputs import Verdict
from ..obs import trace
from ..obs.metrics import (
    STORE_COMPUTED,
    STORE_DECODE_FAILURES,
    STORE_REPLAYED,
    STORE_UNPERSISTABLE,
)
from .base import EngineLike, ExecutionEngine, resolve_engine
from .store import LRUStore

if TYPE_CHECKING:  # type-only; keeps engine ↔ local_model import-cycle-free
    from ..local_model.algorithm import LocalAlgorithm, RandomisedLocalAlgorithm

__all__ = [
    "PersistentEngine",
    "VerdictStore",
    "algorithm_fingerprint",
    "job_digest",
    "StoreCorruptionWarning",
]


class StoreCorruptionWarning(UserWarning):
    """A verdict-store segment contained lines that could not be decoded."""


# ---------------------------------------------------------------------- #
# Stable digests
# ---------------------------------------------------------------------- #
#
# Digests must be pure functions of the job *content*, identical across
# processes and interpreter restarts: no ``hash()``, no object identity.
# Graph/identifier tokens use node reprs in insertion order (the
# constructions in this library build graphs deterministically) with edges
# encoded positionally, so token collisions would require two distinct
# nodes of one graph to share a repr.

_PRIMITIVES = (int, float, str, bool, bytes, type(None))


def _sha256(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8", "backslashreplace"))
        digest.update(b"\x1f")
    return digest.hexdigest()


def _const_token(const: Any) -> str:
    """Token of one code constant: nested code recursively, a frozenset in sorted order
    (its repr follows string hashes, which change with ``PYTHONHASHSEED``)."""
    if hasattr(const, "co_code"):
        return _raw_code_token(const)
    if isinstance(const, frozenset) and const:
        return f"frozenset({{{', '.join(sorted(map(repr, const)))}}})"
    return repr(const)


def _raw_code_token(code: Any) -> str:
    """Token of one code object: bytecode, consts and names."""
    consts = tuple(_const_token(c) for c in code.co_consts)
    return _sha256(code.co_code.hex(), repr(consts), repr(code.co_names))


def _code_token(fn: Any) -> str:
    """A lenient token for a function's behaviour: bytecode, consts and closure.

    Non-primitive, non-callable closure cells are approximated by their
    type name.  Good enough for :meth:`~repro.campaign.spec.ScenarioSpec.digest`
    (a scenario's ``build`` code); algorithms are keyed by the exact
    :func:`algorithm_fingerprint` instead.
    """
    fn = getattr(fn, "__func__", fn)  # unwrap bound methods
    code = getattr(fn, "__code__", None)
    if code is None:
        return f"callable:{type(fn).__module__}.{type(fn).__qualname__}"
    cells: Tuple[str, ...] = ()
    closure = getattr(fn, "__closure__", None)
    if closure:
        cells = tuple(
            repr(cell.cell_contents)
            if isinstance(cell.cell_contents, _PRIMITIVES + (tuple, frozenset))
            else _code_token(cell.cell_contents)
            if callable(cell.cell_contents)
            else type(cell.cell_contents).__qualname__
            for cell in closure
        )
    return _sha256(_raw_code_token(code), repr(cells))


def _exact_repr(value: Any, depth: int = 0) -> Optional[str]:
    """A repr that provably captures the value, or ``None``.

    Primitives repr faithfully; tuples/frozensets recurse (a tuple holding
    an arbitrary object must refuse, not trust that object's repr).
    """
    if depth > 8:
        return None
    if isinstance(value, _PRIMITIVES):
        return repr(value)
    if isinstance(value, (tuple, frozenset)):
        inner = [_exact_repr(x, depth + 1) for x in value]
        if any(x is None for x in inner):
            return None
        if isinstance(value, frozenset):
            inner = sorted(inner)
        return f"{type(value).__name__}({', '.join(inner)})"
    return None


def _strict_code_token(fn: Any, depth: int = 0) -> Optional[str]:
    """Like :func:`_code_token`, but ``None`` unless provably exact.

    Any closure cell without an exact :func:`_member_token` makes the
    whole token ``None``: two behaviourally different functions must never
    share a token.
    """
    if depth > 8:
        return None
    fn = getattr(fn, "__func__", fn)
    code = getattr(fn, "__code__", None)
    if code is None:
        return None
    cells: List[str] = []
    for name, cell in zip(code.co_freevars, getattr(fn, "__closure__", None) or ()):
        value = cell.cell_contents
        if name == "__class__" and isinstance(value, type):
            # The implicit cell of a method calling super(): the class that
            # defines it, whose own code is tokenised by name.
            token: Optional[str] = f"class {value.__module__}.{value.__qualname__}"
        else:
            token = _member_token(value, depth + 1)
        if token is None:
            return None
        cells.append(token)
    # co_names pins the globals the bytecode reads; the referenced global
    # *values* are not captured, so module-level mutable state would evade
    # the token.  Pin the defining module instead: same module + same
    # bytecode + exact closure is as strong as identity keying within one
    # process for code that follows the local-algorithm purity contract.
    module = getattr(fn, "__module__", None) or "?"
    return _sha256("strict", module, _raw_code_token(code), repr(tuple(cells)))


#: The classes an algorithm's fingerprint skips: the library's base
#: algorithm classes, ``ABC`` and ``object``.
_BASE_MODULES = frozenset({"repro.local_model.algorithm", "abc", "builtins"})

#: Class tokens, computed once per class: the matrix fingerprints a fresh
#: decider for every cell.
_CLASS_TOKENS: Dict[type, Optional[str]] = {}


def _member_token(value: Any, depth: int = 0) -> Optional[str]:
    """Exact token of a function (by its code) or a value, or ``None``."""
    if isinstance(value, property):
        tokens = [_member_token(f, depth) for f in (value.fget, value.fset, value.fdel) if f is not None]
        return None if None in tokens else _sha256(*tokens)
    value = getattr(value, "__func__", value)  # static/class/bound methods
    return _strict_code_token(value, depth) if hasattr(value, "__code__") else _exact_repr(value)


def _state_token(namespace: Dict[str, Any]) -> Optional[str]:
    """Exact token of a class's or an instance's namespace (all but the cosmetic
    ``name`` and interpreter bookkeeping such as ``__doc__``), or ``None``."""
    parts: List[str] = []
    for key, value in sorted(namespace.items()):
        if key == "name" or key.startswith("_abc_") or (key.startswith("__") and not hasattr(value, "__code__")):
            continue
        token = _member_token(value)
        if token is None:
            return None
        parts.append(f"{key}={token}")
    return _sha256(*parts)


def _class_token(cls: type) -> Optional[str]:
    """Token of every method, helper and constant the algorithm's own classes define (cached)."""
    if cls not in _CLASS_TOKENS:
        tokens = [_state_token(vars(k)) for k in cls.__mro__ if k.__module__ not in _BASE_MODULES]
        _CLASS_TOKENS[cls] = None if None in tokens else _sha256(cls.__module__, cls.__qualname__, *tokens)
    return _CLASS_TOKENS[cls]


def algorithm_fingerprint(algorithm: Any) -> Optional[str]:
    """The algorithm's exact content identity, or ``None`` when it has none.

    Returns a token only when every behaviour-carrying part of the
    algorithm is captured exactly: its declared radius and obliviousness,
    the code of every function its own classes define (``evaluate`` and
    the helpers it calls alike) and their constants, and every instance
    attribute — which must be primitive, tuple/frozenset of primitives,
    or exactly-tokenisable callables.  One approximated part returns
    ``None``.  The fingerprint keys both the verdict store
    (:func:`job_digest`) and the :class:`~repro.engine.cached.CachedEngine`
    memo; an algorithm without one is memoised by identity and never
    persisted.  Editing a decider's code or parameters changes its
    fingerprint, which is how stored verdicts go stale without any
    explicit invalidation.
    """
    if getattr(algorithm, "__slots__", None):
        return None  # slotted state is invisible to the __dict__ walk
    class_token = _class_token(type(algorithm))
    state = _state_token(getattr(algorithm, "__dict__", {}))
    if class_token is None or state is None:
        return None
    radius, oblivious = getattr(algorithm, "radius", None), getattr(algorithm, "uses_identifiers", None)
    return _sha256("exact", class_token, repr(radius), repr(oblivious), state)


def _graph_token(graph: LabelledGraph) -> str:
    nodes = graph.nodes()
    index = {v: i for i, v in enumerate(nodes)}
    edges = sorted(
        (index[u], index[w]) if index[u] < index[w] else (index[w], index[u])
        for u, w in graph.edges()
    )
    labels = tuple(repr(graph.label(v)) for v in nodes)
    return _sha256(repr(tuple(repr(v) for v in nodes)), repr(edges), repr(labels))


def _ids_token(graph: LabelledGraph, ids: Optional[IdAssignment]) -> str:
    if ids is None:
        return "no-ids"
    return repr(ids.identifiers(graph.nodes()))


def job_digest(
    algorithm: Any,
    graph: LabelledGraph,
    ids: Optional[IdAssignment],
    seed: Optional[int] = None,
    fingerprint: Optional[str] = None,
    graph_token: Optional[str] = None,
) -> Optional[str]:
    """Digest addressing one whole-run job ``(algorithm, graph, ids[, seed])``.

    ``None`` when the algorithm has no :func:`algorithm_fingerprint`: such
    a job has no content address and must not touch the store.
    Id-oblivious algorithms' outputs do not depend on the assignment, so
    their digests deliberately omit it — every assignment of a sweep after
    the first replays from one stored entry, exactly like the in-memory
    run memo of the :class:`~repro.engine.cached.CachedEngine`.
    """
    if fingerprint is None:
        fingerprint = algorithm_fingerprint(algorithm)
        if fingerprint is None:
            return None
    if graph_token is None:
        graph_token = _graph_token(graph)
    oblivious = not getattr(algorithm, "uses_identifiers", True)
    ids_part = "oblivious" if oblivious else _ids_token(graph, ids)
    return _sha256("job", fingerprint, graph_token, ids_part, repr(seed))


# ---------------------------------------------------------------------- #
# Output codec
# ---------------------------------------------------------------------- #
#
# Stored payloads must round-trip byte-identically through JSON.  Outputs
# are hashable by the LocalAlgorithm contract, so the encodable universe
# (verdicts, primitives, tuples/frozensets thereof) covers every decider
# and construction task in the library; anything else is computed but not
# persisted.


class _Unpersistable(Exception):
    """An output value has no faithful JSON encoding; skip persisting the job."""


def _encode_value(value: Any) -> Any:
    if isinstance(value, Verdict):
        return {"!": "verdict", "v": value.value}
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        # JSON has one number type; tag ints so floats stay floats.
        return {"!": "int", "v": value}
    if isinstance(value, float):
        return {"!": "float", "v": repr(value)}
    if isinstance(value, tuple):
        return {"!": "tuple", "v": [_encode_value(x) for x in value]}
    if isinstance(value, frozenset):
        encoded = [_encode_value(x) for x in value]
        return {"!": "frozenset", "v": sorted(encoded, key=repr)}
    raise _Unpersistable(f"cannot persist output of type {type(value).__qualname__}")


def _decode_value(value: Any) -> Hashable:
    if isinstance(value, dict):
        kind, payload = value["!"], value["v"]
        if kind == "verdict":
            return Verdict(payload)
        if kind == "int":
            return int(payload)
        if kind == "float":
            return float(payload)
        if kind == "tuple":
            return tuple(_decode_value(x) for x in payload)
        if kind == "frozenset":
            return frozenset(_decode_value(x) for x in payload)
        raise _Unpersistable(f"unknown encoded kind {kind!r}")
    return value


def _encode_outputs(graph: LabelledGraph, outputs: Dict[Node, Hashable]) -> List[Any]:
    return [_encode_value(outputs[v]) for v in graph.nodes()]


def _decode_outputs(graph: LabelledGraph, payload: Sequence[Any]) -> Dict[Node, Hashable]:
    nodes = graph.nodes()
    if len(payload) != len(nodes):
        raise _Unpersistable(
            f"stored outputs cover {len(payload)} nodes, graph has {len(nodes)}"
        )
    return {v: _decode_value(x) for v, x in zip(nodes, payload)}


# ---------------------------------------------------------------------- #
# The on-disk store
# ---------------------------------------------------------------------- #

#: The files a store owns: one ``segment-<pid>.jsonl`` per writing process.
_SEGMENT_GLOB = "segment-*.jsonl"


def _segment_entry(record: Any) -> Tuple[str, Any]:
    """One segment line's ``(digest, encoded outputs)``."""
    return record["k"], record["v"]


class VerdictStore:
    """Append-only, segment-based persistence of settled job outputs.

    Parameters
    ----------
    path:
        Directory holding the store (created on open).  Each writing
        process appends to its own ``segment-<pid>.jsonl`` file; every
        ``segment-*.jsonl`` file in the directory is loaded on open, and
        other files (a campaign log kept alongside, say) are left alone.
    max_memory_entries:
        Capacity of the in-memory LRU front.  Entries evicted from memory
        remain on disk (their digests stay tracked, so they are never
        re-appended as duplicates) but must be recomputed if requested
        again in this run; stores larger than the front therefore degrade
        to partial replay rather than growing their segments.

    Each segment line is ``{"k": <digest>, "v": <encoded outputs>}``, in
    the shared :mod:`repro.jsonl` format.  Truncated or otherwise
    undecodable lines (a run killed mid-append) are skipped and counted
    in ``corrupt_lines_skipped``, with one :class:`StoreCorruptionWarning`
    per affected segment, instead of crashing.  A segment is reopened with
    its truncated tail healed, so the next append starts on a fresh line,
    and appends never touch earlier bytes: one bad line costs one verdict,
    not the store.  Each append is flushed; :meth:`flush` fsyncs.
    """

    def __init__(self, path: Union[str, Path], max_memory_entries: int = 100_000) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self._front = LRUStore(max_memory_entries)
        # Every digest present in a segment, independent of the bounded
        # front: the append dedup must survive front evictions.
        self._on_disk: set = set()
        self._segment_path = self.path / f"segment-{os.getpid()}.jsonl"
        self._segment_file = None
        self.segments_loaded = 0
        self.entries_loaded = 0
        self.corrupt_lines_skipped = 0
        self.appends = 0
        self._load_segments()

    # -- segment IO ------------------------------------------------------ #

    def _load_segments(self) -> None:
        with trace.span("store.load", path=str(self.path)) as sp:
            for segment in sorted(self.path.glob(_SEGMENT_GLOB)):
                self._load_segment(segment)
            sp.add(
                segments=self.segments_loaded,
                entries=self.entries_loaded,
                corrupt=self.corrupt_lines_skipped,
            )

    def _load_segment(self, segment: Path) -> None:
        self.segments_loaded += 1
        records = LogReader(segment, _segment_entry)
        try:
            for key, value in records:
                self._front.put(key, value)
                self._on_disk.add(key)
                self.entries_loaded += 1
        except OSError as exc:  # unreadable segment: warn, keep going
            warnings.warn(
                f"verdict store segment {segment} unreadable ({exc}); skipping it",
                StoreCorruptionWarning,
                stacklevel=4,
            )
        if records.corrupt:
            self.corrupt_lines_skipped += records.corrupt
            warnings.warn(
                f"verdict store segment {segment.name} has {records.corrupt} corrupt "
                "line(s) (truncated append?); skipped them",
                StoreCorruptionWarning,
                stacklevel=4,
            )

    def _segment(self):
        if self._segment_file is None:
            self._segment_file = open_append(self._segment_path)
        return self._segment_file

    # -- mapping interface ----------------------------------------------- #

    def __len__(self) -> int:
        return len(self._front)

    def __contains__(self, digest: str) -> bool:
        return digest in self._front

    def get(self, digest: str) -> Optional[Any]:
        """Return the stored payload for ``digest``, or ``None``."""
        return self._front.get(digest)

    def put(self, digest: str, payload: Any) -> None:
        """Persist ``payload`` under ``digest``: append to disk, cache in memory."""
        if digest in self._on_disk:
            self._front.put(digest, payload)
            return
        with trace.span("store.append") as sp:
            sp.add(bytes=append(self._segment(), {"k": digest, "v": payload}, fsync=False))
        self._front.put(digest, payload)
        self._on_disk.add(digest)
        self.appends += 1

    # -- lifecycle ------------------------------------------------------- #

    def flush(self) -> None:
        """Push the open segment to disk (appends are already flushed)."""
        if self._segment_file is not None:
            os.fsync(self._segment_file.fileno())

    def close(self) -> None:
        """Close the open segment file (the store can be reopened from disk)."""
        if self._segment_file is not None:
            self._segment_file.close()
            self._segment_file = None

    def clear(self) -> None:
        """Invalidate everything: delete all segments and drop the memory front."""
        self.close()
        for segment in self.path.glob(_SEGMENT_GLOB):
            segment.unlink()
        self._front.clear()
        self._on_disk.clear()

    def __enter__(self) -> "VerdictStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> Dict[str, int]:
        """Counters: resident entries, hit/miss traffic, load/append history."""
        front = self._front.stats()
        return {
            "entries": front["size"],
            "hits": front["hits"],
            "misses": front["misses"],
            "appends": self.appends,
            "segments_loaded": self.segments_loaded,
            "entries_loaded": self.entries_loaded,
            "corrupt_lines_skipped": self.corrupt_lines_skipped,
        }

    def __repr__(self) -> str:
        return f"VerdictStore(path={str(self.path)!r}, entries={len(self._front)})"


# ---------------------------------------------------------------------- #
# The engine
# ---------------------------------------------------------------------- #


_UNSEEN = object()


class PersistentEngine(ExecutionEngine):
    """Wrap any engine with the cross-run verdict store.

    Parameters
    ----------
    store:
        A :class:`VerdictStore` or a directory path to open one at.
    inner:
        The backend that computes misses — anything accepted by
        ``engine=`` arguments (default ``"cached"``).  Statistics are
        shared with the inner engine, with the store traffic counted as
        ``store_replayed`` / ``store_computed``, so drivers and campaign
        reports can distinguish replayed from computed jobs.

    Only *whole* runs are persisted (complete output maps of one
    ``(graph, ids[, seed])`` job); partial node subsets and randomised
    runs without an explicit seed pass straight through to the inner
    engine.  So does every job of an algorithm without an
    :func:`algorithm_fingerprint`: it is computed, never read from or
    written to the store, and counted as ``store_computed`` plus
    ``store_unpersistable``.  The batched drivers consult the store first
    and delegate only the misses — as one batch, so a sharding inner
    engine still sees maximal fan-out.  Replay happens here, in the
    calling process, only: the pool workers of a
    :class:`~repro.engine.parallel.ParallelEngine` inner compute what
    they are sent and never open the store.
    """

    name = "persistent"

    def __init__(self, store: Union[VerdictStore, str, Path], inner: EngineLike = None) -> None:
        super().__init__()
        self.store = store if isinstance(store, VerdictStore) else VerdictStore(store)
        self.inner = resolve_engine(inner if inner is not None else "cached")
        # Share the inner engine's stats object so computed work is counted
        # once, and count the store traffic into the same registry.
        self.stats = self.inner.stats
        self._fingerprints = LRUStore(256)
        self._graph_tokens = LRUStore(1024)

    def reset_stats(self) -> None:
        """Reset the shared stats counters of the wrapped inner engine."""
        self.inner.reset_stats()
        self.stats = self.inner.stats

    # -- digesting (memoised per engine) --------------------------------- #

    def _fingerprint(self, algorithm: Any) -> Optional[str]:
        cached = self._fingerprints.get(algorithm, _UNSEEN)
        if cached is _UNSEEN:
            cached = self._fingerprints.put(algorithm, algorithm_fingerprint(algorithm))
        return cached

    def _graph_token(self, graph: LabelledGraph) -> str:
        # LabelledGraph equality ignores node insertion order, but the token
        # (and the stored output list it addresses) is order-sensitive — two
        # equal graphs built in different orders must not share a cache slot,
        # or replay would zip one graph's outputs onto the other's node order.
        key = (graph, graph.nodes())
        cached = self._graph_tokens.get(key)
        if cached is None:
            cached = self._graph_tokens.put(key, _graph_token(graph))
        return cached

    def _digest(
        self,
        algorithm: Any,
        graph: LabelledGraph,
        ids: Optional[IdAssignment],
        seed: Optional[int] = None,
    ) -> Optional[str]:
        fingerprint = self._fingerprint(algorithm)
        if fingerprint is None:
            return None
        return job_digest(
            algorithm,
            graph,
            ids,
            seed,
            fingerprint=fingerprint,
            graph_token=self._graph_token(graph),
        )

    # -- store traffic ---------------------------------------------------- #

    def _replay(self, digest: Optional[str], graph: LabelledGraph) -> Optional[Dict[Node, Hashable]]:
        if digest is None:
            return None
        payload = self.store.get(digest)
        if payload is None:
            return None
        try:
            outputs = _decode_outputs(graph, payload)
        except (_Unpersistable, KeyError, ValueError, TypeError):
            # A stale or foreign entry that happens to share the digest is
            # treated as a miss, never as an error.
            self.stats.inc(STORE_DECODE_FAILURES)
            return None
        self.stats.inc(STORE_REPLAYED)
        return outputs

    def _persist(
        self, digest: Optional[str], graph: LabelledGraph, outputs: Dict[Node, Hashable]
    ) -> None:
        self.stats.inc(STORE_COMPUTED)
        if digest is None:
            self.stats.inc(STORE_UNPERSISTABLE)
            return
        try:
            self.store.put(digest, _encode_outputs(graph, outputs))
        except _Unpersistable:
            self.stats.inc(STORE_UNPERSISTABLE)

    # -- delegated primitives --------------------------------------------- #

    def views(
        self,
        graph: LabelledGraph,
        radius: int,
        ids: Optional[IdAssignment] = None,
        nodes: Optional[Iterable[Node]] = None,
    ) -> Dict[Node, Neighbourhood]:
        """Delegate view extraction to the inner engine (views are never persisted)."""
        return self.inner.views(graph, radius, ids, nodes)

    def evaluate_view(self, algorithm: "LocalAlgorithm", view: Neighbourhood) -> Hashable:
        """Delegate single-view evaluation to the inner engine (not persisted)."""
        return self.inner.evaluate_view(algorithm, view)

    # -- persistent drivers (cores; base public drivers span each call) ---- #

    def _through_store(
        self,
        algorithm: Any,
        jobs: Sequence[Tuple],
        compute: Callable[[List[Tuple]], List[Dict[Node, Hashable]]],
    ) -> List[Dict[Node, Hashable]]:
        """Replay the jobs the store holds; compute the rest as one batch and persist them.

        A job is ``(graph, ids)`` or ``(graph, ids, seed)``.  ``compute``
        receives the missing jobs in job order and returns their outputs,
        so a sharding inner engine still sees the whole miss list at once.
        The replayed/computed split is recorded on the caller's driver span,
        so a trace report counts the replayed jobs of a partly replayed batch.
        """
        results: List[Optional[Dict[Node, Hashable]]] = [None] * len(jobs)
        missing: List[int] = []
        digests: List[Optional[str]] = []
        with trace.span("store.lookup", jobs=len(jobs)):
            for k, job in enumerate(jobs):
                graph, ids = job[0], job[1]
                seed = job[2] if len(job) == 3 else None
                digest = self._digest(algorithm, graph, self._ids_for(algorithm, ids), seed)
                digests.append(digest)
                replayed = self._replay(digest, graph)
                if replayed is None:
                    missing.append(k)
                else:
                    results[k] = replayed
        trace.current().add(replayed=len(jobs) - len(missing), computed=len(missing))
        if missing:
            computed = compute([jobs[k] for k in missing])
            for k, outputs in zip(missing, computed):
                results[k] = outputs
                self._persist(digests[k], jobs[k][0], outputs)
        return results  # type: ignore[return-value]

    def _run_core(
        self,
        algorithm: "LocalAlgorithm",
        graph: LabelledGraph,
        ids: Optional[IdAssignment] = None,
        nodes: Optional[Iterable[Node]] = None,
    ) -> Dict[Node, Hashable]:
        """Run one deterministic job, replaying it from the verdict store when possible."""
        if nodes is not None:
            return self.inner.run(algorithm, graph, ids, nodes)
        return self._through_store(algorithm, [(graph, ids)], lambda _: [self.inner.run(algorithm, graph, ids)])[0]

    def _run_randomised_core(
        self,
        algorithm: "RandomisedLocalAlgorithm",
        graph: LabelledGraph,
        ids: Optional[IdAssignment] = None,
        seed: Optional[int] = None,
        nodes: Optional[Iterable[Node]] = None,
    ) -> Dict[Node, Hashable]:
        """Run one seeded randomised job, replaying from the store when the seed pins it."""
        if nodes is not None or seed is None:
            # Without an explicit seed the run is not a pure function of
            # its arguments; it must not be replayed.
            return self.inner.run_randomised(algorithm, graph, ids, seed, nodes)
        return self._through_store(
            algorithm, [(graph, ids, seed)], lambda _: [self.inner.run_randomised(algorithm, graph, ids, seed)]
        )[0]

    def _run_many_core(
        self,
        algorithm: "LocalAlgorithm",
        jobs: Sequence[Tuple[LabelledGraph, Optional[IdAssignment]]],
    ) -> List[Dict[Node, Hashable]]:
        """Replay what the store already holds; batch only the missing jobs to the inner engine."""
        return self._through_store(algorithm, list(jobs), lambda missing: self.inner.run_many(algorithm, missing))

    def _run_randomised_many_core(
        self,
        algorithm: "RandomisedLocalAlgorithm",
        jobs: Sequence[Tuple[LabelledGraph, Optional[IdAssignment], int]],
    ) -> List[Dict[Node, Hashable]]:
        """Seeded randomised batch: replay stored jobs, compute and persist the rest."""
        return self._through_store(
            algorithm, list(jobs), lambda missing: self.inner.run_randomised_many(algorithm, missing)
        )

    def __repr__(self) -> str:
        return f"PersistentEngine(store={self.store!r}, inner={self.inner!r})"
