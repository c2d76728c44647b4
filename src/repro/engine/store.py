"""Bounded LRU stores used by the caching execution backend.

The :class:`CachedEngine` keeps three kinds of state — extracted ball
collections, interned canonical view keys, and memoised algorithm outputs —
all of which must stay bounded so that long verification sweeps over many
graphs cannot grow memory without limit.  :class:`LRUStore` is the single
primitive behind all three: an insertion-ordered mapping that evicts the
least-recently-used entry once a capacity is exceeded, with hit/miss
counters so benchmarks and tests can observe cache behaviour.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional

__all__ = ["LRUStore"]

_MISSING = object()


class LRUStore:
    """A bounded mapping with least-recently-used eviction and hit statistics.

    Parameters
    ----------
    maxsize:
        Maximum number of entries kept; ``None`` means unbounded.  A lookup
        or insertion marks the entry as most recently used.
    """

    __slots__ = ("maxsize", "_data", "hits", "misses", "evictions")

    def __init__(self, maxsize: Optional[int] = None) -> None:
        if maxsize is not None and maxsize <= 0:
            raise ValueError(f"LRU capacity must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the stored value (marking it recently used) or ``default``."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> Any:
        """Store ``value`` under ``key``, evicting the oldest entry when full."""
        self._data[key] = value
        self._data.move_to_end(key)
        if self.maxsize is not None and len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1
        return value

    def intern(self, key: Hashable) -> Hashable:
        """Return the canonical stored object equal to ``key``.

        Repeated canonical-form tuples (two isomorphic balls produce equal
        keys) collapse onto a single shared object, so large verification
        sweeps hold one copy of each distinct view key instead of one per
        node evaluated.
        """
        existing = self._data.get(key, _MISSING)
        if existing is not _MISSING:
            self._data.move_to_end(key)
            self.hits += 1
            return existing
        self.misses += 1
        self.put(key, key)
        return key

    def clear(self) -> None:
        """Drop all entries (statistics are kept)."""
        self._data.clear()

    def stats(self) -> Dict[str, int]:
        """Return a snapshot of the store's counters."""
        return {
            "size": len(self._data),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:
        cap = "inf" if self.maxsize is None else self.maxsize
        return f"LRUStore(size={len(self._data)}, maxsize={cap}, hits={self.hits}, misses={self.misses})"
