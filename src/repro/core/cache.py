"""Bounded, thread-safe caches shared by the scoring substrate.

Section 7.3 shows that pairwise-similarity evaluation dominates query
cost.  The engine used to memoize similarities in a throw-away dict per
``search()`` call, so repeated queries over the same corpus re-paid the
dominant cost every time.  This module provides the persistent
replacement:

* :class:`LRUCache` — a generic bounded least-recently-used cache with
  hit/miss/eviction counters, safe under concurrent access (served
  ``/explain`` calls run on executor threads and may share one);
* :class:`SimilarityCache` — a bounded memo specialized for pairwise
  entity similarities, tuned for the read-dominated hot path: lock-free
  GIL-atomic reads, locked writes, insertion-order eviction.  When the
  wrapped ``sigma`` declares itself symmetric the key is canonicalized
  to the *unordered* pair, so ``sigma(a, b)`` and ``sigma(b, a)`` share
  one entry and one underlying evaluation.

Both caches live for the lifetime of the engine that owns them and are
bounded, so long-running services over dynamic lakes neither re-pay
the similarity cost per query nor leak memory.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Tuple

from repro.exceptions import ConfigurationError
from repro.similarity.base import EntitySimilarity

#: Default bound for pairwise-similarity entries (two interned strings
#: and a float per entry, so even the default is modest in memory).
DEFAULT_SIMILARITY_CACHE_SIZE = 1_000_000

#: Default bound for per-table view caches (entity grids / counters).
DEFAULT_VIEW_CACHE_SIZE = 100_000

_MISSING = object()


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time snapshot of one cache's counters."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def lookups(self) -> int:
        """Total lookups served (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0 when idle)."""
        if self.hits + self.misses == 0:
            return 0.0
        return self.hits / (self.hits + self.misses)

    def format_row(self) -> str:
        """One-line human-readable summary."""
        return (
            f"size {self.size}/{self.maxsize}  hits {self.hits}  "
            f"misses {self.misses}  evictions {self.evictions}  "
            f"hit rate {self.hit_rate:.1%}"
        )


class LRUCache:
    """A bounded least-recently-used mapping with usage counters.

    All operations take an internal lock, so one instance may be shared
    by concurrent reader threads.  Lookups that miss and the
    subsequent :meth:`put` are *not* one atomic unit — two threads may
    both compute a value for the same key — but the cache stays
    consistent and the duplicated work is benign for pure functions,
    which is all the engine stores here.
    """

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ConfigurationError(
                f"cache maxsize must be >= 1, got {maxsize}"
            )
        self._maxsize = int(maxsize)
        self._lock = threading.RLock()
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()  # guarded-by: _lock
        self._hits = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock
        self._evictions = 0  # guarded-by: _lock

    @property
    def maxsize(self) -> int:
        return self._maxsize

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (refreshing its recency) or ``default``."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self._misses += 1
                return default
            self._data.move_to_end(key)
            self._hits += 1
            return value

    def record_hits(self, count: int) -> None:
        """Count ``count`` hits served from a copy of cached values."""
        with self._lock:
            self._hits += count

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value without touching recency or counters."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            return default if value is _MISSING else value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key``, evicting the least recently used beyond bound."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self._maxsize:
                self._data.popitem(last=False)
                self._evictions += 1

    def pop(self, key: Hashable, default: Any = None) -> Any:
        """Remove and return ``key``'s value (``default`` when absent)."""
        with self._lock:
            return self._data.pop(key, default)

    def clear(self) -> None:
        """Drop every entry; counters keep accumulating."""
        with self._lock:
            self._data.clear()

    def snapshot_items(self) -> list:
        """A point-in-time copy of the entries, oldest first.

        Serving snapshots use this to seed a fresh engine's caches from
        the generation being replaced, so an O(delta) lake mutation does
        not cold-start every per-table memo.  Recency order is
        preserved, so replaying the items into another cache keeps the
        same eviction candidates.
        """
        with self._lock:
            return list(self._data.items())

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters."""
        with self._lock:
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    def stats(self) -> CacheStats:
        """Snapshot the counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._data),
                maxsize=self._maxsize,
            )


class SimilarityCache:
    """Persistent bounded memo of pairwise entity similarities.

    Parameters
    ----------
    sigma:
        The underlying :class:`~repro.similarity.base.EntitySimilarity`.
    maxsize:
        Entry bound.

    When ``sigma.is_symmetric`` the key is the *unordered* pair — the
    lexicographically smaller entity first — so the two orientations of
    a pair share a single evaluation.  Asymmetric similarities keep the
    ordered key and are never conflated.

    This cache sits on the hottest path in the system (millions of
    lookups per query), so unlike :class:`LRUCache` its *read* path
    takes no lock: CPython dict reads are atomic under the GIL, and
    writes/evictions serialize on an internal lock.  Eviction drops the
    oldest-*inserted* entry (dicts preserve insertion order) rather
    than the least-recently-*used* one — tracking read recency would
    cost a locked reorder per lookup, more than the average similarity
    evaluation it protects.  The hit counter is likewise maintained
    without locking, so under concurrent access it is statistically
    accurate rather than exact; misses and evictions are exact.
    """

    def __init__(
        self,
        sigma: EntitySimilarity,
        maxsize: int = DEFAULT_SIMILARITY_CACHE_SIZE,
    ):
        if maxsize < 1:
            raise ConfigurationError(
                f"cache maxsize must be >= 1, got {maxsize}"
            )
        self.sigma = sigma
        self.symmetric = bool(getattr(sigma, "is_symmetric", False))
        self._maxsize = int(maxsize)
        self._lock = threading.Lock()
        self._data: Dict[Tuple[str, str], float] = {}  # guarded-by: _lock
        self._hits = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock
        self._evictions = 0  # guarded-by: _lock

    @property
    def maxsize(self) -> int:
        return self._maxsize

    def __len__(self) -> int:
        # Intentionally racy read: dict length is GIL-atomic and the
        # value is advisory (sizing displays), so it skips the lock.
        return len(self._data)  # lint: disable=guarded-attr-outside-lock

    def key_of(self, a: str, b: str) -> Tuple[str, str]:
        """The cache key for the pair (canonicalized when symmetric)."""
        if self.symmetric and b < a:
            return (b, a)
        return (a, b)

    def similarity(self, a: str, b: str, profile=None) -> float:
        """Return ``sigma(a, b)``, evaluating at most once per key.

        When a :class:`~repro.core.search.ScoringProfile` is passed,
        its ``similarity_calls`` counter is incremented for every
        lookup and ``similarity_misses`` only when the underlying
        ``sigma`` actually ran (the Section 7.3 cost split).
        """
        key = (b, a) if self.symmetric and b < a else (a, b)
        # Intentionally racy read — the lock-free fast path this cache
        # exists for: CPython dict reads are GIL-atomic, and the worst
        # race outcome is one duplicated pure-sigma evaluation.
        value = self._data.get(key, _MISSING)  # lint: disable=guarded-attr-outside-lock
        if value is _MISSING:
            value = self.sigma.similarity(a, b)
            with self._lock:
                self._data[key] = value
                self._misses += 1
                data = self._data
                while len(data) > self._maxsize:
                    del data[next(iter(data))]
                    self._evictions += 1
            if profile is not None:
                profile.similarity_calls += 1
                profile.similarity_misses += 1
            return value
        # Intentionally racy increment: hit counts are statistics, not
        # invariants (documented above); exactness is not worth a lock
        # per lookup on the hottest path in the system.
        self._hits += 1  # lint: disable=guarded-attr-outside-lock
        if profile is not None:
            profile.similarity_calls += 1
        return value

    __call__ = similarity

    def clear(self) -> None:
        """Drop every cached pair (call when ``sigma`` itself changes)."""
        with self._lock:
            self._data = {}

    def reset_stats(self) -> None:
        with self._lock:
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._data),
                maxsize=self._maxsize,
            )


def format_cache_stats(stats: Dict[str, CacheStats]) -> str:
    """Render a ``name -> CacheStats`` mapping as an aligned report."""
    width = max((len(name) for name in stats), default=0)
    return "\n".join(
        f"{name:<{width}}  {snapshot.format_row()}"
        for name, snapshot in stats.items()
    )
