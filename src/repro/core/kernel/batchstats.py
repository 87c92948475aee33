"""Serve-side accounting for the multi-query batched scoring path.

:class:`BatchStats` is the single mutable object shared by the facade,
the serve loop, and ``/metrics``: every ``search_batch`` dispatch
records one pass over the micro-batch, plus how many duplicate queries
the canonical-key dedup collapsed.  Snapshot swaps hand the same
instance to the replacement generation (see
``Thetis.seed_engines_from``), so the serving counters survive
copy-and-swap mutations instead of resetting every swap.
"""

from __future__ import annotations

import threading
from typing import Dict


class BatchStats:
    """Thread-safe counters for batched query dispatch.

    One record point, :meth:`record_batched`: one pass over a batch,
    where ``unique`` is the job count after canonical-query dedup, so
    ``queries - unique`` queries were answered from a duplicate's
    ranking without being scored again.

    All readers go through :meth:`as_dict`, which derives the rates the
    ``/metrics`` endpoint publishes.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._batched_passes = 0
        self._batched_queries = 0
        self._deduped_queries = 0

    # ------------------------------------------------------------------
    def record_batched(self, queries: int, unique: int) -> None:
        """One pass covering ``queries`` micro-batch slots."""
        queries = max(0, int(queries))
        unique = max(0, min(int(unique), queries))
        with self._lock:
            self._batched_passes += 1
            self._batched_queries += queries
            self._deduped_queries += queries - unique

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """Derived rates for ``/metrics`` (JSON-serializable)."""
        with self._lock:
            batched_passes = self._batched_passes
            batched_queries = self._batched_queries
            payload: Dict[str, object] = {
                "batched_passes": batched_passes,
                "batched_queries": batched_queries,
                "deduped_queries": self._deduped_queries,
                "queries_per_batched_pass": (
                    batched_queries / batched_passes
                    if batched_passes else 0.0
                ),
                "dedup_rate": (
                    self._deduped_queries / batched_queries
                    if batched_queries else 0.0
                ),
            }
        return payload

    # ------------------------------------------------------------------
    def merge_counts(self, counts: Dict[str, object]) -> None:
        """Fold another instance's :meth:`as_dict` counters into this one.

        The cluster coordinator aggregates worker-reported batch blocks
        with this — only the raw counters are summed; the derived rates
        are recomputed by the next :meth:`as_dict`.
        """
        def _count(key: str) -> int:
            value = counts.get(key, 0)
            return int(value) if isinstance(value, (int, float)) else 0

        with self._lock:
            self._batched_passes += _count("batched_passes")
            self._batched_queries += _count("batched_queries")
            self._deduped_queries += _count("deduped_queries")


__all__ = ["BatchStats"]
