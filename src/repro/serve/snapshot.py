"""Versioned engine snapshots with copy-and-swap updates.

The serving layer never mutates the engine a query might be reading.
Instead, every lake mutation (``add_table`` / ``remove_table``) builds
a *new* :class:`~repro.system.Thetis` over copied lake/mapping
containers off the request path, applies the mutation there, optionally
re-warms it, and atomically swaps it in as the current snapshot.
Queries check out the snapshot that is current when their batch starts
and keep it alive by refcount; a retired snapshot is closed only when
its last in-flight query finishes.

This gives the server three properties the dynamic-lake API of
``Thetis`` alone cannot: mutations are invisible to in-flight queries,
a failed mutation leaves the serving state untouched, and readers never
block on writers (writers pay the copy).

The copy is cheap: the mapping is copied copy-on-write, and each clone
seeds from the generation it replaces (:meth:`Thetis.seed_engines_from`),
adopting every engine's segmented index — entity, union and join — by
reference and forking the LSEI prefilter, also copy-on-write.  Applying
the mutation then tombstones a table or appends its single-table
segment to each index, copies only the mapping and LSEI containers that
table touches, and refreshes the informativeness weights from table
frequencies the mapping keeps current.  What still grows with the lake:
dict-header copies and the O(entities) weight refresh.  Nothing is
recompiled, and no generation ever writes to state an older one still
serves from.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro.exceptions import ServeError
from repro.system import Thetis


class EngineSnapshot:
    """One immutable serving generation: a Thetis plus a version tag."""

    def __init__(self, thetis: Thetis, version: int):
        self.thetis = thetis
        self.version = version
        self._lock = threading.Lock()
        self._active = 0  # guarded-by: _lock
        self._retired = False  # guarded-by: _lock

    # ------------------------------------------------------------------
    def acquire(self) -> "EngineSnapshot":
        with self._lock:
            if self._retired and self._active == 0:
                # Already closed; the manager never hands these out.
                raise ServeError(
                    f"snapshot v{self.version} is retired and drained"
                )
            self._active += 1
        return self

    def release(self) -> None:
        close = False
        with self._lock:
            self._active -= 1
            close = self._retired and self._active == 0
        if close:
            self.thetis.close()

    def retire(self) -> None:
        """Mark superseded; closes immediately if nothing is in flight."""
        close = False
        with self._lock:
            if self._retired:
                return
            self._retired = True
            close = self._active == 0
        if close:
            self.thetis.close()

    @property
    def active(self) -> int:
        with self._lock:
            return self._active

    @property
    def retired(self) -> bool:
        with self._lock:
            return self._retired


class SnapshotManager:
    """Owns the current :class:`EngineSnapshot` and the swap protocol.

    Parameters
    ----------
    thetis:
        The initial engine; the manager takes ownership (it will close
        it when the snapshot is superseded or the manager shuts down).
    warm_method:
        When set, every freshly built snapshot is warmed for this
        method (``Thetis.warm``) *before* the swap, so the
        first query after an update does not pay cold-start costs.
    on_swap:
        Optional callback ``(new_version) -> None`` fired after each
        swap (the server bumps its swap counter here).
    """

    def __init__(
        self,
        thetis: Thetis,
        warm_method: Optional[str] = None,
        on_swap: Optional[Callable[[int], None]] = None,
    ):
        # One writer at a time; readers never take this lock (the
        # reader paths below carry intentionally-racy pragmas).
        self._swap_lock = threading.Lock()
        self._current = EngineSnapshot(thetis, version=0)  # guarded-by: _swap_lock
        self._warm_method = warm_method
        self._on_swap = on_swap
        self._closed = False  # guarded-by: _swap_lock

    # ------------------------------------------------------------------
    @property
    def current(self) -> EngineSnapshot:
        # Intentionally racy read: readers never serialize on the
        # writer lock; a single attribute load is atomic and the
        # acquire/retry in checkout() handles the swap race.
        return self._current  # lint: disable=guarded-attr-outside-lock

    @property
    def version(self) -> int:
        # Intentionally racy read (see `current`).
        return self._current.version  # lint: disable=guarded-attr-outside-lock

    @contextmanager
    def checkout(self) -> Iterator[EngineSnapshot]:
        """Pin the current snapshot for the duration of a query batch.

        Yields the :class:`EngineSnapshot` so callers can stamp results
        with ``snapshot.version``; the engine is ``snapshot.thetis``.
        """
        while True:
            # Intentionally racy reads: queries must never block on a
            # writer mid-swap.  `_closed` is terminal (a stale False
            # fails at acquire) and `_current` is a single atomic load
            # whose retirement race the except branch retries.
            if self._closed:  # lint: disable=guarded-attr-outside-lock
                raise ServeError("snapshot manager is closed")
            try:
                snapshot = self._current.acquire()  # lint: disable=guarded-attr-outside-lock
                break
            except ServeError:
                # Lost a race with a swap that retired-and-drained the
                # snapshot between our read and the acquire; the fresh
                # current is one retry away.
                continue
        try:
            yield snapshot
        finally:
            snapshot.release()

    # ------------------------------------------------------------------
    # Only called from apply(), which already holds _swap_lock — the
    # flow-sensitive lock pass proves that, so no pragma is needed.
    def _clone_current(self) -> Thetis:
        current = self._current.thetis
        lake, mapping = current.snapshot_inputs()
        # index_dir is deliberately not propagated: on-disk cold-start
        # snapshots concern the first generation only — clones seed
        # from the live generation below, which is strictly fresher.
        replacement = Thetis(
            lake,
            current.graph,
            mapping,
            embeddings=current.embeddings,
            row_aggregation=current.row_aggregation,
            query_aggregation=current.query_aggregation,
            cache_size=current.cache_size,
            engine_kind=current.engine_kind,
        )
        # Hand the clone the warm state: every compiled index (by
        # reference: they are immutable) and a fork of the prefilter —
        # or, under the scalar engine, its views and similarity cache —
        # so the subsequent mutate + warm costs O(delta) instead of a
        # corpus recompile.
        replacement.seed_engines_from(current)
        return replacement

    def apply(self, mutate: Callable[[Thetis], object]) -> object:
        """Run ``mutate`` on a fresh clone, then atomically swap it in.

        The clone/mutate/warm work happens while queries keep flowing
        against the old snapshot; only the reference swap itself is the
        "cut-over", and it is a single attribute store.  If ``mutate``
        raises, the half-built clone is closed and the serving state is
        unchanged.
        """
        with self._swap_lock:
            # Checked under the lock: a concurrent close() must not
            # interleave with the clone/swap and have apply() resurrect
            # a retired snapshot.
            if self._closed:
                raise ServeError("snapshot manager is closed")
            old = self._current
            replacement = self._clone_current()
            try:
                result = mutate(replacement)
                if self._warm_method is not None:
                    replacement.warm(self._warm_method)
            except Exception:
                replacement.close()
                raise
            fresh = EngineSnapshot(replacement, old.version + 1)
            self._current = fresh  # the atomic cut-over
            old.retire()
        if self._on_swap is not None:
            self._on_swap(fresh.version)
        return result

    def close(self) -> None:
        """Retire the current snapshot; drains then closes its engine."""
        with self._swap_lock:
            if self._closed:
                return
            self._closed = True
            self._current.retire()
