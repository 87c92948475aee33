"""Sharded parallel semantic table search.

Algorithm 1 scores every candidate table independently, which makes the
scoring loop embarrassingly parallel: shard the candidate ids across a
worker pool, score each shard with the exact engine, and merge.  The
merged ranking is *bit-identical* to the sequential one
(property-tested) because per-table scores do not depend on sharding
and :class:`~repro.core.result.ResultSet` orders deterministically
(descending score, ascending id tie-break).

Two backends are available:

``thread``
    A :class:`~concurrent.futures.ThreadPoolExecutor` sharing the
    engine — and, crucially, its persistent
    :class:`~repro.core.cache.SimilarityCache` — across workers.  Best
    when ``sigma`` releases the GIL (numpy-backed embedding batches) or
    when the cache is warm and queries are dominated by lookups.  The
    vectorized engine's compiled corpus index is likewise shared
    read-only across all thread shards, and its batched numpy passes
    release the GIL, so thread sharding composes with the kernel.

``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor` with chunked
    dispatch.  Each worker receives a pickled copy of the engine once
    (pool initializer) and keeps its own caches warm across queries, so
    pure-Python similarity work scales with cores.  The parent's cache
    does not see worker hits; per-shard profiles still merge.  When the
    engine exposes ``spill_index`` (the vectorized kernel), the pool
    first spills the compiled segmented index to an on-disk snapshot and
    pickles the engine *without* its arrays; every worker then memmaps
    the same snapshot lazily, sharing one copy of the index through the
    page cache instead of deserializing a private copy per process.

Each shard accumulates into a private :class:`ScoringProfile`; the
shard profiles are merged into the wrapped engine's profile after every
search, so the Section 7.3 instrumentation keeps one consistent view.
"""

from __future__ import annotations

import math
import os
import pickle
import shutil
import sys
import tempfile
import threading
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.query import Query
from repro.core.result import ResultSet, ScoredTable
from repro.core.search import (
    ScoringProfile,
    TableSearchEngine,
    aligned_candidates,
)
from repro.exceptions import ConfigurationError, IndexStorageError

#: Supported worker-pool backends.
BACKENDS = ("thread", "process")

#: Dispatch granularity: shards per worker per search.  More shards
#: balance load between uneven tables; fewer shards cut dispatch
#: overhead.  Two per worker keeps stragglers from serializing a
#: search while staying cheap on small candidate sets.
SHARDS_PER_WORKER = 2

#: Interpreter thread-switch interval (seconds) applied while thread
#: shards run.  Scoring shards are CPU-bound Python, so the default
#: 5 ms preemption makes workers thrash the GIL; widening the interval
#: during dispatch lets each shard run in longer uninterrupted bursts
#: (measurably faster and far less variance on few-core machines).  The
#: previous value is always restored when the search returns.
THREAD_SWITCH_INTERVAL = 0.05

# Engine copy held by each process-pool worker (set by the initializer).
_WORKER_ENGINE: Optional[TableSearchEngine] = None

# The switch interval is process-global state; concurrent searches from
# multiple caller threads (the serving layer) must not trample each
# other's save/restore.  A depth counter widens it on the first entry
# and restores the original value only when the last search leaves.
_SWITCH_LOCK = threading.Lock()
_SWITCH_DEPTH = 0
_SWITCH_SAVED = 0.0


def _widen_switch_interval() -> None:
    global _SWITCH_DEPTH, _SWITCH_SAVED
    with _SWITCH_LOCK:
        if _SWITCH_DEPTH == 0:
            _SWITCH_SAVED = sys.getswitchinterval()
            sys.setswitchinterval(THREAD_SWITCH_INTERVAL)
        _SWITCH_DEPTH += 1


def _restore_switch_interval() -> None:
    global _SWITCH_DEPTH
    with _SWITCH_LOCK:
        _SWITCH_DEPTH -= 1
        if _SWITCH_DEPTH == 0:
            sys.setswitchinterval(_SWITCH_SAVED)


def _init_process_worker(engine_pickle: bytes) -> None:
    global _WORKER_ENGINE
    _WORKER_ENGINE = pickle.loads(engine_pickle)


def _score_shard_batch(
    engine: TableSearchEngine,
    queries: List[Query],
    candidate_lists: List[List[str]],
    k: Optional[int],
) -> Tuple[List[List[Tuple[float, str]]], ScoringProfile]:
    """Score one shard against a whole batch in one ``search_batch``.

    Returns one ``(score, table_id)`` pair list per query (aligned with
    ``queries``) plus the shard's private profile.  Each query's pairs
    are its shard-restricted ranking truncated to the per-shard top-k
    (safe: shards are disjoint, so per-shard top-k partials merge to
    the global top-k).
    """
    profile = ScoringProfile()
    rankings = engine.search_batch(
        queries, k=k, candidates=candidate_lists, profile=profile
    )
    pairs = [
        [(scored.score, scored.table_id) for scored in ranking]
        for ranking in rankings
    ]
    return pairs, profile


def _score_shard_batch_in_process(
    queries: List[Query],
    candidate_lists: List[List[str]],
    k: Optional[int],
) -> Tuple[List[List[Tuple[float, str]]], ScoringProfile]:
    assert _WORKER_ENGINE is not None, "process pool not initialized"
    return _score_shard_batch(_WORKER_ENGINE, queries, candidate_lists, k)


def merge_topk(
    partials: Iterable[Iterable[Tuple[float, str]]],
    k: Optional[int] = None,
) -> List[Tuple[float, str]]:
    """Merge per-shard ``(score, table_id)`` partials into one ranking.

    The shared merge of the sharded parallel engine and the cluster
    scatter-gather path (:mod:`repro.cluster`).  Its contract is pinned
    by tests because distributed correctness rests on it:

    - **Bit-identical order.**  Pairs are ranked by ``(-score,
      table_id)`` — exactly the :class:`~repro.core.result.ResultSet`
      order — so merging per-shard top-k partials of disjoint shards
      reproduces the single-process ranking bit for bit.
    - **Empty shards are neutral.**  Empty (or ``None``) partials
      contribute nothing; a merge of only empty partials is ``[]``.
    - **First-epoch-wins dedup.**  When the same table id appears in
      several partials (replicated shards, or a routing-epoch flip
      racing a hedged retry), the *first* partial mentioning it wins
      and later occurrences are dropped.  Under replication the scores
      are equal so any choice is correct; pinning first-wins keeps the
      merge deterministic for callers that order partials by epoch.

    ``k=None`` returns the full merged ranking; otherwise at most ``k``
    pairs.
    """
    best: Dict[str, float] = {}
    for partial in partials:
        if not partial:
            continue
        for score, table_id in partial:
            if table_id not in best:
                best[table_id] = float(score)
    ranked = sorted(best.items(), key=lambda item: (-item[1], item[0]))
    if k is not None:
        ranked = ranked[: max(0, k)]
    return [(score, table_id) for table_id, score in ranked]


class ParallelSearchEngine:
    """Shard candidate tables across a worker pool; merge exactly.

    Parameters
    ----------
    engine:
        The exact :class:`~repro.core.search.TableSearchEngine` whose
        scoring semantics (and caches, for the thread backend) are
        reused unchanged.
    workers:
        Pool size; defaults to the CPU count.  ``1`` still exercises
        the sharded code path, which is how the parity tests pin the
        merge logic against the sequential engine.
    backend:
        ``"thread"`` (default) or ``"process"`` — see the module
        docstring for the trade-off.
    chunk_size:
        Tables per dispatched shard; defaults to splitting the
        candidate list into ``workers * SHARDS_PER_WORKER`` shards.

    Notes
    -----
    Process-backend workers snapshot the engine when the pool starts;
    after mutating the lake or mapping call :meth:`reset_workers` so
    the next search forks fresh copies (``Thetis`` does this for you).
    """

    def __init__(
        self,
        engine: TableSearchEngine,
        workers: Optional[int] = None,
        backend: str = "thread",
        chunk_size: Optional[int] = None,
    ):
        if backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {backend!r}: use one of {BACKENDS}"
            )
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        self.engine = engine
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.backend = backend
        self.chunk_size = chunk_size
        self._pool: Optional[Executor] = None  # guarded-by: _lock
        self._spill_dir: Optional[str] = None  # guarded-by: _lock
        # Guards pool creation/teardown and the profile merge, so that
        # concurrent searches from multiple caller threads neither leak
        # a raced pool nor corrupt the shared profile accumulation.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    @property
    def profile(self) -> ScoringProfile:
        """The wrapped engine's profile (shard profiles merge into it)."""
        return self.engine.profile

    def cache_stats(self):
        """Cache statistics of the wrapped engine (parent process only)."""
        return self.engine.cache_stats()

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> Executor:
        with self._lock:
            if self._pool is None:
                if self.backend == "thread":
                    self._pool = ThreadPoolExecutor(
                        max_workers=self.workers,
                        thread_name_prefix="thetis-search",
                    )
                else:
                    # Engines with a compiled substrate (the vectorized
                    # kernel's corpus index) build it once here, so every
                    # worker inherits the compiled substrate instead of
                    # recompiling per process.
                    prepare = getattr(self.engine, "prepare", None)
                    if prepare is not None:
                        prepare()
                    # Segment-aware engines spill the index to a shared
                    # on-disk snapshot: the pickled engine then omits the
                    # compiled arrays entirely and every worker memmaps
                    # the same file pages zero-copy on first use, rather
                    # than receiving a private deep copy over the pipe.
                    spill = getattr(self.engine, "spill_index", None)
                    if spill is not None and self._spill_dir is None:
                        spill_dir = tempfile.mkdtemp(prefix="thetis-index-")
                        try:
                            spill(spill_dir)
                        except (OSError, IndexStorageError):
                            # Fall back to plain pickling: slower pool
                            # start-up, identical results.
                            shutil.rmtree(spill_dir, ignore_errors=True)
                        else:
                            self._spill_dir = spill_dir
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.workers,
                        initializer=_init_process_worker,
                        initargs=(pickle.dumps(self.engine),),
                    )
            return self._pool

    def reset_workers(self) -> None:
        """Tear down the pool; the next search builds a fresh one.

        Required after lake/mapping mutations on the process backend,
        whose workers hold an engine snapshot from pool start-up.
        """
        with self._lock:
            pool, self._pool = self._pool, None
            spill_dir, self._spill_dir = self._spill_dir, None
        if pool is not None:
            pool.shutdown(wait=True)
        if spill_dir is not None:
            clear = getattr(self.engine, "clear_spill", None)
            if clear is not None:
                clear()
            shutil.rmtree(spill_dir, ignore_errors=True)

    def close(self) -> None:
        """Release the worker pool (idempotent)."""
        self.reset_workers()

    def __enter__(self) -> "ParallelSearchEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _candidate_ids(self, candidates: Optional[Iterable[str]]) -> List[str]:
        """Mirror the sequential engine's candidate filtering exactly."""
        engine = self.engine
        if candidates is None:
            ids: Iterable[str] = engine.lake.table_ids()
        else:
            ids = (
                tid for tid in dict.fromkeys(candidates) if tid in engine.lake
            )
        if not engine.drop_irrelevant:
            return list(ids)
        return [
            tid for tid in ids if engine.mapping.entities_in_table(tid)
        ]

    def _shards(self, ids: List[str]) -> List[List[str]]:
        size = self.chunk_size
        if size is None:
            size = max(
                1, math.ceil(len(ids) / (self.workers * SHARDS_PER_WORKER))
            )
        return [ids[i:i + size] for i in range(0, len(ids), size)]

    def search(
        self,
        query: Query,
        k: Optional[int] = None,
        candidates: Optional[Iterable[str]] = None,
    ) -> ResultSet:
        """Rank (a subset of) the lake by SemRel — sequential-identical.

        Same contract as :meth:`TableSearchEngine.search` (a
        :meth:`search_batch` of one); the ranking, scores, and
        tie-breaks match the sequential engine bit for bit.
        """
        return self.search_batch([query], k=k, candidates=[candidates])[0]

    def search_batch(
        self,
        queries: Sequence[Query],
        k: Optional[int] = None,
        candidates: Optional[Sequence[Optional[Iterable[str]]]] = None,
        batch_stats=None,
    ) -> List[ResultSet]:
        """Sharded :meth:`TableSearchEngine.search_batch` (same contract).

        The whole batch is sharded once: the shard basis is the ordered
        union of every query's candidate ids, each shard runs *one*
        ``search_batch`` of the wrapped engine (a single fused
        multi-query pass on the vectorized kernel), and per-query
        partials merge with :func:`merge_topk` — bit-identical to
        per-query sequential search.  ``batch_stats`` (a
        :class:`~repro.core.kernel.batchstats.BatchStats`) is told how
        the wrapped engine dispatches a batch.
        """
        query_list = list(queries)
        restrictions = aligned_candidates(query_list, candidates)
        if not query_list:
            return []
        id_lists = [
            self._candidate_ids(restriction) for restriction in restrictions
        ]
        id_sets = [set(ids) for ids in id_lists]
        # Shard basis: ordered union of every query's candidate ids, so
        # each shard is scored once for the whole batch; per-query
        # shard restrictions partition each query's own candidate list.
        basis = list(
            dict.fromkeys(tid for ids in id_lists for tid in ids)
        )
        shards = self._shards(basis)
        if batch_stats is not None:
            unique = len({
                (query.tuples, frozenset(id_set))
                for query, id_set in zip(query_list, id_sets)
            })
            self.engine.record_dispatch(
                batch_stats, len(query_list), unique
            )

        def shard_candidates(shard: List[str]) -> List[List[str]]:
            return [
                [tid for tid in shard if tid in id_set]
                for id_set in id_sets
            ]

        if len(shards) <= 1:
            # One shard: one in-process pass, no dispatch.
            outcomes = (
                [_score_shard_batch(
                    self.engine, query_list, shard_candidates(basis), k
                )]
                if basis else []
            )
        elif self.backend == "thread":
            pool = self._ensure_pool()
            _widen_switch_interval()
            try:
                futures = [
                    pool.submit(
                        _score_shard_batch, self.engine, query_list,
                        shard_candidates(shard), k,
                    )
                    for shard in shards
                ]
                outcomes = [future.result() for future in futures]
            finally:
                _restore_switch_interval()
        else:
            pool = self._ensure_pool()
            futures = [
                pool.submit(
                    _score_shard_batch_in_process, query_list,
                    shard_candidates(shard), k,
                )
                for shard in shards
            ]
            outcomes = [future.result() for future in futures]
        with self._lock:
            for _, shard_profile in outcomes:
                self.engine.profile.merge(shard_profile)
        return [
            ResultSet(
                ScoredTable(score, table_id)
                for score, table_id in merge_topk(
                    (pairs[position] for pairs, _ in outcomes), k
                )
            )
            for position in range(len(query_list))
        ]
