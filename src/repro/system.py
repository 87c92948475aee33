"""The Thetis facade: one object wiring the whole search stack together.

The lower-level packages stay independently usable; this class is the
convenience layer a downstream user starts with — construct it over a
semantic data lake, optionally train embeddings, and search by entity
tuples with or without LSH prefiltering.
"""

from __future__ import annotations

import threading
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.aggregation import QueryAggregation, RowAggregation
from repro.core.cache import DEFAULT_SIMILARITY_CACHE_SIZE, CacheStats
from repro.core.kernel import ENGINE_KINDS
from repro.core.kernel.batchstats import BatchStats
from repro.core.kernel.engine import VectorizedTableSearchEngine
from repro.core.kernel.join import VectorizedJoinSearchEngine
from repro.core.kernel.prefilter import PrefilterStats
from repro.core.kernel.union import VectorizedUnionSearchEngine
from repro.core.query import SEARCH_MODES, SEARCH_TASKS, Query
from repro.core.result import ResultSet
from repro.core.search import TableSearchEngine
from repro.datalake.lake import DataLake
from repro.embeddings.store import EmbeddingStore
from repro.exceptions import ConfigurationError, ThetisClosedError
from repro.kg.graph import KnowledgeGraph
from repro.linking.mapping import EntityMapping
from repro.lsh.config import LSHConfig, RECOMMENDED_CONFIG
from repro.similarity.base import EntitySimilarity
from repro.similarity.embedding import EmbeddingCosineSimilarity
from repro.similarity.informativeness import Informativeness
from repro.similarity.types import TypeJaccardSimilarity

if TYPE_CHECKING:
    from repro.lsh.index import TablePrefilter

#: A candidate restriction: table ids, or a sorted array of distinct
#: table ordinals of the lake's :class:`~repro.datalake.lake.
#: TableOrdinals`.
Shard = Union[Iterable[str], np.ndarray]


class Thetis:
    """Semantic table search over a semantic data lake.

    Parameters
    ----------
    lake:
        The table repository.
    graph:
        The reference knowledge graph.
    mapping:
        Entity links between lake cells and KG entities.
    embeddings:
        Optional pre-trained entity embeddings; required for the
        ``"embeddings"`` method (train with :meth:`train_embeddings`).
    cache_size:
        Entry bound of the scalar engine's pairwise-similarity cache:
        the persistent one of ``engine_kind="scalar"``, and the
        per-call one :meth:`explain` builds.  The kernel has no such
        cache.
    engine_kind:
        Scoring engine implementation: ``"vectorized"`` (the default:
        the batched kernel of :mod:`repro.core.kernel` over a compiled
        corpus index) or ``"scalar"`` (the per-cell Algorithm 1 loop,
        kept as the reference the kernel is checked against at
        score-parity <= 1e-9).  Also reachable as ``--engine`` on
        ``thetis search`` and ``thetis bench``.
    index_dir:
        Optional directory holding a persisted segmented index (built
        with ``thetis index build``).  Vectorized engines memmap it on
        first use instead of compiling the corpus from scratch — a
        zero-copy cold start.  If the snapshot does not mirror the
        lake (or is unreadable), the engine silently falls back to
        compiling.  Requires ``engine_kind="vectorized"``.

    Example
    -------
    >>> thetis = Thetis(lake, graph, mapping)          # doctest: +SKIP
    >>> results = thetis.search(Query.single("kg:x"))  # doctest: +SKIP

    Notes
    -----
    *Search entry points.*  :meth:`search` (one query),
    :meth:`search_many` (a micro-batch, the serving layer's call) and
    :meth:`search_shard_batch` (a micro-batch against one cluster
    shard) are thin callers of one private path: resolve each query's
    candidate restriction, pick the engine, make one ``search_batch``
    call.  :meth:`prefilter_recall` (the serving recall guardrail) is
    two calls of :meth:`search`.  Nothing here goes parallel: within a
    process, concurrent requests share the serving layer's micro-batch
    (one engine pass per batch), and across processes a lake is
    sharded over :mod:`repro.cluster` workers (``thetis cluster``).

    *Thread safety.*  :meth:`search`, :meth:`search_many`,
    :meth:`search_shard_batch`, and :meth:`explain` are safe for
    concurrent reader threads: lazy engine/prefilter construction is
    serialized on an internal lock and the engines' shared caches are
    internally synchronized (see
    :class:`~repro.core.search.TableSearchEngine`).
    The mutating calls (:meth:`add_table`, :meth:`remove_table`,
    :meth:`train_embeddings`) are *not* safe to interleave with
    readers — an online service should mutate a fresh copy and swap it
    in atomically, which is exactly what
    :class:`repro.serve.SnapshotManager` does.

    *Lifecycle.*  :meth:`close` is idempotent and terminal: it marks
    the instance closed, and any subsequent search or mutation raises
    :class:`~repro.exceptions.ThetisClosedError`.
    """

    def __init__(
        self,
        lake: DataLake,
        graph: KnowledgeGraph,
        mapping: EntityMapping,
        embeddings: Optional[EmbeddingStore] = None,
        row_aggregation: RowAggregation = RowAggregation.MAX,
        query_aggregation: QueryAggregation = QueryAggregation.MEAN,
        cache_size: int = DEFAULT_SIMILARITY_CACHE_SIZE,
        engine_kind: str = "vectorized",
        index_dir: Optional[str] = None,
    ):
        if engine_kind not in ENGINE_KINDS:
            raise ConfigurationError(
                f"unknown engine kind {engine_kind!r}: "
                f"use one of {ENGINE_KINDS}"
            )
        if index_dir is not None and engine_kind != "vectorized":
            raise ConfigurationError(
                "index_dir requires engine_kind='vectorized': only the "
                "vectorized kernel has a persistent corpus index"
            )
        self.lake = lake
        self.graph = graph
        self.mapping = mapping
        self.embeddings = embeddings
        self.row_aggregation = row_aggregation
        self.query_aggregation = query_aggregation
        self.cache_size = cache_size
        self.engine_kind = engine_kind
        self.index_dir = index_dir
        # Serializes lazy engine/prefilter construction and lifecycle
        # transitions so concurrent reader threads are safe.
        self._lock = threading.RLock()
        # Built on first use (see `informativeness`): a snapshot clone
        # that is about to be mutated never pays for weights the
        # mutation replaces.
        self._informativeness: Optional[Informativeness] = None  # guarded-by: _lock
        # Every engine, keyed by (task, method); built lazily.  Join has
        # no method: its key is ("join", None).
        self._engines: Dict[Tuple[str, Optional[str]], object] = {}  # guarded-by: _lock
        self._prefilters: Dict[
            Tuple[str, LSHConfig, bool], TablePrefilter
        ] = {}  # guarded-by: _lock
        self._linker = None
        self._closed = False  # guarded-by: _lock
        # Serving counters for the prefilter path; internally
        # synchronized, and shared across snapshot generations by
        # seed_engines_from so /metrics survives copy-and-swap.
        self.prefilter_stats = PrefilterStats()
        # Pass and dedup counters for search_many and
        # search_shard_batch; same sharing discipline as
        # prefilter_stats.
        self.batch_stats = BatchStats()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        # Intentionally racy read: the flag is terminal (False -> True
        # once), so a stale read only delays the ThetisClosedError by
        # one call; taking the lock here would serialize every reader.
        return self._closed  # lint: disable=guarded-attr-outside-lock

    def _check_open(self, operation: str) -> None:
        # Intentionally racy read (see `closed`).
        if self._closed:  # lint: disable=guarded-attr-outside-lock
            raise ThetisClosedError(operation)

    @property
    def informativeness(self) -> Informativeness:
        """The corpus's ``I(e)`` weights; replaced on every mutation."""
        # Intentionally racy read (double-checked locking, see engine()).
        weights = self._informativeness  # lint: disable=guarded-attr-outside-lock
        if weights is None:
            with self._lock:
                if self._informativeness is None:
                    self._informativeness = Informativeness.from_mapping(
                        self.mapping, len(self.lake)
                    )
                weights = self._informativeness
        return weights

    # ------------------------------------------------------------------
    def train_embeddings(self, **overrides) -> EmbeddingStore:
        """Train RDF2Vec embeddings on the KG and attach them.

        Keyword overrides go to :class:`RDF2VecConfig` (``dimensions``,
        ``epochs``, ...).
        """
        from repro.embeddings.rdf2vec import RDF2VecConfig, RDF2VecTrainer

        self._check_open("train_embeddings")
        config = RDF2VecConfig(**overrides)
        self.embeddings = RDF2VecTrainer(self.graph, config).train()
        with self._lock:
            # Everything compiled over the old store goes with it.
            self._engines.pop(("entity", "embeddings"), None)
            self._engines.pop(("union", "embeddings"), None)
            self._prefilters = {
                key: prefilter
                for key, prefilter in self._prefilters.items()
                if key[0] != "embeddings"
            }
        return self.embeddings

    # ------------------------------------------------------------------
    def engine(
        self, method: str = "types"
    ) -> Union[TableSearchEngine, VectorizedTableSearchEngine]:
        """Return (and cache) the ``engine_kind`` engine for ``method``."""
        return self._engine("entity", method)

    def union_engine(self, method: str = "types"):
        """Return (and cache) the vectorized union engine for ``method``.

        ``method`` selects the column encoder: ``"types"`` is the
        SANTOS-like dominant-type encoding (requires the graph),
        ``"embeddings"`` the Starmie-like mean column embedding
        (requires an attached :class:`EmbeddingStore`).
        """
        return self._engine("union", method)

    def join_engine(self):
        """Return (and cache) the vectorized join engine (no method)."""
        return self._engine("join", None)

    def _engine(
        self,
        task: str,
        method: Optional[str],
        sigma: Optional[EntitySimilarity] = None,
    ):
        """The engine serving ``(task, method)``, built on first use.

        A missing entity engine is built over ``sigma`` if given: a
        snapshot clone passes its source's similarity object, which is
        a function of the shared graph or embeddings alone.
        """
        key = (task, None if task == "join" else method)
        # Intentionally racy read (double-checked locking): dict reads
        # are GIL-atomic and the locked path below re-checks.
        engine = self._engines.get(key)  # lint: disable=guarded-attr-outside-lock
        if engine is not None:
            return engine
        with self._lock:
            self._check_open("engine")
            engine = self._engines.get(key)
            if engine is None:
                engine = self._build_engine(task, method, sigma)
                self._engines[key] = engine
            return engine

    def _build_engine(
        self,
        task: str,
        method: Optional[str],
        sigma: Optional[EntitySimilarity],
    ):
        if task == "join":
            return VectorizedJoinSearchEngine(self.lake, self.graph)
        if method not in ("types", "embeddings"):
            raise ConfigurationError(
                f"unknown method {method!r}: use 'types' or 'embeddings'"
            )
        if method == "embeddings" and self.embeddings is None:
            raise ConfigurationError(
                "no embeddings attached; call train_embeddings() or "
                "pass an EmbeddingStore"
            )
        if task == "union":
            return VectorizedUnionSearchEngine(
                self.lake, self.mapping, graph=self.graph,
                store=self.embeddings, column_encoder=method,
            )
        if sigma is None:
            sigma = (
                TypeJaccardSimilarity(self.graph) if method == "types"
                else EmbeddingCosineSimilarity(self.embeddings)
            )
        if self.engine_kind == "scalar":
            return self._scalar_engine(sigma)
        return VectorizedTableSearchEngine(
            self.lake,
            self.mapping,
            sigma,
            informativeness=self.informativeness,
            row_aggregation=self.row_aggregation,
            query_aggregation=self.query_aggregation,
            index_dir=self.index_dir,
        )

    def _scalar_engine(self, sigma: EntitySimilarity) -> TableSearchEngine:
        """The per-cell oracle over ``sigma`` with this instance's settings."""
        return TableSearchEngine(
            self.lake,
            self.mapping,
            sigma,
            informativeness=self.informativeness,
            row_aggregation=self.row_aggregation,
            query_aggregation=self.query_aggregation,
            cache_size=self.cache_size,
        )

    def _check_request(self, mode: str, task: str) -> None:
        if mode not in SEARCH_MODES:
            raise ConfigurationError(
                f"unknown search mode {mode!r}: use one of {SEARCH_MODES}"
            )
        if task not in SEARCH_TASKS:
            raise ConfigurationError(
                f"unknown search task {task!r}: use one of {SEARCH_TASKS}"
            )
        if task != "entity" and mode == "prefilter":
            raise ConfigurationError(
                "LSH prefiltering applies to the entity task only: "
                f"task {task!r} cannot combine with mode='prefilter'"
            )

    def cache_stats(self, method: str = "types") -> Dict[str, CacheStats]:
        """Cache statistics of the engine serving ``method``."""
        return self.engine(method).cache_stats()

    def warm(self, method: str = "types") -> int:
        """Build ``method``'s engine and its scoring state eagerly.

        The vectorized engine compiles (or loads) and compacts its
        index; the scalar engine materializes its per-table views.  A
        serving layer calls this during start-up so its readiness
        probe only flips once the first query would hit warm caches,
        and before every snapshot swap, where it runs any due segment
        compaction off the request path.  Already-constructed union and
        join engines are built and compacted too.  Returns the number of
        tables warmed (the lake size).
        """
        self._check_open("warm")
        warmed = self.engine(method).warm()
        with self._lock:
            task_engines = [
                engine for (task, _), engine in self._engines.items()
                if task != "entity"
            ]
        for task_engine in task_engines:
            task_engine.warm()
        return warmed

    def seed_engines_from(self, other: "Thetis") -> int:
        """Seed this instance's engines from another's warm state.

        ``other`` must be over the same graph and embeddings and the
        same lake and mapping *contents* (the serving layer's clone of
        :meth:`snapshot_inputs`).  Every piece of compiled state the
        source has built is handed over so that applying a mutation
        here costs O(delta) for every task, and the next read finds
        nothing left to rebuild:

        * every kernel engine adopts the source's segmented index
          (immutable segments, shared by reference) with its table
          layout and its verified index/lake mirror; the mutation
          derives its successor.  Entity engines
          also get the source's similarity object, and a scalar one
          its materialized views and shared similarity cache;
        * each LSEI prefilter is forked (copy-on-write) onto this
          instance's mapping, so the incremental ``add_table`` /
          ``remove_table`` maintenance runs here.  A fork keeps the
          scheme of the first build, so the ``types`` scheme's
          ``frequent_types`` filter is frozen across generations —
          what in-process :meth:`add_table` has always done.  Its
          postings are table ordinals, so it is forked only when this
          lake shares the source lake's ordinal space (a
          :meth:`~repro.datalake.lake.DataLake.copy`, as
          :meth:`snapshot_inputs` makes), and otherwise rebuilt on
          first use;
        * the informativeness weights are carried until the mutation
          refreshes them, and so is the label linker (a function of
          the graph alone).

        An engine of another ``engine_kind`` than its source's is not
        seeded.  Returns the number of engines seeded.
        """
        self._check_open("seed_engines_from")
        with other._lock:
            sources = dict(other._engines)
            prefilters = dict(other._prefilters)
        with self._lock:
            self._informativeness = other.informativeness
        self._linker = other._linker
        seeded = 0
        for (task, method), source in sources.items():
            try:
                engine = self._engine(
                    task, method, getattr(source, "sigma", None)
                )
            except ConfigurationError:
                # e.g. the clone has no embeddings attached (yet).
                continue
            if type(engine) is not type(source):
                continue  # another engine_kind: no state in common
            engine.seed_views_from(source)
            seeded += 1
        forks = {
            key: prefilter.fork(self.mapping)
            for key, prefilter in prefilters.items()
            if prefilter.ordinals is self.lake.ordinals
        }
        with self._lock:
            self._prefilters.update(forks)
        # Serving counters continue across the swap: both generations
        # record into the same (thread-safe) stats objects.
        self.prefilter_stats = other.prefilter_stats
        self.batch_stats = other.batch_stats
        return seeded

    def index_stats(self, method: str = "types"):
        """Segment/tombstone/compaction counters for ``method``.

        Peeks at the already-built engine without forcing construction
        (metrics endpoints must not trigger a corpus compile); returns
        ``None`` for scalar engines, unbuilt engines, or a cold index.
        """
        with self._lock:
            engine = self._engines.get(("entity", method))
        if engine is None:
            return None
        stats = getattr(engine, "index_stats", None)
        return stats() if stats is not None else None

    def close(self) -> None:
        """Mark the instance closed.

        Idempotent and terminal: after ``close()`` any search or
        mutation raises :class:`~repro.exceptions.ThetisClosedError`.
        """
        with self._lock:
            self._closed = True

    def __enter__(self) -> "Thetis":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def prefilter(
        self,
        method: str = "types",
        config: LSHConfig = RECOMMENDED_CONFIG,
        column_aggregation: bool = False,
    ) -> TablePrefilter:
        """Return (and cache) the LSEI prefilter for ``method``."""
        key = (method, config, column_aggregation)
        # Intentionally racy read (double-checked locking, see engine()).
        cached = self._prefilters.get(key)  # lint: disable=guarded-attr-outside-lock
        if cached is not None:
            return cached
        with self._lock:
            self._check_open("prefilter")
            cached = self._prefilters.get(key)
            if cached is not None:
                return cached
            return self._build_prefilter(key)

    # Only called from prefilter(), which already holds _lock — the
    # flow-sensitive lock pass proves that, so no pragma is needed.
    def _build_prefilter(
        self, key: Tuple[str, LSHConfig, bool]
    ) -> TablePrefilter:
        # The LSH index loads on the first prefilter read, not at start.
        from repro.lsh.index import TablePrefilter
        from repro.lsh.schemes import (
            EmbeddingSignatureScheme,
            TypeSignatureScheme,
            frequent_types,
        )

        method, config, column_aggregation = key
        if method == "types":
            excluded = frequent_types(
                self.mapping, self.graph, self.lake.table_ids()
            )
            scheme = TypeSignatureScheme(
                self.graph, config.num_vectors, excluded_types=excluded
            )
        elif method == "embeddings":
            if self.embeddings is None:
                raise ConfigurationError(
                    "no embeddings attached; call train_embeddings() first"
                )
            scheme = EmbeddingSignatureScheme(self.embeddings, config.num_vectors)
        else:
            raise ConfigurationError(
                f"unknown method {method!r}: use 'types' or 'embeddings'"
            )
        prefilter = TablePrefilter(
            scheme, config, self.mapping,
            column_aggregation=column_aggregation,
            ordinals=self.lake.ordinals,
        )
        self._prefilters[key] = prefilter
        return prefilter

    # ------------------------------------------------------------------
    def snapshot_inputs(self) -> Tuple[DataLake, EntityMapping]:
        """Independent copies of the mutable inputs for a new instance.

        Tables are immutable-by-convention and shared; the lake is a
        dict copy sharing this lake's table ordinal space (see
        :meth:`DataLake.copy`) and the mapping a copy-on-write copy
        (see :meth:`EntityMapping.copy`), so mutating the copy never
        disturbs searches running against this instance, and the copy
        costs dict copies rather than one set per link.  This is the
        building block of the serving layer's copy-and-swap updates.
        """
        return self.lake.copy(), self.mapping.copy()

    # ------------------------------------------------------------------
    # Dynamic data lake support
    # ------------------------------------------------------------------
    def add_table(self, table, link: bool = True) -> int:
        """Add a table to the lake at runtime; returns links created.

        Matching the data-lake principle that new datasets should be
        ingestible without manual curation (Section 3.2): the table is
        entity-linked automatically, every cached engine and LSEI picks
        it up incrementally, and the informativeness weights are
        refreshed.
        """
        from repro.datalake.table import Table
        from repro.linking.linker import LabelLinker

        self._check_open("add_table")
        if not isinstance(table, Table):
            raise ConfigurationError("add_table expects a Table")
        self.lake.add(table)
        created = 0
        if link:
            if self._linker is None:
                self._linker = LabelLinker(self.graph, fuzzy=False)
            before = len(self.mapping)
            self._linker.link_table(table, self.mapping)
            created = len(self.mapping) - before
        # The lock keeps the invalidation sweep consistent with lazy
        # engine construction racing in from reader threads (the lock
        # is reentrant, so the nested refresh below is fine).
        with self._lock:
            for engine in self._engines.values():
                engine.invalidate_table(table.table_id)
            for prefilter in self._prefilters.values():
                prefilter.add_table(table.table_id)
            self._refresh_informativeness()
        return created

    def remove_table(self, table_id: str) -> None:
        """Remove a table and every trace of it from the search stack."""
        self._check_open("remove_table")
        self.lake.remove(table_id)
        with self._lock:
            # The prefilters read the table's keys from its links, so
            # they go before the mapping forgets them.
            for prefilter in self._prefilters.values():
                prefilter.remove_table(table_id)
            self.mapping.unlink_table(table_id)
            for engine in self._engines.values():
                engine.invalidate_table(table_id)
            self._refresh_informativeness()

    def _refresh_informativeness(self) -> None:
        with self._lock:
            self._informativeness = None
            for (task, _), engine in self._engines.items():
                if task == "entity":
                    engine.informativeness = self.informativeness

    # ------------------------------------------------------------------
    # The one search path
    # ------------------------------------------------------------------
    def _restrictions(
        self,
        queries: Sequence[Query],
        method: str,
        lsh_config: LSHConfig,
        votes: int,
        mode: str,
        task: str,
        shard: Optional[Shard] = None,
    ) -> List[Optional[Shard]]:
        """Validate the request; resolve each query's candidate restriction.

        Per query, one of: ``None`` (the whole lake), the shard, the
        LSH shortlist, or the shortlist intersected with the shard.  A
        shard is a deterministic subset of the lake's tables, given as
        table ids or as sorted table ordinals; the global candidate set
        is the disjoint union of the per-shard intersections, so
        per-shard top-k partials merge to the single-process top-k.

        Restrictions are sorted arrays of the lake's table ordinals
        (:class:`~repro.datalake.lake.TableOrdinals`) for every task:
        the shortlist is :meth:`TablePrefilter.candidate_ordinals`, so
        no table id is touched on the way to the kernel.  Only
        ``mode="prefilter"`` builds shortlists, recording each one's
        reduction into :attr:`prefilter_stats`.
        """
        self._check_request(mode, task)
        if shard is not None and not isinstance(shard, np.ndarray):
            shard = self.lake.ordinals.lookup(shard)
        if not queries or mode != "prefilter":
            return [shard] * len(queries)
        prefilter = self.prefilter(method, lsh_config)
        restrictions: List[Optional[Shard]] = []
        for query in queries:
            shortlist = prefilter.candidate_ordinals(query, votes=votes)
            self.prefilter_stats.record_query(len(self.lake), len(shortlist))
            if shard is not None:
                shortlist = np.intersect1d(
                    shortlist, shard, assume_unique=True
                )
            restrictions.append(shortlist)
        return restrictions

    def _search_batch(
        self,
        queries: List[Query],
        k: int,
        method: str,
        lsh_config: LSHConfig,
        votes: int,
        mode: str,
        task: str,
        shard: Optional[Shard] = None,
        batch_stats: Optional[BatchStats] = None,
    ) -> List[ResultSet]:
        """Every search: restrict candidates, pick the engine, one call.

        A single query is a batch of one and a cluster shard is a
        candidate restriction, so :meth:`search`, :meth:`search_many`
        and :meth:`search_shard_batch` all end in the one
        ``search_batch`` call below.  Per-table scores do not depend on
        which other tables or queries ride the same pass, so every
        caller sees the rankings sequential whole-lake search would
        produce, bit for bit.
        """
        restrictions = self._restrictions(
            queries, method, lsh_config, votes, mode, task, shard
        )
        engine = self._engine(task, method)
        # Only the entity engines take prefilter accounting.
        extra = {"stats": self.prefilter_stats} if mode == "prefilter" else {}
        return engine.search_batch(
            queries, k=k, candidates=restrictions,
            batch_stats=batch_stats, **extra,
        )

    def search(
        self,
        query: Query,
        k: int = 10,
        method: str = "types",
        lsh_config: LSHConfig = RECOMMENDED_CONFIG,
        votes: int = 1,
        mode: str = "exact",
        task: str = "entity",
    ) -> ResultSet:
        """Rank the lake's tables by SemRel against ``query``.

        A batch of one through the one search path
        (:meth:`_search_batch`), whatever the mode.  ``mode="exact"``
        (default) ranks the whole lake and ignores ``votes``.
        ``mode="prefilter"`` runs the Section 6 serving pipeline — LSH
        candidate generation under ``lsh_config`` and ``votes``, then
        the exact top ``k`` of the shortlist — and records reduction,
        shortlist and pruning counters into :attr:`prefilter_stats`.
        The two modes differ in the candidate set only: the vectorized
        engine answers both with the same bound-ordered,
        early-terminating scan, the scalar engine scores every
        candidate.

        ``task`` selects the workload (:data:`SEARCH_TASKS`):
        ``"union"`` ranks by structural unionability, ``"join"`` by
        value-overlap joinability; both run on the vectorized task
        kernels at scalar-baseline parity.  Non-entity tasks are
        exact-mode only.
        """
        self._check_open("search")
        return self._search_batch(
            [query], k, method, lsh_config, votes, mode, task
        )[0]

    def search_many(
        self,
        queries: Dict[str, Query],
        k: int = 10,
        method: str = "types",
        lsh_config: LSHConfig = RECOMMENDED_CONFIG,
        votes: int = 1,
        mode: str = "exact",
        task: str = "entity",
    ) -> Dict[str, ResultSet]:
        """Run a batch of queries; identical to per-query :meth:`search`.

        This is the entry point the serving layer's micro-batcher uses:
        the whole micro-batch is one
        :meth:`~repro.core.kernel.engine.VectorizedTableSearchEngine.
        search_batch` call — duplicates answered once, every job a
        result-memo hit or one pruned top-``k`` scan, jobs that share a
        candidate list sharing the bound pass — while every ranking
        stays bit-identical to a sequential :meth:`search`.
        ``mode="prefilter"`` generates each query's LSH shortlist and
        scans that instead of the lake.  Every engine tallies the batch
        as one pass in :attr:`batch_stats`.  Non-entity
        ``task`` batches ride the task engines' lane-stacked
        ``search_batch``.
        """
        self._check_open("search_many")
        rankings = self._search_batch(
            list(queries.values()), k, method, lsh_config, votes, mode,
            task, batch_stats=self.batch_stats,
        )
        return dict(zip(queries, rankings))

    def search_shard_batch(
        self,
        queries: Sequence[Query],
        shard: Shard,
        k: int = 10,
        method: str = "types",
        lsh_config: LSHConfig = RECOMMENDED_CONFIG,
        votes: int = 1,
        mode: str = "exact",
        task: str = "entity",
    ) -> List[ResultSet]:
        """Score a scattered micro-batch against one shard in one pass.

        The primitive behind :mod:`repro.cluster` workers.  Each worker
        owns a deterministic subset of table ids; scoring that subset
        here and merging per-shard partials with
        :func:`~repro.core.parallel.merge_topk` reproduces the
        single-process :meth:`search` ranking bit for bit, because
        per-table scores do not depend on which other tables are scored
        alongside them.  ``mode="prefilter"`` generates each query's
        LSH shortlist exactly as :meth:`search` would and intersects it
        with ``shard`` before rescoring.  ``shard`` is table ids or their
        sorted ordinals (``lake.ordinals.lookup(ids)``, which a worker
        computes once per routing epoch).
        """
        self._check_open("search_shard_batch")
        return self._search_batch(
            list(queries), k, method, lsh_config, votes, mode, task,
            shard=shard, batch_stats=self.batch_stats,
        )

    def prefilter_recall(
        self,
        query: Query,
        k: int = 10,
        method: str = "types",
        lsh_config: LSHConfig = RECOMMENDED_CONFIG,
        votes: int = 1,
    ) -> float:
        """Recall@k of the prefiltered ranking against the exact one.

        The serving layer's recall guardrail: every Nth prefiltered
        request is cross-checked here — both rankings run, recall@k is
        computed with the exact scores as gains, and the observation
        lands in :attr:`prefilter_stats` (surfaced by ``/metrics`` as
        ``guardrail.mean_recall`` / ``guardrail.min_recall``).
        """
        from repro.eval.metrics import recall_at_k

        self._check_open("prefilter_recall")
        approx = self.search(
            query, k=k, method=method, mode="prefilter",
            lsh_config=lsh_config, votes=votes,
        )
        exact = self.search(query, k=k, method=method)
        gains = {
            table_id: exact.score_of(table_id)
            for table_id in exact.table_ids()
        }
        recall = recall_at_k(approx.table_ids(), gains, k)
        self.prefilter_stats.record_guardrail(recall)
        return recall

    def explain(self, query: Query, table_id: str, method: str = "types"):
        """Explain a table's score: column mapping, rows, weights.

        Returns a :class:`~repro.core.explain.TableExplanation`; call
        its ``render(self.graph)`` for a text report.  Whatever the
        ``engine_kind``, the trail is the scalar oracle's, run on a
        throwaway :class:`~repro.core.search.TableSearchEngine` over the
        served engine's similarity, so no memo outlives the call.
        """
        from repro.core.explain import explain_table

        self._check_open("explain")
        return explain_table(
            self._scalar_engine(self.engine(method).sigma),
            query, self.lake.get(table_id),
        )
