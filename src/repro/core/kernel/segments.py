"""Segmented corpus index: O(delta) mutations over immutable segments.

A monolithic compiled index covers the whole lake, so every
``add_table`` / ``remove_table`` would pay a full O(lake) recompile
before the next query.  This module applies the Lucene playbook
instead: the corpus is a sequence of immutable compiled *segments* plus
per-segment *tombstone* sets.  One container serves all three tasks; a
segment *kind* is whatever one compile callable (``tables -> segment``)
returns — a :class:`~repro.core.kernel.index.CorpusIndex` for entity
search (its own URI interning, columnar grids, type bitmaps, stacked
embeddings), a :class:`~repro.core.kernel.union.UnionCorpusIndex` or a
:class:`~repro.core.kernel.join.JoinCorpusIndex` — as long as it has
``table_ids`` and a per-table ``has_links`` flag array, which is all the
container and :class:`LakeLayout` read:

* adding a table compiles a single-table segment — O(table);
* removing a table writes a tombstone — O(1), no array is touched;
* replacing a table tombstones the old copy and appends a fresh
  single-table segment;
* a size-tiered compaction policy merges accumulated small segments
  into bigger ones *off the request path* (the engine compacts during
  ``warm()``, which serving snapshots run before the swap), bounding
  both segment count and tombstone debt.

:class:`SegmentedCorpusIndex` is **functional**: every mutation returns
a new instance that shares the untouched segment objects by reference.
That is what makes serving snapshots O(delta) — a clone adopts the
previous generation's index, and the one mutated table costs one
single-table compile while every other segment (arrays, kernels, warm
similarity-row memos) is shared, not copied.  Readers therefore never
need a lock: an engine publishes a new index by swapping one reference.
:class:`SegmentedEngine` is that engine-side lifecycle, written once for
the entity, union and join engines.

Scoring parity with a monolithic recompile is exact: a table's score
depends only on its own columnar block and on ``sigma`` rows restricted
to entities appearing in that table, all of which live in the owning
segment, so per-segment evaluation reproduces the monolithic arithmetic
term for term (bit-exact for type Jaccard, BLAS-order noise within the
engine's 1e-9 budget for cosine).  ``tests/test_core_segments.py`` pins
this with a randomized add/remove/compact property test.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.cache import CacheStats, LRUCache
from repro.exceptions import ConfigurationError
from repro.core.kernel.index import CorpusIndex
from repro.core.query import Query
from repro.core.result import ResultSet
from repro.core.search import aligned_candidates
from repro.datalake.lake import TableOrdinals
from repro.datalake.table import Table
from repro.linking.mapping import EntityMapping
from repro.similarity.base import EntitySimilarity

#: A size tier holds segments with live-table counts in one power-of-4
#: band (1-3, 4-15, 16-63, ...).  When a tier accumulates this many
#: segments they merge into one — the classic size-tiered trade-off:
#: every table is recompiled O(log_4 lake) times over its lifetime, and
#: the steady-state segment count stays O(fanout * log_4 lake).
COMPACTION_FANOUT = 4

#: Hard backstop on segment count: beyond this, compaction merges
#: everything into one segment regardless of tiers.  With tiered merges
#: running on every ``warm()`` this is essentially unreachable; it
#: exists so a pathological mutation burst cannot degrade scoring into
#: thousands of tiny segment passes.
MAX_SEGMENTS = 32

#: Bound of an index instance's memo of finished top-k rankings (see
#: :meth:`SegmentedCorpusIndex.cached_result`).
RESULT_MEMO_SIZE = 512


def _tier_of(live_count: int) -> int:
    """The power-of-4 size tier of a segment with ``live_count`` tables."""
    return (max(int(live_count), 1).bit_length() - 1) // 2


def _merge_cache_stats(parts: Sequence[CacheStats]) -> CacheStats:
    """Aggregate per-segment cache counters into one corpus-wide view."""
    return CacheStats(
        hits=sum(p.hits for p in parts),
        misses=sum(p.misses for p in parts),
        evictions=sum(p.evictions for p in parts),
        size=sum(p.size for p in parts),
        maxsize=sum(p.maxsize for p in parts),
    )


def _segment_bases(segments: Sequence[Any]) -> np.ndarray:
    """Each segment's first flat position, plus the total at the end."""
    sizes = [len(segment.table_ids) for segment in segments]
    return np.concatenate(
        ([0], np.cumsum(np.asarray(sizes, dtype=np.int64)))
    ).astype(np.int64)


@dataclass(frozen=True)
class LakeLayout:
    """One flat table axis over every segment of an index instance.

    Flat position ``seg_base[s] + p`` names table ``p`` of segment
    ``s`` (dead copies included, so a segment's score column drops in
    by slice).  Everything here is a function of the immutable index
    instance, so it is built once per instance, not once per batch —
    and a successor derives it from its parent's (:meth:`successor`):

    * ``table_ids`` — the table id at every flat position;
    * ``flat_of`` — table ordinal (the lake's
      :class:`~repro.datalake.lake.TableOrdinals`) -> flat position of
      its live copy, ``-1`` for none;
    * ``id_rank`` — each position's rank in ascending table-id order,
      so the engine's ``(-score, table_id)`` ranking is one numeric
      ``lexsort`` (live ids are unique, so rank order *is* id order);
    * ``live`` — sorted flat positions of the live tables;
    * ``has_links`` — per flat position, the owning segment's
      ``has_links`` flag: for an entity segment, whether the table
      links at least one entity inside its grid.  A linkless table has
      no similarity signal, so under ``drop_irrelevant`` it can never
      be returned.
    """

    seg_base: np.ndarray
    table_ids: Tuple[str, ...]
    flat_of: np.ndarray
    id_rank: np.ndarray
    live: np.ndarray
    has_links: np.ndarray

    @classmethod
    def build(
        cls,
        segments: Sequence[Any],
        owner: Dict[str, Tuple[int, int]],
        ordinals: TableOrdinals,
    ) -> "LakeLayout":
        """The layout of ``segments`` from scratch (one string sort)."""
        seg_base = _segment_bases(segments)
        bases = seg_base.tolist()
        table_ids = tuple(
            table_id for segment in segments for table_id in segment.table_ids
        )
        live_ordinals = ordinals.intern_all(owner)
        live = np.fromiter(
            (bases[seg_index] + position
             for seg_index, position in owner.values()),
            dtype=np.int64, count=len(owner),
        )
        flat_of = np.full(len(ordinals), -1, dtype=np.int64)
        flat_of[live_ordinals] = live
        id_rank = np.empty(len(table_ids), dtype=np.int64)
        id_rank[
            sorted(range(len(table_ids)), key=table_ids.__getitem__)
        ] = np.arange(len(table_ids), dtype=np.int64)
        has_links = (
            np.concatenate([segment.has_links for segment in segments])
            if segments else np.zeros(0, dtype=bool)
        )
        return cls._sealed(
            seg_base, table_ids, flat_of, id_rank, np.sort(live), has_links
        )

    @classmethod
    def _sealed(cls, seg_base, table_ids, flat_of, id_rank, live,
                has_links) -> "LakeLayout":
        for array in (seg_base, flat_of, id_rank, live, has_links):
            array.setflags(write=False)
        return cls(seg_base, table_ids, flat_of, id_rank, live, has_links)

    def successor(
        self,
        segments: Sequence[Any],
        retired: Optional[int],
        dropped: Optional[int],
        appended: Optional[Tuple[str, int]],
    ) -> "LakeLayout":
        """The layout after one table mutation, without a string sort.

        ``retired`` is the ordinal whose live copy was tombstoned (or
        ``None``); ``dropped`` the index of the segment that left with
        it (or ``None``); ``appended`` the ``(table id, ordinal)`` of a
        single-table segment added last (or ``None``).  ``segments`` are
        the successor's.  Dropping a segment cuts its flat range and
        renumbers what follows; an appended id's rank is the count of
        smaller ids (one O(n) comparison pass) and every rank from it on
        moves up one.  Ranks stay a permutation of the flat positions
        in id order.
        """
        table_ids = self.table_ids
        flat_of = self.flat_of.copy()
        id_rank = self.id_rank
        live = self.live
        has_links = self.has_links
        if retired is not None:
            live = live[live != flat_of[retired]]
            flat_of[retired] = -1
        if dropped is not None:
            lo, hi = self.seg_base[dropped], self.seg_base[dropped + 1]
            cut = np.sort(id_rank[lo:hi])
            table_ids = table_ids[:lo] + table_ids[hi:]
            id_rank = np.delete(id_rank, np.s_[lo:hi])
            id_rank = id_rank - np.searchsorted(cut, id_rank)
            has_links = np.delete(has_links, np.s_[lo:hi])
            live = live - (live >= hi) * (hi - lo)
            flat_of -= (flat_of >= hi) * (hi - lo)
        if appended is not None:
            table_id, ordinal = appended
            position = len(table_ids)
            rank = sum(map(table_id.__gt__, table_ids))
            table_ids = table_ids + (table_id,)
            id_rank = np.append(id_rank + (id_rank >= rank), rank)
            has_links = np.append(has_links, segments[-1].has_links)
            live = np.append(live, position)
            if ordinal >= len(flat_of):
                flat_of = np.pad(
                    flat_of, (0, ordinal + 1 - len(flat_of)),
                    constant_values=-1,
                )
            flat_of[ordinal] = position
        return self._sealed(
            _segment_bases(segments), table_ids, flat_of, id_rank, live,
            has_links,
        )

    def merged(
        self, segments: Sequence[Any], source: np.ndarray
    ) -> "LakeLayout":
        """The layout after a compaction, without a string sort.

        ``source[i]`` is the flat position, in this layout, of the table
        copy at the successor's flat position ``i`` (``segments`` are
        the successor's).  Compaction keeps every live copy and drops
        dead ones only, so the ranks close up over the dropped
        positions.
        """
        moved = np.full(len(self.table_ids), -1, dtype=np.int64)
        moved[source] = np.arange(len(source), dtype=np.int64)
        cut = np.sort(self.id_rank[moved < 0])
        id_rank = self.id_rank[source]
        id_rank = id_rank - np.searchsorted(cut, id_rank)
        flat_of = self.flat_of.copy()
        alive = flat_of >= 0
        flat_of[alive] = moved[flat_of[alive]]
        return self._sealed(
            _segment_bases(segments),
            tuple(map(self.table_ids.__getitem__, source.tolist())),
            flat_of, id_rank, np.sort(moved[self.live]),
            np.concatenate([segment.has_links for segment in segments]),
        )

    def positions(
        self, ordinals: Optional[np.ndarray], linked_only: bool
    ) -> np.ndarray:
        """Sorted flat positions of a candidate restriction.

        ``None`` is the whole lake; otherwise ``ordinals`` (distinct
        table ordinals) select the live tables among them, and any
        without a live copy drop out.  ``linked_only`` keeps linked
        tables only.
        """
        if ordinals is None:
            found = self.live
        else:
            found = self.flat_of[ordinals[ordinals < len(self.flat_of)]]
            found = np.sort(found[found >= 0])
        return found[self.has_links[found]] if linked_only else found

    def segment_slices(
        self, positions: np.ndarray
    ) -> Iterator[Tuple[int, int, int]]:
        """Split sorted flat ``positions`` by owning segment.

        Yields ``(segment index, lo, hi)`` for every segment owning at
        least one of them: ``positions[lo:hi]`` minus the segment's
        base are its in-segment positions, still sorted.
        """
        cuts = np.searchsorted(positions, self.seg_base).tolist()
        for seg_index in range(len(cuts) - 1):
            if cuts[seg_index + 1] > cuts[seg_index]:
                yield seg_index, cuts[seg_index], cuts[seg_index + 1]


@dataclass(frozen=True)
class SegmentedIndexStats:
    """Point-in-time health counters of a segmented index.

    ``tombstones`` counts dead table copies still occupying segment
    rows (compaction reclaims them); ``compactions`` counts merges
    performed over this index's whole mutation lineage.
    """

    segments: int
    live_tables: int
    tombstones: int
    entities: int
    compactions: int

    def as_dict(self) -> Dict[str, int]:
        """JSON-friendly form for the serving metrics endpoint."""
        return {
            "segments": self.segments,
            "live_tables": self.live_tables,
            "tombstones": self.tombstones,
            "entities": self.entities,
            "compactions": self.compactions,
        }


class SegmentedCorpusIndex:
    """An immutable sequence of compiled segments plus tombstones.

    Instances are cheap value objects around shared segment arrays;
    every mutator (:meth:`with_table`, :meth:`without_table`,
    :meth:`maybe_compacted`, :meth:`compacted`) returns a **new**
    instance and never touches the receiver, so a published index can
    be read lock-free while its successor is being prepared.

    The class invariant is that every live table id is owned by exactly
    one ``(segment, position)``: :meth:`with_table` tombstones any
    previous copy before appending, and compaction folds only live
    tables into merged segments.

    ``compile_segment`` (``tables -> segment``) is the segment kind:
    every single-table segment and every compaction merge comes from
    it.
    """

    def __init__(
        self,
        segments: Iterable[Any],
        dead: Iterable[FrozenSet[str]],
        compile_segment: Callable[[Sequence[Table]], Any],
        compactions: int = 0,
        owner: Optional[Dict[str, Tuple[int, int]]] = None,
        ordinals: Optional[TableOrdinals] = None,
        layout: Optional[LakeLayout] = None,
    ):
        self.segments: Tuple[Any, ...] = tuple(segments)
        self.dead: Tuple[FrozenSet[str], ...] = tuple(
            frozenset(dead_set) for dead_set in dead
        )
        if len(self.segments) != len(self.dead):
            raise ConfigurationError(
                "segments and tombstone sets must align: "
                f"{len(self.segments)} != {len(self.dead)}"
            )
        self.compile_segment = compile_segment
        self.compactions = compactions
        # Live table id -> (segment index, position), in scan order (the
        # merge in _merged relies on it).  A successor passes the map it
        # derived from its parent's.
        if owner is None:
            owner = {}
            for seg_index, (segment, dead_set) in enumerate(
                zip(self.segments, self.dead)
            ):
                for position, table_id in enumerate(segment.table_ids):
                    if table_id not in dead_set:
                        owner[table_id] = (seg_index, position)
        self._owner = owner
        # The table id space of the layout's ordinals; a successor
        # passes its parent's, and the layout it derived from the
        # parent's (see _replace).
        self.ordinals = TableOrdinals() if ordinals is None else ordinals
        self._layout = layout
        # Finished top-k rankings of whole-lake queries (see
        # cached_result).  Per instance, so a mutation — which always
        # yields a new instance — starts from an empty memo.
        self._results = LRUCache(RESULT_MEMO_SIZE)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        tables: Iterable[Table],
        compile_segment: Callable[[Sequence[Table]], Any],
        segment_tables: int = 0,
        ordinals: Optional[TableOrdinals] = None,
    ) -> "SegmentedCorpusIndex":
        """Compile tables from scratch into a fresh segmented index.

        ``segment_tables > 0`` pre-splits the corpus into micro-batch
        segments of that many tables (useful to exercise multi-segment
        behavior or bound per-segment compile cost); the default is one
        monolithic segment, which compaction maintains thereafter.
        ``ordinals`` is the table id space of the layout (an engine
        passes its lake's; a private one by default).
        """
        table_list = list(tables)
        if segment_tables > 0:
            chunks = [
                table_list[start:start + segment_tables]
                for start in range(0, len(table_list), segment_tables)
            ]
        else:
            chunks = [table_list] if table_list else []
        segments = [compile_segment(chunk) for chunk in chunks]
        return cls(
            segments, [frozenset()] * len(segments), compile_segment,
            ordinals=ordinals,
        )

    @classmethod
    def compile(
        cls,
        tables: Iterable[Table],
        mapping: EntityMapping,
        sigma: EntitySimilarity,
        segment_tables: int = 0,
        ordinals: Optional[TableOrdinals] = None,
    ) -> "SegmentedCorpusIndex":
        """:meth:`build` of an entity index over ``(mapping, sigma)``."""
        return cls.build(
            tables, partial(CorpusIndex, mapping=mapping, sigma=sigma),
            segment_tables=segment_tables, ordinals=ordinals,
        )

    def _replace(
        self,
        segments: Sequence[Any],
        dead: Sequence[FrozenSet[str]],
        compactions: int,
        owner: Optional[Dict[str, Tuple[int, int]]] = None,
        retired: Optional[str] = None,
        appended: Optional[str] = None,
        source: Optional[np.ndarray] = None,
    ) -> "SegmentedCorpusIndex":
        """Successor instance; drops segments with no live table left.

        ``owner``, when given, is the successor's owner map laid out
        over ``segments`` (the caller's own copy); the live tables of
        segments after a dropped one are renumbered in it.  A one-table
        mutation names the id whose live copy it ``retired`` and the id
        of the single-table segment it ``appended`` last; a compaction
        passes the ``source`` map of :meth:`LakeLayout.merged`.  The
        successor then derives its layout from this instance's, if
        built (:meth:`LakeLayout.successor` / :meth:`~LakeLayout.
        merged`).  Anything else leaves the successor to build its own
        on first use.
        """
        kept = [
            len(dead_set) < len(segment.table_ids)
            for segment, dead_set in zip(segments, dead)
        ]
        if owner is not None:
            shift = 0
            for seg_index, (segment, dead_set, keep) in enumerate(
                zip(segments, dead, kept)
            ):
                if not keep:
                    shift += 1
                    continue
                if not shift:
                    continue
                for position, table_id in enumerate(segment.table_ids):
                    if table_id not in dead_set:
                        owner[table_id] = (seg_index - shift, position)
        successors = [
            segment for segment, keep in zip(segments, kept) if keep
        ]
        layout = None
        mutated = retired is not None or appended is not None
        if self._layout is not None and source is not None:
            layout = self._layout.merged(successors, source)
        elif self._layout is not None and mutated and kept.count(False) <= 1:
            intern = self.ordinals.intern
            layout = self._layout.successor(
                successors,
                None if retired is None else intern(retired),
                kept.index(False) if not all(kept) else None,
                None if appended is None else (appended, intern(appended)),
            )
        return SegmentedCorpusIndex(
            successors,
            [dead_set for dead_set, keep in zip(dead, kept) if keep],
            self.compile_segment,
            compactions=compactions,
            owner=owner,
            ordinals=self.ordinals,
            layout=layout,
        )

    def rebound(
        self,
        compile_segment: Callable[[Sequence[Table]], Any],
        ordinals: Optional[TableOrdinals] = None,
    ) -> "SegmentedCorpusIndex":
        """The same segments bound to another compile callable.

        A serving snapshot clone owns a *copied* mapping; adopting the
        previous generation's index must rebind it so that future
        incremental compiles read the clone's links, not the retired
        generation's.  Segment contents are shared untouched (the copy
        preserves link content, so they remain valid verbatim).
        ``ordinals`` rebinds the table id space too (default: keep this
        one); the layout is carried over unless it changes.
        """
        if ordinals is None:
            ordinals = self.ordinals
        return SegmentedCorpusIndex(
            self.segments,
            self.dead,
            compile_segment,
            compactions=self.compactions,
            owner=self._owner,
            ordinals=ordinals,
            layout=self._layout if ordinals is self.ordinals else None,
        )

    # ------------------------------------------------------------------
    # O(delta) mutations
    # ------------------------------------------------------------------
    def with_table(self, table: Table) -> "SegmentedCorpusIndex":
        """Add (or replace) one table via a single-table segment.

        Cost is O(table) — one small compile — regardless of corpus
        size.  An existing copy of the id is tombstoned first, so the
        one-owner invariant holds.
        """
        table_id = table.table_id
        dead = list(self.dead)
        # dict.copy() clones the hash table even when earlier removals
        # left holes in it; dict(...) would re-insert every entry.
        owner = self._owner.copy()
        previous = owner.pop(table_id, None)
        if previous is not None:
            dead[previous[0]] = dead[previous[0]] | {table_id}
        segment = self.compile_segment([table])
        owner[table_id] = (len(self.segments), 0)
        return self._replace(
            list(self.segments) + [segment],
            dead + [frozenset()],
            self.compactions,
            owner,
            retired=None if previous is None else table_id,
            appended=table_id,
        )

    def without_table(self, table_id: str) -> "SegmentedCorpusIndex":
        """Tombstone one table; no array is recompiled."""
        previous = self._owner.get(table_id)
        if previous is None:
            return self
        dead = list(self.dead)
        dead[previous[0]] = dead[previous[0]] | {table_id}
        owner = self._owner.copy()
        del owner[table_id]
        return self._replace(
            list(self.segments), dead, self.compactions, owner,
            retired=table_id,
        )

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def maybe_compacted(
        self, resolve: Callable[[str], Optional[Table]]
    ) -> "SegmentedCorpusIndex":
        """Apply the size-tiered policy; returns ``self`` when idle.

        ``resolve`` maps a live table id back to its Table (the engine
        passes ``lake.get``); merges recompile from source tables, so a
        group whose table cannot be resolved is left unmerged rather
        than guessed at.  Intended for off-request-path call sites —
        the engine invokes it from ``warm()`` and after reconciliation,
        never per query.
        """
        if not self.segments:
            return self
        live_counts = [
            len(segment.table_ids) - len(dead_set)
            for segment, dead_set in zip(self.segments, self.dead)
        ]
        if len(self.segments) > MAX_SEGMENTS:
            groups = [list(range(len(self.segments)))]
        else:
            tiers: Dict[int, List[int]] = {}
            for seg_index, count in enumerate(live_counts):
                tiers.setdefault(_tier_of(count), []).append(seg_index)
            groups = [
                members
                for _, members in sorted(tiers.items())
                if len(members) >= COMPACTION_FANOUT
            ]
        if not groups:
            return self
        return self._merged(groups, resolve)

    def compacted(
        self, resolve: Callable[[str], Optional[Table]]
    ) -> "SegmentedCorpusIndex":
        """Force-merge everything into (at most) one segment."""
        if len(self.segments) <= 1 and not any(self.dead):
            return self
        return self._merged([list(range(len(self.segments)))], resolve)

    def _merged(
        self,
        groups: Sequence[Sequence[int]],
        resolve: Callable[[str], Optional[Table]],
    ) -> "SegmentedCorpusIndex":
        """Recompile each group's live tables into one merged segment.

        Merged segments take the slot of their group's first member, so
        segment order stays stable for unrelated segments.
        """
        # Flat positions in this layout, when built, of every table a
        # merged segment takes over (see LakeLayout.merged).
        bases = None if self._layout is None else self._layout.seg_base
        replacements: Dict[int, Tuple[Any, List[int]]] = {}
        consumed: Dict[int, int] = {}
        compactions = self.compactions
        for members in groups:
            tables: List[Table] = []
            origins: List[int] = []
            resolved = True
            for seg_index in members:
                segment = self.segments[seg_index]
                dead_set = self.dead[seg_index]
                for position, table_id in enumerate(segment.table_ids):
                    if table_id in dead_set:
                        continue
                    table = resolve(table_id)
                    if table is None or table.table_id != table_id:
                        resolved = False
                        break
                    tables.append(table)
                    if bases is not None:
                        origins.append(int(bases[seg_index]) + position)
                if not resolved:
                    break
            if not resolved:
                continue
            merged = self.compile_segment(tables) if tables else None
            replacements[members[0]] = (merged, origins)
            for seg_index in members:
                consumed[seg_index] = members[0]
            compactions += 1
        if not consumed:
            return self
        segments: List[Any] = []
        dead: List[FrozenSet[str]] = []
        sources: List[np.ndarray] = []
        for seg_index, (segment, dead_set) in enumerate(
            zip(self.segments, self.dead)
        ):
            if seg_index in replacements:
                merged, origins = replacements[seg_index]
                if merged is not None:
                    segments.append(merged)
                    dead.append(frozenset())
                    sources.append(np.asarray(origins, dtype=np.int64))
            elif seg_index not in consumed:
                segments.append(segment)
                dead.append(dead_set)
                if bases is not None:
                    sources.append(np.arange(
                        bases[seg_index], bases[seg_index + 1],
                        dtype=np.int64,
                    ))
        # The owner map is in scan order: the live tables of the
        # segments before the first merged slot lead it, unchanged.
        first = min(consumed)
        owner = dict(islice(self._owner.items(), sum(
            len(segment.table_ids) - len(dead_set)
            for segment, dead_set in zip(self.segments[:first], self.dead)
        )))
        for seg_index in range(first, len(segments)):
            for position, table_id in enumerate(segments[seg_index].table_ids):
                if table_id not in dead[seg_index]:
                    owner[table_id] = (seg_index, position)
        return self._replace(
            segments, dead, compactions, owner,
            source=None if bases is None else np.concatenate(
                sources or [np.zeros(0, dtype=np.int64)]
            ),
        )

    # ------------------------------------------------------------------
    # Read API
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of *live* tables."""
        return len(self._owner)

    def __contains__(self, table_id: str) -> bool:
        return table_id in self._owner

    def live_table_ids(self) -> List[str]:
        """Live table ids in segment scan order."""
        return list(self._owner)

    def mirrors(self, lake_ids: Sequence[str]) -> bool:
        """Whether the live table set equals ``lake_ids`` exactly."""
        owner = self._owner
        return len(lake_ids) == len(owner) and all(
            table_id in owner for table_id in lake_ids
        )

    def locate_position(self, table_id: str) -> Tuple[int, int]:
        """The live ``(segment index, position)`` of a table id."""
        return self._owner[table_id]

    def layout(self) -> LakeLayout:
        """The flat table axis of this instance.

        Derived by the mutation that made the instance when its parent
        had one, else built here on first use.  The unsynchronized memo
        is a benign race: the layout is a pure function of the
        (immutable) instance.
        """
        layout = self._layout
        if layout is None:
            layout = LakeLayout.build(
                self.segments, self._owner, self.ordinals
            )
            self._layout = layout
        return layout

    def cached_result(self, tuples, k: int, token) -> Optional[Any]:
        """Memoized top-``k`` ranking of one whole-lake query.

        A ranking is a pure function of the query's tuples, ``k``, the
        (immutable) index instance and the engine configuration, which
        ``token`` captures: its head, the informativeness object —
        replaced, never mutated, on refresh — is compared by identity,
        the rest (enum and flag settings) by equality.  Mutations need
        no invalidation: :meth:`with_table`, :meth:`without_table`,
        :meth:`rebound` and a merging compaction all return a new
        instance with an empty memo.
        """
        entry = self._results.get((tuples, k))
        if entry is None:
            return None
        stored, result = entry
        if stored[0] is token[0] and stored[1:] == token[1:]:
            return result
        return None

    def store_result(self, tuples, k: int, token, result) -> None:
        """Memoize one whole-lake ranking (see cached_result)."""
        self._results.put((tuples, k), (token, result))

    @property
    def num_entities(self) -> int:
        """Interned entity entries across segments.

        An entity linked in several segments is counted once per
        segment (each segment interns its own URI delta); after full
        compaction this equals the monolithic distinct-entity count.
        Union and join segments intern no entity.
        """
        return sum(
            getattr(segment, "num_entities", 0) for segment in self.segments
        )

    def stats(self) -> SegmentedIndexStats:
        return SegmentedIndexStats(
            segments=len(self.segments),
            live_tables=len(self._owner),
            tombstones=sum(len(dead_set) for dead_set in self.dead),
            entities=self.num_entities,
            compactions=self.compactions,
        )

    def row_cache_stats(self) -> CacheStats:
        """Similarity-row memo counters summed across segments.

        ``size`` and ``maxsize`` are bytes, so the sums are the rows
        held by every segment and their combined ceiling.
        """
        return _merge_cache_stats(
            [segment.row_cache_stats() for segment in self.segments]
        )


class SegmentedEngine:
    """The index lifecycle of every vectorized engine.

    The entity, union and join engines differ in their segment kind
    (:meth:`_compile_segment`) and in how they score; this is the rest:

    * :meth:`index` — built on first use under a lock, then read
      lock-free (an index instance is immutable);
    * :meth:`_read_index` — the index every read scores, checked to
      mirror the lake (:meth:`_mirrors_lake`) and reconciled with it
      (:meth:`_reconcile_index`) when a table joined or left the lake
      behind the engine's back;
    * :meth:`invalidate_table` — a table in the lake gets a one-table
      segment (tombstoning any older copy), a table that left it a
      tombstone; every other segment is shared;
    * :meth:`export_index` / :meth:`adopt_index` /
      :meth:`seed_views_from` — a snapshot clone takes the live
      generation's index by reference, rebound to its own compile
      callable (its own mapping) and table id space, with its verified
      mirror;
    * :meth:`compact` / :meth:`warm` — size-tiered compaction, off the
      request path;
    * :meth:`search` — one query as a micro-batch of one.

    The mirror compares table id sets, so a table replaced in place
    under the same id still needs :meth:`invalidate_table`.

    A subclass sets ``lake`` and calls ``SegmentedEngine.__init__``.
    """

    def __init__(self) -> None:
        self._index_lock = threading.RLock()
        self._index: Optional[SegmentedCorpusIndex] = None  # guarded-by: _index_lock
        # The (index instance, lake version) last verified to mirror
        # each other (see _mirrors_lake).
        self._mirrored: Tuple[Optional[SegmentedCorpusIndex], int] = (
            None, -1
        )

    def _compile_segment(self, tables: Sequence[Table]) -> Any:
        """One segment of this engine's kind over ``tables``."""
        raise NotImplementedError

    def _build_index(self) -> SegmentedCorpusIndex:
        """The whole lake's index; called with the lock held."""
        return SegmentedCorpusIndex.build(
            self.lake, self._compile_segment, ordinals=self.lake.ordinals
        )

    def index(self) -> SegmentedCorpusIndex:
        """The segmented index, built on first use."""
        # Intentionally racy read (double-checked build): an index
        # instance is immutable, so the fast path skips the lock.
        index = self._index  # lint: disable=guarded-attr-outside-lock
        if index is None:
            with self._index_lock:
                if self._index is None:
                    self._index = self._build_index()
                index = self._index
        return index

    def prepare(self) -> None:
        """Build the index now if it never was (server warm-up)."""
        self.index()

    # ------------------------------------------------------------------
    # The index/lake mirror
    # ------------------------------------------------------------------
    def _read_index(self) -> SegmentedCorpusIndex:
        """The index a read scores: :meth:`index`, reconciled with the
        lake when it no longer holds exactly the lake's tables."""
        index = self.index()
        if not self._mirrors_lake(index):
            # The lake changed behind the engine's back; the reconciled
            # index holds exactly the tables it listed.
            index = self._reconcile_index()
        return index

    def _mirrors_lake(self, index: SegmentedCorpusIndex) -> bool:
        """Whether ``index`` holds exactly the lake's tables.

        The check is O(lake), so a pass is remembered as the ``(index
        instance, lake version)`` pair it held for: every
        ``DataLake.add`` / ``remove`` bumps the version, so an unchanged
        lake at an unchanged index is answered in O(1) and a lake
        mutated behind the engine's back is still re-checked.  The
        version is read before the ids, so a racing mutation can only
        make the memo miss, never vouch for a state it did not check.
        """
        version = self.lake.version
        mirrored_index, mirrored_version = self._mirrored
        if mirrored_index is index and mirrored_version == version:
            return True
        if not index.mirrors([table.table_id for table in self.lake]):
            return False
        self._mirrored = (index, version)
        return True

    def _reconcile_index(self) -> SegmentedCorpusIndex:
        """Diff the index's live tables against the lake, apply O(delta).

        Used when a read notices the lake mutated behind the engine's
        back (no ``invalidate_table`` was issued): removed ids are
        tombstoned, new ids get single-table segments, and the result
        is compacted if due — never a full recompile unless the index
        was not built at all.
        """
        with self._index_lock:
            index = self._index
            if index is None:
                index = self._build_index()
            live = set(index.live_table_ids())
            lake_ids = [table.table_id for table in self.lake]
            lake_set = set(lake_ids)
            for table_id in sorted(live - lake_set):
                index = index.without_table(table_id)
            for table_id in lake_ids:
                if table_id not in live:
                    table = self.lake.find(table_id)
                    if table is not None:
                        index = index.with_table(table)
            index = index.maybe_compacted(self.lake.get)
            self._index = index
            return index

    def _carry_mirror(
        self,
        parent: SegmentedCorpusIndex,
        successor: SegmentedCorpusIndex,
        table_id: Optional[str] = None,
    ) -> None:
        """Carry a verified mirror from ``parent`` to ``successor``.

        ``successor`` replaced ``parent`` by one table's change
        (``table_id``) or by compaction (``None``); lock held.
        Compaction keeps the live table set, so a mirror of the lake as
        it stands still holds.  After one table's change, a mirror one
        lake version back still holds if that mutation was this table:
        the sizes pin it down — one add grows both by one only if the
        added table is the one applied, one remove shrinks both only if
        the removed table is.
        """
        version = self.lake.version
        mirrored_index, mirrored_version = self._mirrored
        if mirrored_index is not parent:
            return
        if table_id is None:
            if mirrored_version == version:
                self._mirrored = (successor, version)
        elif (version == mirrored_version + 1
                and len(successor) == len(self.lake)
                and (table_id in successor)
                == (self.lake.find(table_id) is not None)):
            self._mirrored = (successor, version)

    # ------------------------------------------------------------------
    # Mutation, compaction and snapshot hand-over
    # ------------------------------------------------------------------
    def invalidate_table(self, table_id: str) -> None:
        """Apply one table's change to the index in O(delta).

        A never-built index stays unbuilt (nothing to update).
        """
        with self._index_lock:
            parent = self._index
            if parent is None:
                return
            table = self.lake.find(table_id)
            self._index = (
                parent.without_table(table_id) if table is None
                else parent.with_table(table)
            )
            self._carry_mirror(parent, self._index, table_id)

    def compact(self) -> SegmentedIndexStats:
        """Run the size-tiered compaction policy; returns fresh stats.

        Merges recompile from the live lake tables, so this belongs off
        the request path — :meth:`warm` (which serving snapshots run
        before every swap) calls it.  The resulting instance's table
        layout is built here too, not by its first search.
        """
        with self._index_lock:
            if self._index is None:
                self._index = self._build_index()
            parent = self._index
            self._index = parent.maybe_compacted(self.lake.get)
            self._carry_mirror(parent, self._index)
            self._index.layout()
            return self._index.stats()

    def warm(self, table_ids: Optional[Iterable[str]] = None) -> int:
        """Build and compact the index; returns its table count.

        The index always covers the whole lake, so ``table_ids`` does
        not narrow it.
        """
        return self.compact().live_tables

    def adopt_index(self, index: SegmentedCorpusIndex) -> None:
        """Adopt another engine's index by reference.

        The adopted instance is never mutated, so the source keeps
        serving from it while this engine derives its successor.  It is
        rebound to this engine's compile callable, so future compiles
        read this engine's mapping, and to its lake's table id space,
        which keeps the index's layout whenever the source's lake
        shares it (a :meth:`DataLake.copy`).
        """
        with self._index_lock:
            self._index = index.rebound(
                self._compile_segment, ordinals=self.lake.ordinals
            )

    def export_index(self) -> Optional[SegmentedCorpusIndex]:
        """The current index instance, or ``None`` when not yet built."""
        # Intentionally racy read: instances are immutable; a stale
        # reference is simply the previous (still valid) generation.
        return self._index  # lint: disable=guarded-attr-outside-lock

    def index_stats(self) -> Optional[SegmentedIndexStats]:
        """Segment/tombstone/compaction counters (``None`` when cold)."""
        index = self.export_index()
        return index.stats() if index is not None else None

    def seed_views_from(self, source: "SegmentedEngine") -> None:
        """Adopt the source engine's index, if it built one.

        The source's verified mirror travels too: the clone's lake holds
        the source lake's tables (the :meth:`~repro.system.Thetis.
        seed_engines_from` contract), so if the source had checked its
        index against its lake as it stands, the adopted index mirrors
        this lake and the first read lists nothing.
        """
        index = source.export_index()
        if index is not None:
            self.adopt_index(index)
            mirrored_index, version = source._mirrored
            if mirrored_index is index and version == source.lake.version:
                self._mirrored = (self.export_index(), self.lake.version)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def search(
        self,
        query: Query,
        k: Optional[int] = None,
        candidates: Optional[Iterable[str]] = None,
    ) -> ResultSet:
        """:meth:`search_batch` of one query."""
        return self.search_batch([query], k=k, candidates=[candidates])[0]

    def _jobs(
        self,
        queries: Sequence[Any],
        candidates: Optional[Sequence[Optional[Any]]],
        batch_stats=None,
    ) -> Tuple[List[Tuple[Any, Optional[np.ndarray]]], List[int]]:
        """Deduplicate a micro-batch into ``(jobs, fanout)``.

        A job is ``(query, candidates)`` with the candidates as a sorted
        array of distinct table ordinals of the lake (ids are converted
        once, here) or ``None`` for the whole lake; identical jobs are
        answered once, and ``fanout`` maps every input slot to its job.
        ``batch_stats`` records the dispatch.
        """
        queries = list(queries)
        job_of: Dict[Tuple, int] = {}
        jobs: List[Tuple[Any, Optional[np.ndarray]]] = []
        fanout: List[int] = []
        cand_lists = aligned_candidates(queries, candidates)
        for query, cands in zip(queries, cand_lists):
            if cands is not None and not isinstance(cands, np.ndarray):
                cands = self.lake.ordinals.lookup(cands)
            key = (query.tuples, None if cands is None else cands.tobytes())
            slot = job_of.get(key)
            if slot is None:
                slot = len(jobs)
                job_of[key] = slot
                jobs.append((query, cands))
            fanout.append(slot)
        if batch_stats is not None and queries:
            batch_stats.record_batched(len(queries), len(jobs))
        return jobs, fanout


__all__ = [
    "COMPACTION_FANOUT",
    "LakeLayout",
    "MAX_SEGMENTS",
    "SegmentedCorpusIndex",
    "SegmentedEngine",
    "SegmentedIndexStats",
]
