"""Tests for the segmented corpus index lifecycle.

The load-bearing properties:

* *mutation parity* — after any randomized sequence of table adds,
  removals, and compactions, the segmented index scores every table
  exactly like a freshly compiled monolithic index (bit-exact for the
  integer type-Jaccard kernel, <= 1e-9 against the scalar engine);
* *O(delta) updates* — an ``invalidate_table`` compiles exactly one
  table and shares every untouched segment object by reference;
* *tombstones* — removal never recompiles, never resurfaces the table,
  and keeps shared similarity/row memos warm (a removed table's rows
  simply stop being read);
* *persistence* — a save/load round trip through the memmap format
  reproduces every array bit for bit, read-only, and the loader rejects
  version/sigma mismatches and truncated payloads loudly.
"""

import json
import os

import numpy as np
import pytest

from repro.core.kernel import (
    SegmentedCorpusIndex,
    VectorizedTableSearchEngine,
    load_index,
    save_index,
)
from repro.core.kernel.index import CorpusIndex
from repro.core.kernel.storage import (
    ARRAYS_FILENAME,
    HEADER_FILENAME,
    inspect_index,
)
from repro.datalake import Table
from repro.exceptions import IndexStorageError
from repro.linking import EntityMapping
from repro.serve.snapshot import SnapshotManager
from repro.system import Thetis

from tests.test_core_kernel import (
    ENTITIES,
    TOLERANCE,
    engine_pair,
    make_lake,
    make_queries,
    make_sigma,
)

import random


def make_table(rng, table_id):
    """A fresh random table compatible with :func:`make_lake`."""
    columns = rng.randint(1, 4)
    rows = [
        [f"n{r}.{c}" if rng.random() < 0.8 else None
         for c in range(columns)]
        for r in range(rng.randint(1, 5))
    ]
    return Table(table_id, [f"a{c}" for c in range(columns)], rows)


def link_table(rng, mapping, table):
    for r in range(table.num_rows):
        for c in range(table.num_columns):
            if table.rows[r][c] is not None and rng.random() < 0.6:
                mapping.link(table.table_id, r, c, rng.choice(ENTITIES))


def rankings_of(engine, queries):
    return [engine.search(query, k=None) for query in queries]


def assert_ranking_parity(left, right, exact):
    for a, b in zip(left, right):
        scores_a = {s.table_id: s.score for s in a}
        scores_b = {s.table_id: s.score for s in b}
        assert scores_a.keys() == scores_b.keys()
        for table_id, score in scores_a.items():
            delta = abs(score - scores_b[table_id])
            if exact:
                assert delta == 0.0, table_id
            else:
                assert delta <= TOLERANCE, table_id


# ----------------------------------------------------------------------
# Randomized add/remove/compact property parity
# ----------------------------------------------------------------------
class TestMutationParity:
    @pytest.mark.parametrize("sigma_kind", ["types", "embeddings"])
    @pytest.mark.parametrize("seed", [1, 5, 11])
    def test_random_mutation_sequences_keep_parity(self, sigma_kind, seed):
        """Any add/remove/compact interleaving == a fresh full compile.

        Mutations mirror the ``Thetis`` flow exactly: the lake and the
        mapping change first, then ``invalidate_table`` applies the
        O(delta) index update; ``compact()`` runs the off-request-path
        merge policy at arbitrary points.
        """
        rng = random.Random(seed)
        lake, mapping = make_lake(rng, num_tables=10)
        sigma = make_sigma(sigma_kind, rng)
        scalar, vector = engine_pair(lake, mapping, sigma)
        queries = make_queries(rng)
        fresh_counter = 0

        for step in range(12):
            action = rng.choice(["add", "add", "remove", "compact"])
            if action == "add":
                fresh_counter += 1
                table = make_table(rng, f"N{fresh_counter}")
                lake.add(table)
                link_table(rng, mapping, table)
                scalar.invalidate_table(table.table_id)
                vector.invalidate_table(table.table_id)
            elif action == "remove" and len(lake) > 2:
                victim = rng.choice(lake.table_ids())
                lake.remove(victim)
                mapping.unlink_table(victim)
                scalar.invalidate_table(victim)
                vector.invalidate_table(victim)
            elif action == "compact":
                vector.compact()
            if step % 4 != 3:
                continue
            # A monolithic index compiled from the current lake state is
            # the ground truth the mutated segments must reproduce.
            reference = VectorizedTableSearchEngine(lake, mapping, sigma)
            assert_ranking_parity(
                rankings_of(vector, queries),
                rankings_of(reference, queries),
                exact=(sigma_kind == "types"),
            )
            assert_ranking_parity(
                rankings_of(vector, queries),
                rankings_of(scalar, queries),
                exact=False,
            )

        index = vector.index()
        assert index.mirrors(lake.table_ids())
        # Compaction must fully drain tombstones when forced.
        compacted = index.compacted(lake.get)
        assert compacted.stats().tombstones == 0
        assert compacted.mirrors(lake.table_ids())


# ----------------------------------------------------------------------
# Tombstones
# ----------------------------------------------------------------------
class TestTombstones:
    def test_remove_is_tombstone_only_and_readd_works(self):
        rng = random.Random(3)
        lake, mapping = make_lake(rng, num_tables=6)
        sigma = make_sigma("types", rng)
        index = SegmentedCorpusIndex.compile(lake, mapping, sigma)
        base_segment = index.segments[0]

        removed = index.without_table("T1")
        assert "T1" not in removed
        assert "T1" in index  # the receiver is untouched (functional)
        assert removed.segments[0] is base_segment  # no recompile
        assert removed.stats().tombstones == 1
        assert removed.stats().live_tables == len(lake) - 1
        assert "T1" not in removed.live_table_ids()
        with pytest.raises(KeyError):
            removed.locate_position("T1")

        # Tombstoning an unknown id is a no-op returning self.
        assert removed.without_table("nope") is removed

        # Re-adding the id resurrects it through a single-table segment.
        readded = removed.with_table(lake.get("T1"))
        assert "T1" in readded
        assert readded.segments[0] is base_segment
        assert len(readded.segments) == 2
        assert readded.stats().tombstones == 1  # the dead copy remains
        seg_index, position = readded.locate_position("T1")
        assert readded.segments[seg_index] is readded.segments[-1]
        assert readded.segments[seg_index].table_ids[position] == "T1"

    def test_removed_table_never_scores(self):
        rng = random.Random(7)
        lake, mapping = make_lake(rng, num_tables=6)
        sigma = make_sigma("types", rng)
        _, vector = engine_pair(lake, mapping, sigma)
        queries = make_queries(rng)
        before = rankings_of(vector, queries)
        assert any("T0" in {s.table_id for s in r} for r in before)

        lake.remove("T0")
        mapping.unlink_table("T0")
        vector.invalidate_table("T0")
        after = rankings_of(vector, queries)
        for ranking in after:
            assert "T0" not in {s.table_id for s in ranking}

    def test_segment_dropped_once_fully_dead(self):
        rng = random.Random(9)
        lake, mapping = make_lake(rng, num_tables=4)
        sigma = make_sigma("types", rng)
        index = SegmentedCorpusIndex.compile(lake, mapping, sigma)
        index = index.with_table(make_table(rng, "solo"))
        assert len(index.segments) == 2
        # Tombstoning the single-table segment's only table removes the
        # whole segment instead of carrying a fully-dead husk.
        index = index.without_table("solo")
        assert len(index.segments) == 1
        assert index.stats().tombstones == 0

    def test_derived_owner_map_equals_a_fresh_walk(self):
        """Successors derive the owner map and the layout, renumbering
        past a dropped segment."""
        rng = random.Random(13)
        lake, mapping = make_lake(rng, num_tables=6)
        sigma = make_sigma("types", rng)
        index = SegmentedCorpusIndex.compile(
            lake, mapping, sigma, segment_tables=2
        )
        index.layout()
        steps = [
            lambda ix: ix.without_table("T0"),
            lambda ix: ix.with_table(lake.get("T3")),  # replace in place
            lambda ix: ix.without_table("T1"),  # segment 0 leaves
            lambda ix: ix.with_table(make_table(rng, "N1")),
            lambda ix: ix.without_table("T2"),  # the old segment 1 leaves
            lambda ix: ix.rebound(compile_segment=ix.compile_segment),
        ]
        for step in steps:
            index = step(index)
            walked = SegmentedCorpusIndex(
                index.segments, index.dead,
                compile_segment=index.compile_segment,
            )
            assert [
                (table_id, index.locate_position(table_id))
                for table_id in index.live_table_ids()
            ] == [
                (table_id, walked.locate_position(table_id))
                for table_id in walked.live_table_ids()
            ]
            # Every successor derived its layout from its parent's.
            assert index._layout is not None
            assert_layout_is_fresh(index)
        assert len(index.segments) == 3

    @pytest.mark.parametrize("seed", [2, 7, 19, 23])
    def test_derived_layout_equals_a_fresh_build(self, seed):
        """Random add / remove / re-add / compaction: every derived
        layout equals the one a fresh build lays out."""
        rng = random.Random(seed)
        lake, mapping = make_lake(rng, num_tables=8)
        sigma = make_sigma("types", rng)
        index = SegmentedCorpusIndex.compile(
            lake, mapping, sigma, segment_tables=3
        )
        index.layout()
        removed = []
        derived = 0
        for step in range(40):
            action = rng.choice(["add", "add", "remove", "readd", "compact"])
            if action == "add":
                table = make_table(rng, f"N{step}")
                lake.add(table)
                link_table(rng, mapping, table)
                index = index.with_table(table)
            elif action == "remove" and len(lake) > 2:
                victim = rng.choice(lake.table_ids())
                lake.remove(victim)
                mapping.unlink_table(victim)
                removed.append(victim)
                index = index.without_table(victim)
            elif action == "readd" and removed:
                table_id = removed.pop(rng.randrange(len(removed)))
                table = make_table(rng, table_id)
                lake.add(table)
                link_table(rng, mapping, table)
                index = index.with_table(table)
            elif action == "compact":
                index = index.maybe_compacted(lake.get)
            derived += index._layout is not None
            assert_layout_is_fresh(index)
            # The owner map, merges included, is a fresh walk's, in
            # scan order.
            walked = SegmentedCorpusIndex(
                index.segments, index.dead,
                compile_segment=index.compile_segment,
            )
            assert list(index._owner.items()) == list(walked._owner.items())
        assert derived > 20


def assert_layout_is_fresh(index):
    """``index.layout()`` equals a from-scratch build over its segments."""
    from repro.core.kernel.segments import LakeLayout

    layout = index.layout()
    fresh = LakeLayout.build(index.segments, index._owner, index.ordinals)
    assert layout.table_ids == fresh.table_ids
    assert layout.seg_base.tolist() == fresh.seg_base.tolist()
    assert layout.live.tolist() == fresh.live.tolist()
    assert layout.has_links.tolist() == fresh.has_links.tolist()
    # The ordinal map agrees wherever either has room; beyond, no table.
    width = max(len(layout.flat_of), len(fresh.flat_of))
    pad = [np.pad(flat_of, (0, width - len(flat_of)), constant_values=-1)
           for flat_of in (layout.flat_of, fresh.flat_of)]
    assert pad[0].tolist() == pad[1].tolist()
    # Ranks are a permutation, and id order over the live positions.
    assert sorted(layout.id_rank.tolist()) == list(range(len(layout.table_ids)))
    by_rank = sorted(layout.live.tolist(), key=layout.id_rank.__getitem__)
    fresh_by_rank = sorted(fresh.live.tolist(), key=fresh.id_rank.__getitem__)
    assert by_rank == fresh_by_rank


class TestLakeLayout:
    """The per-instance flat table axis the engine ranks over."""

    def test_layout_spans_segments_and_skips_the_dead(self):
        rng = random.Random(13)
        # T3 has no rows and T5 no links: neither can carry a signal.
        lake, mapping = make_lake(rng, num_tables=7)
        sigma = make_sigma("types", rng)
        index = SegmentedCorpusIndex.compile(
            lake, mapping, sigma, segment_tables=3
        )
        # T1's first copy dies; its replacement is a fourth segment.
        index = index.without_table("T4").with_table(lake.get("T1"))
        layout = index.layout()
        assert index.layout() is layout  # built once per instance
        assert layout.seg_base.tolist() == [0, 3, 6, 7, 8]
        assert layout.table_ids == (
            "T0", "T1", "T2", "T3", "T4", "T5", "T6", "T1"
        )
        assert layout.live.tolist() == [0, 2, 3, 5, 6, 7]
        # flat_of maps the ordinal of each live id to its live copy.
        ordinals = index.ordinals
        live_ids = ["T0", "T1", "T2", "T3", "T5", "T6"]
        assert layout.flat_of[
            ordinals.intern_all(live_ids)
        ].tolist() == [0, 7, 2, 3, 5, 6]
        assert np.count_nonzero(layout.flat_of >= 0) == len(live_ids)
        assert layout.has_links.tolist() == [
            True, True, True, False, True, False, True, True
        ]
        # Rank order is id order over the live tables.
        by_rank = sorted(layout.live.tolist(), key=layout.id_rank.__getitem__)
        assert [layout.table_ids[p] for p in by_rank] == sorted(index.live_table_ids())

        # Restrictions are table ordinals: ghosts (no ordinal) drop out
        # at the lookup, the dead T4 and (on request) the linkless T5 in
        # the layout.
        def positions(ids, linked_only):
            return layout.positions(ordinals.lookup(ids), linked_only)

        wanted = ["T6", "ghost", "T1", "T5", "T4", "T6", "T0"]
        assert positions(wanted, False).tolist() == [0, 5, 6, 7]
        assert positions(wanted, True).tolist() == [0, 6, 7]
        assert layout.positions(None, False) is layout.live
        assert layout.positions(None, True).tolist() == [0, 2, 6, 7]
        assert positions([], True).tolist() == []
        # An ordinal past the layout's table space holds no table.
        beyond = np.array([len(layout.flat_of)], dtype=np.int64)
        assert layout.positions(beyond, False).tolist() == []
        assert list(layout.segment_slices(positions(wanted, False))) \
            == [(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 4)]
        assert list(layout.segment_slices(positions(["T2", "T0"], True))) \
            == [(0, 0, 2)]

    def test_mutators_return_instances_with_their_own_memo(self):
        rng = random.Random(17)
        lake, mapping = make_lake(rng, num_tables=5)
        sigma = make_sigma("types", rng)
        index = SegmentedCorpusIndex.compile(lake, mapping, sigma)
        token = (object(), "max")
        index.store_result((("kg:e1",),), 3, token, "ranking")
        assert index.cached_result((("kg:e1",),), 3, token) == "ranking"
        # k and the token are part of the key; the token's head is
        # compared by identity.
        assert index.cached_result((("kg:e1",),), 4, token) is None
        assert index.cached_result(
            (("kg:e1",),), 3, (object(), "max")) is None
        assert index.cached_result(
            (("kg:e1",),), 3, (token[0], "avg")) is None
        for successor in (
            index.without_table("T0"),
            index.with_table(lake.get("T0")),
            index.rebound(compile_segment=index.compile_segment),
            index.without_table("T0").compacted(lake.get),
        ):
            assert successor is not index
            assert successor.cached_result((("kg:e1",),), 3, token) is None
        # No-ops return the receiver, memo and all.
        assert index.without_table("nope") is index
        assert index.maybe_compacted(lake.get) is index


# ----------------------------------------------------------------------
# O(delta): adds compile one table, segments are shared by reference
# ----------------------------------------------------------------------
class TestIncrementalCost:
    def test_add_compiles_exactly_one_table(self, monkeypatch):
        rng = random.Random(13)
        lake, mapping = make_lake(rng, num_tables=8)
        sigma = make_sigma("types", rng)
        _, vector = engine_pair(lake, mapping, sigma)

        compiled_sizes = []
        original = CorpusIndex.__init__

        def spy(self, tables, *args, **kwargs):
            table_list = list(tables)
            compiled_sizes.append(len(table_list))
            original(self, table_list, *args, **kwargs)

        monkeypatch.setattr(CorpusIndex, "__init__", spy)

        first = vector.index()
        assert compiled_sizes == [len(lake)]
        base_segments = first.segments

        table = make_table(rng, "N1")
        lake.add(table)
        link_table(rng, mapping, table)
        vector.invalidate_table("N1")
        second = vector.index()
        # Only the new table was compiled; every prior segment object is
        # shared by reference with the previous generation.
        assert compiled_sizes == [len(lake) - 1, 1]
        assert second.segments[: len(base_segments)] == base_segments
        assert second.segments[0] is base_segments[0]

        lake.remove("T2")
        mapping.unlink_table("T2")
        vector.invalidate_table("T2")
        third = vector.index()
        # Removal is tombstone-only: no compile at all.
        assert compiled_sizes == [len(lake), 1]
        assert third.stats().tombstones == 1

    def test_thetis_mutations_never_trigger_full_recompile(self, monkeypatch):
        """Satellite regression: ``Thetis.add_table``/``remove_table``
        followed by ``search()`` must never recompile the whole corpus —
        the pre-segmentation behavior was a full O(lake) compile on the
        next query after every mutation."""
        rng = random.Random(17)
        lake, mapping = make_lake(rng, num_tables=8)
        from repro.kg.entity import Entity
        from repro.kg.graph import KnowledgeGraph

        graph = KnowledgeGraph()
        for uri in ENTITIES:
            graph.add_entity(Entity(uri, uri, frozenset({"TypeA"})))
        thetis = Thetis(lake, graph, mapping, engine_kind="vectorized")
        query = make_queries(rng)[0]
        thetis.search(query, k=5)

        compiled_sizes = []
        original = CorpusIndex.__init__

        def spy(self, tables, *args, **kwargs):
            table_list = list(tables)
            compiled_sizes.append(len(table_list))
            original(self, table_list, *args, **kwargs)

        monkeypatch.setattr(CorpusIndex, "__init__", spy)

        table = make_table(rng, "added-1")
        thetis.add_table(table)
        thetis.search(query, k=5)
        assert compiled_sizes == [1], (
            "add_table recompiled more than the added table: "
            f"{compiled_sizes}"
        )

        thetis.remove_table("T1")
        thetis.search(query, k=5)
        assert compiled_sizes == [1], (
            f"remove_table triggered a recompile: {compiled_sizes}"
        )
        index = thetis.engine("types").export_index()
        assert "added-1" in index and "T1" not in index
        thetis.close()

    def test_snapshot_swaps_rebuild_no_index(self, monkeypatch):
        """The same guarantee for every index a served mutation meets:
        with the entity, union and join engines and the LSEI prefilter
        live, three ``SnapshotManager.apply`` swaps (and the reads after
        them) build no prefilter and compile one table per task at most,
        never the whole lake — each new generation derives its indexes
        from the live one."""
        from repro.core.kernel import join as join_module
        from repro.core.kernel import union as union_module
        from repro.core.query import Query
        from repro.kg.entity import Entity
        from repro.kg.graph import KnowledgeGraph
        from repro.lsh.index import TablePrefilter

        rng = random.Random(19)
        lake, mapping = make_lake(rng, num_tables=8)
        graph = KnowledgeGraph()
        for uri in ENTITIES:
            graph.add_entity(Entity(uri, uri, frozenset({"TypeA", uri})))
        query = Query.single(ENTITIES[0], ENTITIES[1])

        def read_everything(thetis):
            thetis.search(query, k=5)
            thetis.search(query, k=5, mode="prefilter")
            thetis.search(query, k=5, task="union")
            thetis.search(query, k=5, task="join")

        thetis = Thetis(lake, graph, mapping, engine_kind="vectorized")
        read_everything(thetis)
        manager = SnapshotManager(thetis, warm_method="types")

        calls = []

        def counted(owner, name, label):
            original = getattr(owner, name)

            def spy(*args, **kwargs):
                calls.append(label)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, spy)

        def sized(owner, name, label):
            original = getattr(owner, name)

            def spy(tables, *args, **kwargs):
                calls.append(f"{label} of {len(tables)}")
                return original(tables, *args, **kwargs)

            monkeypatch.setattr(owner, name, spy)

        sized(union_module, "compile_union_index", "union compile")
        sized(join_module, "compile_join_index", "join compile")
        counted(TablePrefilter, "_build", "prefilter build")
        counted(TablePrefilter, "__init__", "prefilter constructed")
        counted(CorpusIndex, "__init__", "entity segment compile")
        try:
            table = make_table(rng, "added-1")
            mutations = [
                lambda system: system.add_table(table),
                lambda system: system.remove_table("T1"),
                lambda system: system.remove_table("added-1"),
            ]
            for mutate in mutations:
                manager.apply(mutate)
                with manager.checkout() as snapshot:
                    # Its first prefilter read included: the generation
                    # holds a fork of the LSEI the mutation maintained.
                    read_everything(snapshot.thetis)
                    for task_engine in (
                        snapshot.thetis.union_engine("types"),
                        snapshot.thetis.join_engine(),
                    ):
                        assert sorted(
                            task_engine.index().live_table_ids()
                        ) == sorted(snapshot.thetis.lake.table_ids())
            # Only the added table's one-table segments compiled.
            assert calls == [
                "entity segment compile",
                "union compile of 1",
                "join compile of 1",
            ], calls
        finally:
            manager.close()

    def test_similarity_cache_and_memos_survive_removal(self):
        """Satellite: remove_table drops nothing an alive table needs.

        The pairwise similarity cache is keyed by URI pairs (table
        independent), and the per-segment row memos live on
        segments that removal shares untouched — so re-running the same
        queries after a removal must add *zero* new memo misses while
        the hit counters keep climbing.
        """
        rng = random.Random(21)
        lake, mapping = make_lake(rng, num_tables=8)
        sigma = make_sigma("types", rng)
        scalar, vector = engine_pair(lake, mapping, sigma)
        queries = make_queries(rng)

        rankings_of(scalar, queries)
        rankings_of(vector, queries)
        scalar_cache_len = len(scalar.similarity_cache)
        assert scalar_cache_len > 0
        index = vector.index()
        row_before = index.row_cache_stats()

        lake.remove("T4")
        mapping.unlink_table("T4")
        scalar.invalidate_table("T4")
        vector.invalidate_table("T4")

        rankings_of(scalar, queries)
        rankings_of(vector, queries)
        # Pairwise entries are (uri, uri)-keyed: none referenced the
        # removed table, so none was dropped and none re-computed.
        assert len(scalar.similarity_cache) == scalar_cache_len
        row_after = vector.index().row_cache_stats()
        assert row_after.misses == row_before.misses
        # Re-running the same queries over the shared segments must be
        # pure row-memo hits.
        assert row_after.hits > row_before.hits


# ----------------------------------------------------------------------
# Persistence: memmap save -> load round trip
# ----------------------------------------------------------------------
ARRAY_NAMES = (
    "table_rows", "table_columns", "col_offset", "row_offset",
    "flat_ids", "col_start", "nnz_gcolumns", "nnz_gids", "nnz_gcounts",
    "nnz_toffset",
)


class TestStorageRoundTrip:
    def _mutated_index(self, rng, lake, mapping, sigma):
        index = SegmentedCorpusIndex.compile(
            lake, mapping, sigma, segment_tables=3
        )
        extra = make_table(rng, "X1")
        lake.add(extra)
        link_table(rng, mapping, extra)
        index = index.with_table(extra)
        index = index.without_table("T2")
        return index

    @pytest.mark.parametrize("sigma_kind", ["types", "embeddings",
                                            "exact", "combo"])
    def test_round_trip_is_bit_identical(self, sigma_kind, tmp_path):
        rng = random.Random(31)
        lake, mapping = make_lake(rng, num_tables=8)
        sigma = make_sigma(sigma_kind, rng)
        index = self._mutated_index(rng, lake, mapping, sigma)

        summary = save_index(index, tmp_path)
        assert summary["segments"] == len(index.segments)
        loaded = load_index(tmp_path, sigma, mapping)

        assert loaded.live_table_ids() == index.live_table_ids()
        assert loaded.dead == index.dead
        assert loaded.compactions == index.compactions
        for original, mapped in zip(index.segments, loaded.segments):
            assert original.table_ids == mapped.table_ids
            assert original.uris == mapped.uris
            for name in ARRAY_NAMES:
                left = getattr(original, name)
                right = getattr(mapped, name)
                assert left.dtype == right.dtype, name
                assert np.array_equal(left, right), name
                # Memmapped arrays must be served read-only.
                assert not right.flags.writeable, name

        queries = make_queries(rng)
        original_engine = VectorizedTableSearchEngine(lake, mapping, sigma)
        original_engine.adopt_index(index)
        loaded_engine = VectorizedTableSearchEngine(lake, mapping, sigma)
        loaded_engine.adopt_index(loaded)
        assert_ranking_parity(
            rankings_of(original_engine, queries),
            rankings_of(loaded_engine, queries),
            exact=True,
        )

    def test_inspect_matches_stats(self, tmp_path):
        rng = random.Random(33)
        lake, mapping = make_lake(rng, num_tables=6)
        sigma = make_sigma("types", rng)
        index = self._mutated_index(rng, lake, mapping, sigma)
        save_index(index, tmp_path)
        summary = inspect_index(tmp_path, verify=True)
        stats = index.stats()
        assert summary["segments"] == stats.segments
        assert summary["live_tables"] == stats.live_tables
        assert summary["entities"] == stats.entities
        assert summary["verified"] is True

    def test_empty_lake_round_trips(self, tmp_path):
        mapping = EntityMapping()
        sigma = make_sigma("types", random.Random(1))
        index = SegmentedCorpusIndex.compile([], mapping, sigma)
        save_index(index, tmp_path)
        loaded = load_index(tmp_path, sigma, mapping)
        assert len(loaded) == 0
        assert loaded.segments == ()


class TestStorageErrors:
    def _saved(self, tmp_path, sigma_kind="types", seed=41):
        rng = random.Random(seed)
        lake, mapping = make_lake(rng, num_tables=6)
        sigma = make_sigma(sigma_kind, rng)
        index = SegmentedCorpusIndex.compile(lake, mapping, sigma)
        save_index(index, tmp_path)
        return lake, mapping, sigma

    def test_missing_directory_raises(self, tmp_path):
        mapping = EntityMapping()
        sigma = make_sigma("types", random.Random(1))
        with pytest.raises(IndexStorageError):
            load_index(tmp_path / "nowhere", sigma, mapping)

    def test_version_mismatch_raises(self, tmp_path):
        _, mapping, sigma = self._saved(tmp_path)
        header_path = tmp_path / HEADER_FILENAME
        header = json.loads(header_path.read_text())
        header["version"] = 999
        header_path.write_text(json.dumps(header))
        with pytest.raises(IndexStorageError):
            load_index(tmp_path, sigma, mapping)

    def test_sigma_mismatch_raises(self, tmp_path):
        _, mapping, _ = self._saved(tmp_path, sigma_kind="types")
        other = make_sigma("embeddings", random.Random(2))
        with pytest.raises(IndexStorageError):
            load_index(tmp_path, other, mapping)

    def test_truncated_payload_raises(self, tmp_path):
        _, mapping, sigma = self._saved(tmp_path)
        arrays_path = tmp_path / ARRAYS_FILENAME
        size = os.path.getsize(arrays_path)
        with open(arrays_path, "r+b") as handle:
            handle.truncate(size // 2)
        with pytest.raises(IndexStorageError):
            load_index(tmp_path, sigma, mapping)
        with pytest.raises(IndexStorageError):
            inspect_index(tmp_path, verify=True)


# ----------------------------------------------------------------------
# Serving snapshots share segments across generations
# ----------------------------------------------------------------------
class TestSnapshotSharing:
    def test_clone_shares_unchanged_segments(self):
        rng = random.Random(51)
        lake, mapping = make_lake(rng, num_tables=8)
        # Thetis needs a graph; MappingTypeSimilarity does not, so run
        # the snapshot flow over a minimal in-memory graph instead.
        from repro.kg.entity import Entity
        from repro.kg.graph import KnowledgeGraph

        graph = KnowledgeGraph()
        for uri in ENTITIES:
            graph.add_entity(Entity(uri, uri, frozenset({"TypeA"})))
        thetis = Thetis(lake, graph, mapping, engine_kind="vectorized")
        manager = SnapshotManager(thetis, warm_method="types")
        try:
            thetis.warm("types")
            base_index = thetis.engine("types").export_index()
            assert base_index is not None
            base_segment = base_index.segments[0]

            table = make_table(rng, "fresh-1")
            manager.apply(lambda system: system.add_table(table))

            with manager.checkout() as snapshot:
                engine = snapshot.thetis.engine("types")
                index = engine.export_index()
                assert index is not None
                assert "fresh-1" in index
                # The previous generation's compiled segment is adopted
                # by reference — the swap cost only the one-table delta.
                assert base_segment in index.segments
                assert index.segments[0] is base_segment

            manager.apply(lambda system: system.remove_table("T0"))
            with manager.checkout() as snapshot:
                index = snapshot.thetis.engine("types").export_index()
                assert "T0" not in index
                assert base_segment in index.segments
        finally:
            manager.close()
