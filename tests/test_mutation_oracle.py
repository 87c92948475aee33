"""Stateful differential oracle for O(delta) mutation of every index.

Two systems are mutated step by step — an in-process ``Thetis``
(``add_table`` / ``remove_table``) and a ``SnapshotManager.apply`` chain
(clone, seed from the live generation, mutate, swap) — and after every
step each must rank like a ``Thetis`` built *cold* over the same lake
and mapping:

* union (``types`` and ``embeddings`` encoders) and join (containment
  and jaccard): identical ids; bit-equal scores for types and join,
  <= 1e-9 for embeddings;
* the exact entity top-k (``k=2``, so the pruned scan and its result
  memo are live, and the whole ranking): ids and scores bit-equal to
  the *scalar* engine over that cold build — the same query is asked
  after every step, so a result memo that outlived its index instance
  would answer with the previous lake;
* ``mode=prefilter``: the ``apply`` chain equals the in-process chain
  (both keep the ``frequent_types`` of their first build, so a cold
  rebuild is not their reference) and never returns a removed table;
* the informativeness weights of every new generation equal, bit for
  bit, ``Informativeness.from_mapping`` over a mapping loaded cold from
  its links, and the generation each ``apply`` retires keeps its
  mapping, weights and prefilter candidates unchanged.

A Hypothesis ``RuleBasedStateMachine`` explores random interleavings;
``test_named_edge_cases`` walks the same harness through the cases a
random walk may miss (a second bitmap word, a vocabulary value that
empties, a table without links, the last table leaving).  The next
test pins an ``EngineSnapshot`` across swaps and checks that the old
generation's arrays are never written; the last counts the mapping
calls of a served swap, none of which may walk every link.
"""

import functools

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.benchgen import WT2015_PROFILE, build_benchmark
from repro.core.kernel import VectorizedJoinSearchEngine
from repro.core.query import Query
from repro.datalake import DataLake, Table
from repro.embeddings import train_rdf2vec
from repro.kg import Entity
from repro.linking import EntityMapping, LabelLinker
from repro.linking.io import mapping_from_dict, mapping_to_dict
from repro.serve.snapshot import SnapshotManager
from repro.similarity.informativeness import Informativeness
from repro.system import Thetis

from tests.conftest import make_sports_graph
from tests.test_kernel_union_join import assert_same_ranking, pairs

K = 64  # above any lake the harness builds: rankings are compared whole

#: Columns of ``WIDE0`` (in the initial lake).  With the sports
#: columns' 10 dominant types that is 60 interned bits: one word.
WIDE0_TYPES = 50
RARE_TYPES = 60


@functools.lru_cache(maxsize=None)
def world():
    """Sports graph plus entities that each carry a type of their own."""
    graph = make_sports_graph()
    for i in range(RARE_TYPES):
        graph.add_entity(
            Entity(f"kg:rare{i}", f"Rare {i}", frozenset({f"Rare{i}"}))
        )
        graph.add_edge(f"kg:rare{i}", "near", f"kg:city{i % 4}")
    store = train_rdf2vec(
        graph, dimensions=8, epochs=1, walks_per_entity=4, seed=1
    )
    return graph, store


def roster(table_id: str, version: int) -> Table:
    shift = sum(map(ord, table_id)) + 7 * version
    rows = [
        [f"Player {(shift + r) % 32}", f"Team {(shift + r) % 8}",
         f"City {(shift + r) % 4}", 2000 + r + version]
        for r in range(2 + version % 3)
    ]
    return Table(table_id, ["Player", "Team", "City", "Year"], rows)


def rare_columns(table_id: str, start: int, stop: int) -> Table:
    names = [f"Rare {i}" for i in range(start, stop)]
    return Table(table_id, [f"c{i}" for i in range(start, stop)], [names])


def make_table(table_id: str, version: int) -> Table:
    """The pool: what ``table_id`` holds in content ``version``."""
    if table_id == "WIDE0":
        return rare_columns(table_id, 0, WIDE0_TYPES)
    if table_id == "WIDE1":
        # Ten more dominant types: the 65th lands in a second word.
        return rare_columns(table_id, WIDE0_TYPES, RARE_TYPES)
    if table_id == "PLAIN":
        # Nothing links; its text is in no other table, so removing it
        # empties vocabulary values.
        return Table(
            table_id, ["note", "n"],
            [[f"only in plain v{version}", version], ["plain text", 1.5]],
        )
    if table_id == "LONG":
        # One cell longer than every value of the initial vocabulary.
        return Table(
            table_id, ["Player", "note"],
            [[f"Player {version}", "a value far longer than " * 3]],
        )
    return roster(table_id, version)


INITIAL_IDS = ("S0", "S1", "S2", "WIDE0")
POOL_IDS = INITIAL_IDS + ("S3", "S4", "WIDE1", "PLAIN", "LONG")

PREFILTER = ("prefilter",)

QUERIES = (
    Query.single("kg:player3"),
    Query.single("kg:player9", "kg:team1", "kg:city1"),
    Query([["kg:rare52", "kg:team2"], ["kg:rare3", "kg:team5"]]),
    Query.single("kg:team0", "kg:rare55"),
)


class Harness:
    """The two derived systems and the checks every step must pass."""

    def __init__(self):
        self.graph, self.store = world()
        self.removed = set()
        self.direct = self._build()
        self.manager = SnapshotManager(self._build(), warm_method="types")
        self.present = {tid: 0 for tid in INITIAL_IDS}
        # Every engine and the prefilter live before the first mutation.
        for thetis in (self.direct, self.manager.current.thetis):
            self._search_everything(thetis, QUERIES[0])

    def _build(self) -> Thetis:
        lake = DataLake(make_table(tid, 0) for tid in INITIAL_IDS)
        mapping = LabelLinker(self.graph, fuzzy=False).link_lake(lake)
        return Thetis(
            lake, self.graph, mapping,
            embeddings=self.store, engine_kind="vectorized",
        )

    def _search_everything(self, thetis: Thetis, query: Query):
        return {
            ("union", "types"): thetis.search(
                query, k=K, task="union", method="types"),
            ("union", "embeddings"): thetis.search(
                query, k=K, task="union", method="embeddings"),
            ("join", "containment"): thetis.search(query, k=K, task="join"),
            ("join", "jaccard"): self._jaccard(thetis, query),
            PREFILTER: thetis.search(query, k=K, mode="prefilter"),
            **self._search_entity(thetis, query),
        }

    @staticmethod
    def _search_entity(thetis: Thetis, query: Query):
        return {
            ("entity", "top2"): thetis.search(query, k=2),
            ("entity", "all"): thetis.search(query, k=K),
        }

    def _jaccard(self, thetis: Thetis, query: Query):
        """Jaccard scoring over ``thetis``'s own join postings."""
        engine = VectorizedJoinSearchEngine(
            thetis.lake, self.graph, mode="jaccard"
        )
        engine.adopt_index(thetis.join_engine().index())
        return engine.search(query, k=K)

    def _weights(self, informativeness) -> dict:
        return {
            uri: informativeness.weight(uri) for uri in self.graph.uris()
        }, len(informativeness)

    def _generation(self, thetis: Thetis):
        """What a reader of ``thetis`` sees of its mapping and weights."""
        prefilter = thetis.prefilter("types")
        return (
            sorted(thetis.mapping.all_links()),
            self._weights(thetis.informativeness),
            [sorted(prefilter.candidate_tables(query)) for query in QUERIES],
        )

    def _apply(self, mutate) -> None:
        """One swap, with the retired generation pinned like a reader."""
        with self.manager.checkout() as held:
            before = self._generation(held.thetis)
            self.manager.apply(mutate)
            assert self._generation(held.thetis) == before
        served = self.manager.current.thetis
        cold = mapping_from_dict(mapping_to_dict(served.mapping))
        assert self._weights(served.informativeness) == self._weights(
            Informativeness.from_mapping(cold, len(served.lake))
        )

    # -- mutations, applied to both systems ----------------------------
    def add(self, table_id: str, version: int) -> None:
        assert table_id not in self.present
        self.direct.add_table(make_table(table_id, version))
        self._apply(
            lambda thetis: thetis.add_table(make_table(table_id, version))
        )
        self.present[table_id] = version
        self.removed.discard(table_id)

    def remove(self, table_id: str) -> None:
        self.direct.remove_table(table_id)
        self._apply(lambda thetis: thetis.remove_table(table_id))
        del self.present[table_id]
        self.removed.add(table_id)

    def readd(self, table_id: str) -> None:
        """Same id, different content; one swap on the apply chain."""
        version = self.present[table_id] + 1
        self.direct.remove_table(table_id)
        self.direct.add_table(make_table(table_id, version))

        def replace(thetis: Thetis) -> None:
            thetis.remove_table(table_id)
            thetis.add_table(make_table(table_id, version))

        self._apply(replace)
        self.present[table_id] = version

    # -- the invariant -------------------------------------------------
    def check(self, query: Query) -> None:
        with self.manager.checkout() as snapshot:
            served = snapshot.thetis
            assert sorted(self.direct.lake.table_ids()) == sorted(self.present)
            assert sorted(served.lake.table_ids()) == sorted(self.present)
            lake, mapping = served.snapshot_inputs()
            cold = Thetis(
                lake, self.graph, mapping,
                embeddings=self.store, engine_kind="vectorized",
            )
            expected = self._search_everything(cold, query)
            with Thetis(lake, self.graph, mapping,
                        engine_kind="scalar") as scalar:
                expected.update(self._search_entity(scalar, query))
            direct = self._search_everything(self.direct, query)
            swapped = self._search_everything(served, query)
            cold.close()
        for key in expected:
            if key == PREFILTER:
                continue
            exact = key != ("union", "embeddings")
            assert_same_ranking(direct[key], expected[key], exact)
            assert_same_ranking(swapped[key], expected[key], exact)
        assert_same_ranking(swapped[PREFILTER], direct[PREFILTER], exact=True)
        assert self.removed.isdisjoint(
            table_id for table_id, _ in pairs(swapped[PREFILTER])
        )

    def close(self) -> None:
        self.direct.close()
        self.manager.close()


class MutationOracle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.harness = Harness()

    @rule(data=st.data(), version=st.integers(0, 3))
    @precondition(lambda self: len(self.harness.present) < len(POOL_IDS))
    def add(self, data, version):
        absent = sorted(set(POOL_IDS) - set(self.harness.present))
        self.harness.add(data.draw(st.sampled_from(absent)), version)

    @rule(data=st.data())
    @precondition(lambda self: self.harness.present)
    def remove(self, data):
        present = sorted(self.harness.present)
        self.harness.remove(data.draw(st.sampled_from(present)))

    @rule(data=st.data())
    @precondition(lambda self: self.harness.present)
    def readd_with_other_content(self, data):
        present = sorted(self.harness.present)
        self.harness.readd(data.draw(st.sampled_from(present)))

    @rule(query=st.sampled_from(QUERIES))
    def search(self, query):
        self.harness.check(query)

    @invariant()
    def derived_state_ranks_like_a_cold_build(self):
        self.harness.check(QUERIES[1])
        self.harness.check(QUERIES[2])

    def teardown(self):
        self.harness.close()


MutationOracle.TestCase.settings = settings(
    max_examples=12, stateful_step_count=10, deadline=None
)
TestMutationOracle = MutationOracle.TestCase


def test_named_edge_cases():
    harness = Harness()
    try:
        def check_all():
            for query in QUERIES:
                harness.check(query)

        union = harness.direct.union_engine("types")
        assert union.index().segments[0].bitmaps.shape[1] == 1
        harness.add("WIDE1", 0)  # the 65th dominant type
        # Its own segment interns its ten types; a merge of every
        # segment interns all 70 types: a second bitmap word.
        union.adopt_index(
            union.index().compacted(harness.direct.lake.get)
        )
        assert union.index().segments[0].bitmaps.shape[1] == 2
        check_all()

        join = harness.direct.join_engine()
        harness.add("PLAIN", 0)  # no links at all
        assert not harness.direct.mapping.entities_in_table("PLAIN")
        assert "only in plain v0" in join.index().segments[-1].vocab
        check_all()
        harness.remove("PLAIN")  # its values leave the vocabulary
        assert not any(
            "only in plain v0" in segment.vocab
            for segment in join.index().segments
        )
        check_all()

        width = max(
            segment.vocab.dtype.itemsize for segment in join.index().segments
        )
        harness.add("LONG", 0)  # wider than the vocabulary's dtype
        assert join.index().segments[-1].vocab.dtype.itemsize > width
        check_all()
        harness.readd("LONG")
        harness.readd("S1")
        check_all()

        for table_id in sorted(harness.present):
            harness.remove(table_id)  # ... down to the last table
            check_all()
        assert len(harness.direct.join_engine().index()) == 0
        harness.add("S3", 2)  # and back up from an empty lake
        check_all()
    finally:
        harness.close()


def test_held_snapshot_is_never_written():
    """A reader pinned before ``apply`` keeps byte-identical state."""
    harness = Harness()
    try:
        with harness.manager.checkout() as held:
            thetis = held.thetis
            union = thetis.union_engine("types").index()
            join = thetis.join_engine().index()
            prefilter = thetis.prefilter("types")

            def layout_state(index):
                layout = index.layout()
                return (
                    layout.table_ids, layout.id_rank.tobytes(),
                    layout.flat_of.tobytes(), layout.live.tobytes(),
                )

            def state():
                return (
                    layout_state(union), layout_state(join),
                    [
                        (
                            tuple(segment.table_ids),
                            segment.bitmaps.tobytes(),
                            segment.sizes.tobytes(), dict(segment.bit_of),
                        )
                        for segment in union.segments
                    ],
                    [
                        (
                            tuple(segment.table_ids),
                            segment.vocab.tobytes(),
                            segment.post_offset.tobytes(),
                            segment.post_cols.tobytes(),
                            segment.col_table.tobytes(),
                            segment.col_sizes.tobytes(),
                        )
                        for segment in join.segments
                    ],
                    [
                        sorted(prefilter.candidate_tables(query))
                        for query in QUERIES
                    ],
                    [pairs(thetis.search(query, k=2)) for query in QUERIES],
                    len(thetis.mapping), thetis.lake.table_ids(),
                )

            before = state()
            harness.add("WIDE1", 0)
            harness.add("LONG", 1)
            harness.remove("S0")
            harness.readd("S1")
            assert harness.manager.version == 4
            assert state() == before
            # ... while the live generation answers from its own lake.
            with harness.manager.checkout() as live:
                assert [
                    pairs(live.thetis.search(query, k=2))
                    for query in QUERIES
                ] != before[-3]
            # The held generation still owns the very same objects.
            assert thetis.union_engine("types").index() is union
            assert thetis.join_engine().index() is join
            assert thetis.prefilter("types") is prefilter
    finally:
        harness.close()


def test_served_swap_walks_no_link(monkeypatch):
    """A swap costs the mutated table, not a pass over every link.

    Every generation is warm (entity index, both prefilter modes, union,
    join, weights) before counting starts; then an add and a remove run
    through ``SnapshotManager.apply`` on a 300-table lake.
    """
    bench = build_benchmark(
        WT2015_PROFILE, num_tables=300, num_query_pairs=1, seed=3
    )
    thetis = Thetis(
        bench.lake, bench.graph, bench.mapping, engine_kind="vectorized"
    )
    query = next(iter(bench.queries.one_tuple.values()))
    thetis.search(query, k=5, mode="prefilter")
    thetis.prefilter("types", column_aggregation=True)
    thetis.search(query, k=5, task="union")
    thetis.search(query, k=5, task="join")
    manager = SnapshotManager(thetis, warm_method="types")
    calls = []
    for name in ("all_links", "tables_with_entity", "entity_tables",
                 "cells_of"):
        original = getattr(EntityMapping, name)

        def counted(self, *args, _name=name, _original=original):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(EntityMapping, name, counted)
    try:
        source = bench.lake.get(bench.lake.table_ids()[0])
        clone = Table("swap-probe", source.attributes, source.rows)
        links = manager.apply(lambda system: system.add_table(clone))
        assert links > 0
        manager.apply(lambda system: system.remove_table("swap-probe"))
        assert calls == []
        assert manager.version == 2
    finally:
        manager.close()
