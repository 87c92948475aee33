"""Union and join indexes as segment kinds of ``SegmentedCorpusIndex``.

The union and join engines keep their indexes in the one segment
container the entity engine uses: a mutation compiles a one-table
segment (or writes a tombstone), compaction merges segments, and a read
scores every segment and ranks on the layout's flat table axis.  Two
contracts are pinned here:

* a Hypothesis property over random interleavings of add / remove /
  re-add / compact / unannounced: after every step, union (``types``
  and ``embeddings``) and join (``containment`` and ``jaccard``) rank
  like a cold single-segment compile — ids and score bytes — and like
  the scalar baselines (bit-exact, <= 1e-9 for embeddings), over the
  whole lake and over restricted reads given both as ids and as
  ordinals.  An *unannounced* step adds a table under a new id or
  removes one without ``invalidate_table``: the next read notices that
  the index no longer mirrors the lake and reconciles it.  The mirror
  compares table id sets, as the entity engine's always has, so a
  table replaced in place under the same id still needs
  ``invalidate_table`` (the re-add step issues it);
* a structural test: a mutation compiles only the mutated table and
  shares every other segment of the predecessor by identity.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import JoinTableSearch, UnionTableSearch
from repro.core.kernel import (
    VectorizedJoinSearchEngine,
    VectorizedUnionSearchEngine,
)
from repro.core.kernel import join as join_module
from repro.core.kernel import union as union_module
from repro.datalake import Table
from repro.linking import LabelLinker
from repro.system import Thetis

from tests.test_kernel_union_join import (
    assert_same_ranking,
    make_random_lake,
    random_query,
)
from tests.test_union_scan import GRAPH, STORE

KINDS = (
    ("union", "types"),
    ("union", "embeddings"),
    ("join", "containment"),
    ("join", "jaccard"),
)


def make_engine(kind, lake, mapping):
    task, variant = kind
    if task == "join":
        return VectorizedJoinSearchEngine(lake, GRAPH, mode=variant)
    if variant == "types":
        return VectorizedUnionSearchEngine(lake, mapping, graph=GRAPH)
    return VectorizedUnionSearchEngine(
        lake, mapping, store=STORE, column_encoder="embeddings"
    )


def scalar_ranking(kind, lake, mapping, query):
    task, variant = kind
    if task == "join":
        return JoinTableSearch(lake, mode=variant).search(query, GRAPH)
    if variant == "types":
        return UnionTableSearch(lake, mapping, graph=GRAPH).search(query)
    return UnionTableSearch(
        lake, mapping, store=STORE, column_encoder="embeddings"
    ).search(query)


def exact_pairs(results):
    """Ids and score bytes."""
    return [(scored.table_id, scored.score.hex()) for scored in results]


def fresh_content(rng, table_id):
    source = make_random_lake(rng, tables=1).get("R00")
    return Table(table_id, source.attributes, source.rows)


class Lake:
    """A lake and mapping mutated in place, with every engine over it."""

    def __init__(self, rng, tables):
        self.rng = rng
        self.unannounced = 0
        self.lake = make_random_lake(rng, tables=tables)
        self.mapping = LabelLinker(GRAPH).link_lake(self.lake)
        self.engines = {
            kind: make_engine(kind, self.lake, self.mapping) for kind in KINDS
        }
        for engine in self.engines.values():
            engine.prepare()

    def put(self, table):
        if table.table_id in self.lake:
            self.lake.remove(table.table_id)
            self.mapping.unlink_table(table.table_id)
        self.lake.add(table)
        LabelLinker(GRAPH).link_table(table, self.mapping)
        self.invalidate(table.table_id)

    def drop(self, table_id):
        self.lake.remove(table_id)
        self.mapping.unlink_table(table_id)
        self.invalidate(table_id)

    def invalidate(self, table_id):
        for engine in self.engines.values():
            engine.invalidate_table(table_id)

    def step(self, op, pick):
        ids = self.lake.table_ids()
        if op == "add":
            self.put(fresh_content(self.rng, f"N{pick % 6}"))
        elif op == "readd" and ids:
            self.put(fresh_content(self.rng, ids[pick % len(ids)]))
        elif op == "remove" and ids:
            self.drop(ids[pick % len(ids)])
        elif op == "unannounced":
            # Behind the engines' back: no invalidate_table.
            if pick % 2 and ids:
                victim = ids[pick % len(ids)]
                self.lake.remove(victim)
                self.mapping.unlink_table(victim)
            else:
                self.unannounced += 1
                table = fresh_content(self.rng, f"U{self.unannounced}")
                self.lake.add(table)
                LabelLinker(GRAPH).link_table(table, self.mapping)
        elif op == "compact":
            for engine in self.engines.values():
                if pick % 2:
                    engine.compact()  # the size-tiered policy
                else:
                    engine.adopt_index(
                        engine.index().compacted(self.lake.get)
                    )

    def check(self, queries):
        ids = self.lake.table_ids()
        subset = self.rng.sample(ids, self.rng.randint(0, len(ids)))
        restrictions = [
            None,
            subset + ["unknown"],
            self.lake.ordinals.lookup(subset),
        ]
        for kind, engine in self.engines.items():
            cold = make_engine(kind, self.lake, self.mapping)
            for query in queries:
                scalar = scalar_ranking(kind, self.lake, self.mapping, query)
                assert_same_ranking(
                    engine.search(query), scalar,
                    exact=kind != ("union", "embeddings"),
                )
                for cands in restrictions:
                    for k in (None, 3):
                        got = engine.search(query, k=k, candidates=cands)
                        want = cold.search(query, k=k, candidates=cands)
                        assert exact_pairs(got) == exact_pairs(want)
                # A restricted read is the whole ranking filtered.
                kept = set(subset)
                whole = exact_pairs(engine.search(query))
                assert exact_pairs(engine.search(
                    query, candidates=restrictions[2]
                )) == [pair for pair in whole if pair[0] in kept]
            # The cold reference is one segment with no tombstone.
            assert len(cold.index().segments) <= 1


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    tables=st.integers(0, 8),
    steps=st.lists(
        st.tuples(
            st.sampled_from(
                ["add", "remove", "readd", "compact", "unannounced"]
            ),
            st.integers(0, 50),
        ),
        min_size=1, max_size=10,
    ),
)
def test_interleaved_mutations_rank_like_a_cold_compile(seed, tables, steps):
    rng = random.Random(seed)
    state = Lake(rng, tables)
    queries = [random_query(rng) for _ in range(2)]
    for op, pick in steps:
        state.step(op, pick)
        state.check(queries)
    for engine in state.engines.values():
        index = engine.index()
        assert sorted(index.live_table_ids()) == sorted(
            state.lake.table_ids()
        )


def test_a_mutation_compiles_one_table_and_shares_every_segment(monkeypatch):
    """``invalidate_table`` keeps every segment of the predecessor that
    still holds a live table, by identity, and compiles one table."""
    rng = random.Random(29)
    state = Lake(rng, tables=6)
    compiled = []

    def spy(module, name):
        original = getattr(module, name)

        def counted(tables, *args, **kwargs):
            compiled.append((name, len(tables)))
            return original(tables, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    spy(union_module, "compile_union_index")
    spy(join_module, "compile_join_index")
    mutations = [
        lambda: state.put(fresh_content(rng, "N0")),  # add
        lambda: state.put(fresh_content(rng, "R02")),  # replace
        lambda: state.drop("R04"),  # remove from the first segment
        lambda: state.drop("N0"),  # its one-table segment leaves
    ]
    for mutate in mutations:
        before = {
            kind: state.engines[kind].index() for kind in KINDS
        }
        mutate()
        for kind in KINDS:
            after = state.engines[kind].index()
            assert after is not before[kind]
            live = set(after.live_table_ids())
            kept = [
                segment for segment in before[kind].segments
                if live & set(segment.table_ids)
            ]
            assert all(
                any(segment is shared for shared in after.segments)
                for segment in kept
            )
            assert len(after.segments) - len(kept) <= 1
    assert compiled == [
        (name, 1)
        for _ in range(2)  # the add and the replace
        for name in ("compile_union_index", "compile_union_index",
                     "compile_join_index", "compile_join_index")
    ], compiled


def test_restrictions_reach_every_task_as_ordinals(sports_lake, sports_graph,
                                                   sports_mapping):
    """``search_shard_batch`` hands union and join the ordinal shard a
    worker holds, and ids and ordinals give the same ranking."""
    with Thetis(sports_lake, sports_graph, sports_mapping) as thetis:
        rng = random.Random(31)
        ids = rng.sample(thetis.lake.table_ids(), 5)
        ordinals = thetis.lake.ordinals.lookup(ids)
        assert isinstance(ordinals, np.ndarray)
        query = random_query(rng)
        for task in ("union", "join"):
            by_ids = thetis.search_shard_batch([query], ids, task=task)
            by_ordinals = thetis.search_shard_batch(
                [query], ordinals, task=task
            )
            assert exact_pairs(by_ids[0]) == exact_pairs(by_ordinals[0])
            assert set(by_ids[0].table_ids()) <= set(ids)
