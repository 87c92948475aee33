"""The exact top-k scan of the vectorized engine: parity, worst case, memo.

Every ``search_batch`` job that carries a ``k`` is a bound-ordered,
early-terminating scan (filter by upper bound, verify by exact score);
``k=None`` scores every candidate and is the reference.  The
load-bearing properties:

* *parity* — ``search_batch(k=k)`` equals ``search_batch(k=None)`` then
  ``.top(k)`` bit for bit (ids and scores) over random lakes, both
  similarity families, every aggregation and tuple semantics, every
  kind of candidate restriction, ties at the k-th score that straddle a
  chunk boundary, linkless tables, and a multi-segment index with
  tombstones;
* *worst case* — a query whose bounds all tie still scores every table
  in O(log n) restricted passes and still ranks like the full pass;
* *result memo* — a hit is the miss's ranking, and no mutation,
  merging compaction or informativeness swap ever serves a stale one.
"""

import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import (
    QueryAggregation,
    RowAggregation,
    TupleSemantics,
)
from repro.core.kernel import (
    PrefilterStats,
    SegmentedCorpusIndex,
    VectorizedTableSearchEngine,
)
from repro.core.kernel import engine as engine_module
from repro.core.kernel.segments import COMPACTION_FANOUT
from repro.core.query import Query
from repro.core.search import TableSearchEngine
from repro.datalake import DataLake, Table
from repro.linking import EntityMapping, LabelLinker
from repro.similarity.base import ExactMatchSimilarity
from repro.similarity.informativeness import Informativeness
from repro.similarity.types import TypeJaccardSimilarity
from repro.system import Thetis

from tests.conftest import make_sports_graph, make_sports_lake
from tests.test_core_kernel import (
    ENTITIES,
    TOLERANCE,
    make_lake,
    make_queries,
    make_sigma,
)
from tests.test_kernel_union_join import pairs


def add_twins(rng, lake, mapping, count):
    """Copy ``count`` tables under new ids: equal bounds, equal scores.

    A twin's id sorts right after its source's, so the pair sits side
    by side in bound order and some pair straddles a chunk boundary.
    """
    for source in rng.sample(lake.table_ids(), count):
        table = lake.get(source)
        twin = Table(f"{source}twin", table.attributes, table.rows)
        lake.add(twin)
        for row in range(table.num_rows):
            for column in range(table.num_columns):
                uri = mapping.entity_at(source, row, column)
                if uri is not None:
                    mapping.link(twin.table_id, row, column, uri)


def replacement(rng, table_id):
    """Other content under an existing id (lands in its own segment)."""
    rows = [[f"r{r}", f"s{r}"] for r in range(rng.randint(1, 4))]
    return Table(table_id, ["a0", "a1"], rows)


# ----------------------------------------------------------------------
# Parity: the scan is the full pass, truncated
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    sigma_kind=st.sampled_from(["types", "embeddings"]),
    row_aggregation=st.sampled_from(list(RowAggregation)),
    query_aggregation=st.sampled_from(list(QueryAggregation)),
    tuple_semantics=st.sampled_from(list(TupleSemantics)),
    drop_irrelevant=st.booleans(),
    restriction=st.sampled_from(["none", "shard", "shortlist"]),
    k=st.sampled_from([1, 3, 10, 1000]),
    min_chunk=st.sampled_from([1, 2, 5, 32]),
)
def test_scan_equals_truncated_full_ranking(
    seed, sigma_kind, row_aggregation, query_aggregation, tuple_semantics,
    drop_irrelevant, restriction, k, min_chunk,
):
    rng = random.Random(seed)
    lake, mapping = make_lake(rng, num_tables=rng.randint(6, 24))
    add_twins(rng, lake, mapping, count=4)
    sigma = make_sigma(sigma_kind, rng)
    engine = VectorizedTableSearchEngine(
        lake, mapping, sigma,
        row_aggregation=row_aggregation,
        query_aggregation=query_aggregation,
        tuple_semantics=tuple_semantics,
        drop_irrelevant=drop_irrelevant,
    )
    # Several segments; then the first one takes three tombstones — two
    # removals and a table replaced by a single-table segment — and
    # keeps at least one live table, so it is not dropped.
    engine.adopt_index(SegmentedCorpusIndex.compile(
        lake, mapping, sigma, segment_tables=rng.randint(4, 9)
    ))
    *victims, replaced = rng.sample(lake.table_ids()[:4], 3)
    for victim in victims + [replaced]:
        lake.remove(victim)
        mapping.unlink_table(victim)
        if victim == replaced:
            lake.add(replacement(rng, replaced))
            mapping.link(replaced, 0, 0, rng.choice(ENTITIES))
        engine.invalidate_table(victim)
    stats = engine.index_stats()
    assert stats.segments > 2 and stats.tombstones == 3

    live = lake.table_ids()
    if restriction == "none":
        candidates = None
    elif restriction == "shard":
        # A cluster shard: one id subset shared by the whole batch.
        shard = rng.sample(live, max(1, len(live) // 2))
        candidates = [shard] * 4
    else:
        # LSH shortlists: per query, any order, ghosts and duplicates.
        candidates = [
            [rng.choice(live + ["ghost"])
             for _ in range(rng.randint(0, 2 * len(live)))]
            for _ in range(4)
        ]
    queries = make_queries(rng)
    full = engine.search_batch(queries, k=None, candidates=candidates)
    with mock.patch.object(engine_module, "MIN_PRUNE_CHUNK", min_chunk):
        scanned = engine.search_batch(queries, k=k, candidates=candidates)
        lone = [
            engine.search_candidates(query, cands, k=k)
            for query, cands in zip(queries, candidates or [])
        ]
    for query, got, want in zip(queries, scanned, full):
        assert pairs(got) == pairs(want.top(k)), query
    for got, want in zip(lone, scanned):
        assert pairs(got) == pairs(want)
    if sigma_kind != "types":
        # Cosine rounding may break an assignment tie differently in
        # the scalar engine; that parity has its own suite.
        return
    # Every returned score is the scalar oracle's.  (Ids are compared
    # within the kernel only: the engines agree to 1e-9, not to the
    # ulp, so they may order a near-tie at the cut-off differently.)
    scalar = TableSearchEngine(
        lake, mapping, sigma,
        row_aggregation=row_aggregation,
        query_aggregation=query_aggregation,
        tuple_semantics=tuple_semantics,
        drop_irrelevant=drop_irrelevant,
    )
    for position, (query, got) in enumerate(zip(queries, scanned)):
        want = scalar.search(
            query,
            candidates=None if candidates is None else candidates[position],
        )
        assert len(got) == min(k, len(want))
        for table_id, score in pairs(got):
            assert score == pytest.approx(
                want.score_of(table_id), abs=TOLERANCE
            )


def test_a_table_tying_the_kth_score_is_never_pruned():
    """The stop test is strict, so the id tie-break sees every tie.

    Query ``(e0, e1)``.  ``Z*`` tables hold both entities in *one*
    column: the bound takes both (1.0), the assignment can take one.
    ``A*`` tables hold ``e0`` alone: bound == score == the ``Z`` score,
    bit for bit.  So the loosely bounded ``Z``s are scored first and
    set a k-th score that every ``A`` bound merely equals — and the
    ``A``s, smaller ids all, own the top of the ranking.
    """
    lake, mapping = DataLake(), EntityMapping()
    for index in range(5):
        lake.add(Table(f"Z{index}", ["a"], [["x"], ["y"]]))
        mapping.link(f"Z{index}", 0, 0, "kg:e0")
        mapping.link(f"Z{index}", 1, 0, "kg:e1")
        lake.add(Table(f"A{index}", ["a"], [["x"]]))
        mapping.link(f"A{index}", 0, 0, "kg:e0")
    engine = VectorizedTableSearchEngine(
        lake, mapping, ExactMatchSimilarity()
    )
    query = Query.single("kg:e0", "kg:e1")
    full = engine.search(query, k=None)
    assert [tid for tid, _ in pairs(full)] == sorted(lake.table_ids())
    assert len({score for _, score in pairs(full)}) == 1
    for min_chunk in (1, 2, 3, 32):
        with mock.patch.object(engine_module, "MIN_PRUNE_CHUNK", min_chunk):
            for k in (1, 2, 3, 5, 7, 10, 11):
                # Chunks of max(min_chunk, 2k): the run of ties is cut
                # at a different place for every (min_chunk, k).
                got = engine.search_candidates(query, lake.table_ids(), k=k)
                assert pairs(got) == pairs(full.top(k)), (min_chunk, k)


def test_restricted_jobs_record_real_pruning():
    rng = random.Random(5)
    lake, mapping = make_lake(rng, num_tables=40)
    engine = VectorizedTableSearchEngine(
        lake, mapping, make_sigma("types", rng)
    )
    stats = PrefilterStats()
    with mock.patch.object(engine_module, "MIN_PRUNE_CHUNK", 2):
        engine.search_batch(
            make_queries(rng), k=1, candidates=[lake.table_ids()] * 4,
            stats=stats,
        )
    block = stats.as_dict()
    assert block["scoring_calls"] == 4
    assert block["early_termination_rate"] > 0.0
    assert 0.0 < block["scored_fraction"] < 1.0


# ----------------------------------------------------------------------
# Worst case: bounds that never separate
# ----------------------------------------------------------------------
def test_tied_bounds_cost_a_logarithmic_number_of_passes(monkeypatch):
    """Both query entities sit in *one* column of every table: the
    bound takes both (1.0 everywhere), the assignment can take one, so
    no exact score ever clears a bound and nothing is pruned."""
    tables = 200
    lake, mapping = DataLake(), EntityMapping()
    for index in range(tables):
        table_id = f"T{index:03d}"
        lake.add(Table(table_id, ["a", "b"], [["x", "p"], ["y", "q"]]))
        mapping.link(table_id, 0, 0, "kg:e0")
        mapping.link(table_id, 1, 0, "kg:e1")
        mapping.link(table_id, 0, 1, f"kg:e{2 + index % 5}")
    engine = VectorizedTableSearchEngine(
        lake, mapping, ExactMatchSimilarity()
    )
    query = Query.single("kg:e0", "kg:e1")
    full = engine.search(query, k=None)
    assert len(full) == tables

    passes = []
    segment_tuples = engine._segment_tuples

    def counting(segment, tuples, profile, selection=None, sims_stack=None):
        passes.append(len(selection))
        return segment_tuples(segment, tuples, profile, selection=selection,
                              sims_stack=sims_stack)

    monkeypatch.setattr(engine, "_segment_tuples", counting)
    stats = PrefilterStats()
    got = engine.search_candidates(
        query, lake.table_ids(), k=10, stats=stats
    )
    assert pairs(got) == pairs(full.top(10))
    assert sum(passes) == tables  # every table scored, none twice
    assert len(passes) <= math.ceil(math.log2(tables / 32)) + 1
    assert passes == sorted(passes[:-1]) + passes[-1:]  # doubling chunks
    block = stats.as_dict()
    assert block["scored_fraction"] == 1.0
    assert block["early_termination_rate"] == 0.0


def test_a_scan_stacks_each_query_lane_once_per_segment(monkeypatch):
    """Verify chunks and refine passes reuse the bound pass's lane rows;
    each reuse counts as the row hits a re-read would have counted."""
    lake, mapping = DataLake(), EntityMapping()
    for index in range(120):
        table_id = f"T{index:03d}"
        lake.add(Table(table_id, ["a", "b"], [["x", "p"], ["y", "q"]]))
        mapping.link(table_id, 0, 0, "kg:e0")
        mapping.link(table_id, 1, 0, "kg:e1")
        mapping.link(table_id, 0, 1, f"kg:e{2 + index % 5}")
    engine = VectorizedTableSearchEngine(
        lake, mapping, ExactMatchSimilarity()
    )
    query = Query([("kg:e0", "kg:e1"), ("kg:e2",)])
    full = engine.search(query, k=None)
    (segment,) = engine.index().segments
    stacked, reads = [], []
    lane_rows = type(segment).lane_rows
    monkeypatch.setattr(
        type(segment), "lane_rows",
        lambda self, tuples, profile=None: (
            stacked.append(len(tuples)) or lane_rows(self, tuples, profile)
        ),
    )
    for name in ("_candidate_bounds", "_segment_tuples"):
        method = getattr(engine, name)
        monkeypatch.setattr(engine, name, lambda *args, _m=method, **kw: (
            reads.append(name) or _m(*args, **kw)
        ))
    engine.profile.reset()
    hits = segment.row_cache_stats().hits
    got = engine.search_candidates(query, lake.table_ids(), k=10)
    assert pairs(got) == pairs(full.top(10))
    assert stacked == [2] and len(reads) > 2
    lanes = 3 * len(reads)
    assert engine.profile.similarity_calls == lanes * segment.num_entities
    assert segment.row_cache_stats().hits - hits == lanes


# ----------------------------------------------------------------------
# Result memo
# ----------------------------------------------------------------------
QUERY = Query.single("kg:player31", "kg:team0")
TOP = Table("T99", ["Player", "Team"],
            [["Player 31", "Team 0"], ["Player 23", "Team 0"]])
OTHER = Table("T99", ["City"], [["City 3"]])


def sports_thetis() -> Thetis:
    graph = make_sports_graph()
    lake = make_sports_lake()
    mapping = LabelLinker(graph).link_lake(lake)
    return Thetis(lake, graph, mapping, engine_kind="vectorized")


def cold_ranking(thetis: Thetis, k: int):
    lake, mapping = thetis.snapshot_inputs()
    with Thetis(lake, thetis.graph, mapping, engine_kind="scalar") as cold:
        return cold.search(QUERY, k=k)


def assert_fresh(thetis: Thetis, k: int = 3):
    got, want = thetis.search(QUERY, k=k), cold_ranking(thetis, k)
    assert [tid for tid, _ in pairs(got)] == [tid for tid, _ in pairs(want)]
    for (_, a), (_, b) in zip(pairs(got), pairs(want)):
        assert a == pytest.approx(b, abs=TOLERANCE)
    return got


class TestResultMemo:
    def test_a_hit_is_the_miss(self):
        with sports_thetis() as thetis:
            engine = thetis.engine("types")
            miss = engine.search(QUERY, k=3)
            calls = []
            original = engine._scan
            engine._scan = lambda *args: calls.append(1) or original(*args)
            hit = engine.search(QUERY, k=3)
            assert hit is miss and not calls
            # k is part of the key; restricted jobs never touch the memo.
            assert pairs(engine.search(QUERY, k=2)) == pairs(miss)[:2]
            shard = thetis.lake.table_ids()[:6]
            restricted = engine.search(QUERY, k=3, candidates=shard)
            assert restricted is not engine.search(
                QUERY, k=3, candidates=shard
            )
            assert len(calls) == 3
            assert pairs(hit) == pairs(engine.search(QUERY, k=None).top(3))

    def test_mutations_never_serve_a_stale_entry(self):
        with sports_thetis() as thetis:
            before = assert_fresh(thetis)
            assert "T99" not in before
            thetis.add_table(TOP)
            assert assert_fresh(thetis).table_ids()[0] == "T99"
            thetis.remove_table("T99")
            assert pairs(assert_fresh(thetis)) == pairs(before)
            thetis.add_table(TOP)
            assert_fresh(thetis)
            # Other content under the same id: T99 no longer matches.
            thetis.remove_table("T99")
            thetis.add_table(OTHER)
            assert "T99" not in assert_fresh(thetis)

    def test_a_new_index_instance_is_guard_enough(self):
        """``Thetis`` also swaps the informativeness on every mutation,
        which alone would miss the memo; a bare engine with constant
        weights has only the per-instance memo to rely on."""
        graph = make_sports_graph()
        lake = make_sports_lake()
        linker = LabelLinker(graph)
        mapping = linker.link_lake(lake)
        sigma = TypeJaccardSimilarity(graph)
        engine = VectorizedTableSearchEngine(lake, mapping, sigma)

        def check():
            got = engine.search(QUERY, k=3)
            assert engine.search(QUERY, k=3) is got
            cold = VectorizedTableSearchEngine(lake, mapping, sigma)
            assert pairs(got) == pairs(cold.search(QUERY, k=None).top(3))
            return got

        before = check()
        for table in (TOP, None, TOP, OTHER):
            if "T99" in lake:
                lake.remove("T99")
                mapping.unlink_table("T99")
            if table is not None:
                lake.add(table)
                linker.link_table(table, mapping)
            engine.invalidate_table("T99")
            after = check()
            if table is TOP:
                assert after.table_ids()[0] == "T99"
            else:
                assert pairs(after) == pairs(before)

    def test_a_merging_compaction_starts_an_empty_memo(self):
        with sports_thetis() as thetis:
            engine = thetis.engine("types")
            engine.prepare()  # adds append segments to a built index only
            for index in range(COMPACTION_FANOUT):
                thetis.add_table(Table(
                    f"N{index}", ["Player"], [[f"Player {index}"]]
                ))
            memoized = assert_fresh(thetis)
            index_before = engine.index()
            assert engine.search(QUERY, k=3) is memoized
            compactions = engine.compact().compactions
            assert compactions > index_before.stats().compactions
            assert engine.index() is not index_before
            after = assert_fresh(thetis)
            assert after is not memoized
            assert pairs(after) == pairs(memoized)
            # An idle compaction keeps the instance, and its memo.
            assert engine.compact().compactions == compactions
            assert engine.search(QUERY, k=3) is after

    def test_an_informativeness_swap_misses(self):
        with sports_thetis() as thetis:
            engine = thetis.engine("types")
            query = Query.single("kg:player3", "kg:team1", "kg:city2")
            weighted = engine.search(query, k=5)
            skewed = Informativeness(
                {"kg:player3": 12, "kg:team1": 1, "kg:city2": 5}, 12
            )
            engine.informativeness = skewed
            reference = VectorizedTableSearchEngine(
                thetis.lake, thetis.mapping, engine.sigma,
                informativeness=skewed,
            )
            swapped = engine.search(query, k=5)
            assert pairs(swapped) == pairs(reference.search(query, k=5))
            assert pairs(swapped) != pairs(weighted)


# ----------------------------------------------------------------------
# Concurrent readers share the layout and the result memo
# ----------------------------------------------------------------------
def test_concurrent_scans_match_sequential():
    import sys
    import threading

    rng = random.Random(11)
    lake, mapping = make_lake(rng, num_tables=60)
    sigma = make_sigma("types", rng)
    queries = [
        Query([rng.sample(ENTITIES, rng.randint(1, 3))]) for _ in range(12)
    ]
    reference = VectorizedTableSearchEngine(lake, mapping, sigma)
    expected = [pairs(reference.search(query, k=3)) for query in queries]
    engine = VectorizedTableSearchEngine(lake, mapping, sigma)
    engine.prepare()  # the layout itself is built by the racing readers
    failures = []

    def reader(offset):
        try:
            for step in range(60):
                position = (offset + step) % len(queries)
                got = engine.search_batch(
                    [queries[position], queries[position - 1]], k=3
                )
                if [pairs(result) for result in got] != [
                    expected[position], expected[position - 1]
                ]:
                    failures.append((offset, step))
        except Exception as error:  # surfaced by the assertion below
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with mock.patch.object(engine_module, "MIN_PRUNE_CHUNK", 4):
            threads = [
                threading.Thread(target=reader, args=(offset,))
                for offset in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not failures
