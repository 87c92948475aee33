"""The union kernel's exact top-k scan against its own full pass.

With a cut-off ``k``, :class:`~repro.core.kernel.union.
VectorizedUnionSearchEngine` verifies tables in descending order of an
upper bound (per query row, the table's best column) and stops once the
k-th exact score clears the next bound.  The contract: its ranking is
the ``k=None`` full ranking truncated to ``k``, bit for bit — ids and
float scores — for both column encoders, every candidate restriction,
lane-stacked batches, and indexes derived by ``with_table`` /
``without_table``.  Pinned cases cover a tie at the cut-off, a bound
loose enough that the scan needs a second chunk, and ``k < 1``.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernel import PrefilterStats, VectorizedUnionSearchEngine
from repro.core.kernel.engine import MIN_PRUNE_CHUNK
from repro.core.query import Query
from repro.datalake import DataLake, Table
from repro.embeddings import train_rdf2vec
from repro.linking import LabelLinker

from tests.conftest import make_sports_graph
from tests.test_kernel_union_join import make_random_lake, pairs, random_query

GRAPH = make_sports_graph()
STORE = train_rdf2vec(
    GRAPH, dimensions=8, epochs=1, walks_per_entity=4, seed=1
)


def make_engine(lake, mapping, encoder):
    if encoder == "types":
        return VectorizedUnionSearchEngine(lake, mapping, graph=GRAPH)
    return VectorizedUnionSearchEngine(
        lake, mapping, store=STORE, column_encoder="embeddings"
    )


def cold_id_rank(table_ids):
    rank = np.empty(len(table_ids), dtype=np.int64)
    rank[sorted(range(len(table_ids)), key=table_ids.__getitem__)] = (
        np.arange(len(table_ids))
    )
    return rank


def restriction(rng, kind, table_ids):
    if kind == "none":
        return None
    if kind == "unknown":
        return ["nope", "missing"] + rng.sample(
            table_ids, min(2, len(table_ids))
        )
    return rng.sample(table_ids, rng.randint(0, len(table_ids)))


def derive(engine, lake, mapping, rng):
    """Re-add one table under new content and drop another: O(delta)."""
    engine.prepare()
    table_ids = lake.table_ids()
    replaced = rng.choice(table_ids)
    lake.remove(replaced)
    mapping.unlink_table(replaced)
    fresh = make_random_lake(rng, tables=1).get("R00")
    table = Table(replaced, fresh.attributes, fresh.rows)
    lake.add(table)
    LabelLinker(GRAPH).link_table(table, mapping)
    engine.invalidate_table(replaced)
    if len(table_ids) > 1:
        dropped = rng.choice([t for t in table_ids if t != replaced])
        lake.remove(dropped)
        mapping.unlink_table(dropped)
        engine.invalidate_table(dropped)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    tables=st.integers(1, 120),
    encoder=st.sampled_from(["types", "embeddings"]),
    kinds=st.lists(
        st.sampled_from(["none", "subset", "unknown"]),
        min_size=1, max_size=4,
    ),
    k=st.integers(1, 15),
    derived=st.booleans(),
)
def test_scan_equals_the_full_ranking_truncated(
    seed, tables, encoder, kinds, k, derived
):
    rng = random.Random(seed)
    lake = make_random_lake(rng, tables=tables)
    mapping = LabelLinker(GRAPH).link_lake(lake)
    engine = make_engine(lake, mapping, encoder)
    if derived:
        derive(engine, lake, mapping, rng)
    layout = engine.index().layout()
    live_ids = [layout.table_ids[position] for position in layout.live]
    assert sorted(live_ids) == sorted(lake.table_ids())
    assert cold_id_rank(layout.id_rank[layout.live].tolist()).tolist() == (
        cold_id_rank(live_ids).tolist()
    )
    queries = [random_query(rng) for _ in kinds]
    cands = [restriction(rng, kind, lake.table_ids()) for kind in kinds]
    # A lane-stacked batch, against the same batch's full pass ...
    full = engine.search_batch(queries, k=None, candidates=cands)
    stats = PrefilterStats()
    scanned = engine.search_batch(
        queries, k=k, candidates=cands, stats=stats
    )
    for got, want in zip(scanned, full):
        assert pairs(got) == pairs(want)[:k]
    # One record per distinct job with a table to rank.
    assert stats.as_dict()["scoring_calls"] == len({
        (q.tuples, None if c is None else tuple(c))
        for q, c in zip(queries, cands)
        if c is None or set(c) & set(lake.table_ids())
    })
    # ... and one query at a time.
    for query, restricted in zip(queries, cands):
        assert pairs(engine.search(query, k=k, candidates=restricted)) == (
            pairs(engine.search(query, candidates=restricted))[:k]
        )


def linked(tables):
    lake = DataLake(tables)
    return lake, LabelLinker(GRAPH).link_lake(lake)


def test_tie_at_the_cut_off_goes_to_the_smaller_ids():
    """Identical tables tie on bound and score: the id order decides,
    across more tables than one verify chunk holds."""
    copies = 2 * MIN_PRUNE_CHUNK + 5
    rows = [["Player 1", "Team 1"], ["Player 2", "Team 2"]]
    # Inserted in descending id order, so position order is id order
    # reversed.
    lake, mapping = linked(
        Table(f"C{i:03d}", ["p", "t"], rows)
        for i in reversed(range(copies))
    )
    engine = make_engine(lake, mapping, "types")
    query = Query([["kg:player5", "kg:team5"]])
    full = engine.search(query)
    assert len({score for _, score in pairs(full)}) == 1
    for k in (1, 5, MIN_PRUNE_CHUNK, MIN_PRUNE_CHUNK + 1, copies + 3):
        got = pairs(engine.search(query, k=k))
        assert got == pairs(full)[:k]
        assert [table_id for table_id, _ in got] == [
            f"C{i:03d}" for i in range(min(k, copies))
        ]


def test_a_loose_bound_takes_a_second_chunk():
    """Two query columns share one best table column: a one-column
    table's bound counts that column twice, so it is twice its score,
    and the true winners wait behind a first chunk of such tables."""
    players = [[f"Player {i}"] for i in range(4)]
    loose = [
        Table(f"L{i:02d}", ["p"], players)
        for i in range(MIN_PRUNE_CHUNK + 8)
    ]
    tight = [
        Table(f"Z{i}", ["p", "q"], [row * 2 for row in players])
        for i in range(5)
    ]
    lake, mapping = linked(loose + tight)
    engine = make_engine(lake, mapping, "types")
    query = Query([["kg:player9", "kg:player10"]])
    stats = PrefilterStats()
    (got,) = engine.search_batch([query], k=3, stats=stats)
    assert pairs(got) == [("Z0", 1.0), ("Z1", 1.0), ("Z2", 1.0)]
    assert pairs(got) == pairs(engine.search(query))[:3]
    assert dict(pairs(engine.search(query)))["L00"] == 0.5
    # The first chunk held loose tables only; the second reached the Zs.
    assert stats.as_dict()["mean_shortlist"] == len(lake)
    assert stats.as_dict()["scored_fraction"] == 1.0


def test_the_scan_stops_early_on_a_tight_bound():
    lake, mapping = linked(
        [Table(f"P{i:02d}", ["p"], [["Player 1"]]) for i in range(3)]
        + [Table(f"T{i:02d}", ["t"], [["Team 1"]])
           for i in range(4 * MIN_PRUNE_CHUNK)]
    )
    engine = make_engine(lake, mapping, "types")
    query = Query([["kg:player3"]])
    stats = PrefilterStats()
    (got,) = engine.search_batch([query], k=1, stats=stats)
    assert pairs(got) == pairs(engine.search(query))[:1]
    summary = stats.as_dict()
    assert summary["early_termination_rate"] == 1.0
    assert summary["scored_fraction"] < 0.5


def test_k_below_one_is_empty():
    lake, mapping = linked(
        [Table("A", ["p"], [["Player 1"]]), Table("B", ["p"], [["Player 2"]])]
    )
    engine = make_engine(lake, mapping, "types")
    query = Query([["kg:player3"]])
    assert len(engine.search(query)) == 2
    stats = PrefilterStats()
    for k in (0, -1):
        assert pairs(engine.search(query, k=k)) == []
        assert [pairs(r) for r in engine.search_batch(
            [query, query], k=k, candidates=[None, ["A"]], stats=stats
        )] == [[], []]
    assert stats.as_dict()["scoring_calls"] == 0
