"""Contract tests for :func:`repro.core.parallel.merge_topk`.

Merging per-shard top-k partials of disjoint shards must reproduce the
single-process ranking bit for bit (ids, scores, tie-breaks); cluster
correctness rests on it.
"""

import pytest

from repro.core import Query, TableSearchEngine, merge_topk
from repro.similarity import Informativeness, TypeJaccardSimilarity


@pytest.fixture()
def engine(sports_lake, sports_mapping, sports_graph):
    return TableSearchEngine(
        sports_lake,
        sports_mapping,
        TypeJaccardSimilarity(sports_graph),
        informativeness=Informativeness.from_mapping(
            sports_mapping, len(sports_lake)
        ),
    )


QUERIES = [
    Query.single("kg:player0", "kg:team0", "kg:city0"),
]


class TestMergeTopk:
    """The partial merge of the cluster coordinator's scatter-gather
    path."""

    def test_merges_and_orders_by_score_then_id(self):
        merged = merge_topk(
            [[(0.5, "b"), (0.25, "c")], [(0.75, "a"), (0.5, "aa")]]
        )
        assert merged == [
            (0.75, "a"), (0.5, "aa"), (0.5, "b"), (0.25, "c")
        ]

    def test_empty_partials_are_neutral(self):
        partial = [(1.0, "a"), (0.5, "b")]
        assert merge_topk([[], partial, []]) == merge_topk([partial])
        assert merge_topk([]) == []
        assert merge_topk([[], []]) == []

    def test_first_partial_wins_on_duplicate_ids(self):
        # Hedged retries can race a slow primary; the first-seen score
        # is kept so a duplicate can never change the ranking.
        merged = merge_topk([[(0.5, "a")], [(0.9, "a"), (0.4, "b")]])
        assert merged == [(0.5, "a"), (0.4, "b")]

    def test_k_truncates_and_none_keeps_all(self):
        partials = [[(0.1 * i, f"t{i}")] for i in range(8)]
        assert len(merge_topk(partials, k=3)) == 3
        assert len(merge_topk(partials, k=None)) == 8
        assert merge_topk(partials, k=0) == []
        assert merge_topk(partials, k=100) == merge_topk(partials)

    def test_partition_merge_equals_global_ranking(self, engine):
        # Score every table in one shot, then split the pairs across
        # arbitrary shards: the merge must reproduce the global order
        # bit-for-bit — the cluster-parity invariant in miniature.
        scored = engine.search(QUERIES[0], k=None)
        pairs = [(s.score, s.table_id) for s in scored]
        shards = [pairs[0::3], pairs[1::3], pairs[2::3]]
        assert merge_topk(shards) == sorted(
            pairs, key=lambda p: (-p[0], p[1])
        )
        assert merge_topk(shards, k=4) == merge_topk(shards)[:4]
