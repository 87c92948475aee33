"""Tests for the fused prefilter serve path (Section 6 pipeline).

Covers the candidate-generation stage end to end: ``search_candidates``
parity with the scalar restricted search, ``mode="exact"``
bit-compatibility, Thetis mode routing, :class:`PrefilterStats`
accounting, the recall guardrail, and — the load-bearing property —
candidate-set *containment* under randomized add/remove mutation: at
vote threshold 1 the LSEI shortlist must be a superset of every table
with a nonzero exact score, so the prefiltered ranking equals the
exact one.
"""

import random

import pytest

from repro import Query, Table, Thetis
from repro.core.kernel import PrefilterStats
from repro.exceptions import ConfigurationError
from repro.lsh import LSHConfig

TOLERANCE = 1e-9

#: A small banding config that keeps sports-world signatures cheap.
CONFIG = LSHConfig(32, 8)

QUERIES = [
    Query.single("kg:player0", "kg:team0"),
    Query.single("kg:player5", "kg:city1"),
    Query((("kg:player2", "kg:team2"), ("kg:player10", "kg:city2"))),
    Query.single("kg:city3"),
]


def _fresh_thetis(sports_graph, engine_kind="vectorized"):
    """A mutable Thetis over fresh copies of the sports world."""
    from repro.linking import LabelLinker
    from tests.conftest import make_sports_lake

    lake = make_sports_lake()
    mapping = LabelLinker(sports_graph).link_lake(lake)
    return Thetis(lake, sports_graph, mapping, engine_kind=engine_kind)


def _assert_same_ranking(left, right, tolerance=TOLERANCE):
    assert left.table_ids() == right.table_ids()
    for tid in left.table_ids():
        assert left.score_of(tid) == pytest.approx(
            right.score_of(tid), abs=tolerance
        )


# ----------------------------------------------------------------------
class TestSearchCandidatesParity:
    """``search_candidates`` must match the base restricted search."""

    @pytest.fixture(scope="class")
    def engines(self, sports_lake, sports_graph, sports_mapping):
        vec = Thetis(sports_lake, sports_graph, sports_mapping,
                     engine_kind="vectorized")
        sca = Thetis(sports_lake, sports_graph, sports_mapping,
                     engine_kind="scalar")
        return vec.engine("types"), sca.engine("types")

    @pytest.mark.parametrize("k", [None, 1, 3, 12])
    def test_full_lake_candidates(self, engines, k):
        vec, sca = engines
        candidates = [f"T{i:02d}" for i in range(12)]
        for query in QUERIES:
            got = vec.search_candidates(query, candidates, k=k)
            want = sca.search(query, k=k, candidates=candidates)
            _assert_same_ranking(got, want)

    def test_subset_with_ghosts_and_duplicates(self, engines):
        vec, sca = engines
        candidates = ["T03", "T00", "ghost", "T07", "T00", "T11"]
        for query in QUERIES:
            got = vec.search_candidates(query, candidates, k=5)
            want = sca.search(query, k=5, candidates=candidates)
            _assert_same_ranking(got, want)

    def test_empty_candidates(self, engines):
        vec, _ = engines
        results = vec.search_candidates(QUERIES[0], [], k=5)
        assert len(results) == 0

    def test_k_below_one_returns_empty(self, engines):
        vec, _ = engines
        stats = PrefilterStats()
        results = vec.search_candidates(
            QUERIES[0], ["T00", "T01"], k=0, stats=stats
        )
        assert len(results) == 0
        assert stats.as_dict()["scoring_calls"] == 1

    def test_search_dispatches_candidates(self, engines):
        vec, sca = engines
        candidates = ["T02", "T04", "T06"]
        got = vec.search(QUERIES[0], k=3, candidates=candidates)
        want = sca.search(QUERIES[0], k=3, candidates=candidates)
        _assert_same_ranking(got, want)

    def test_stats_recorded(self, engines):
        vec, _ = engines
        stats = PrefilterStats()
        vec.search_candidates(
            QUERIES[0], [f"T{i:02d}" for i in range(12)], k=3, stats=stats
        )
        payload = stats.as_dict()
        assert payload["scoring_calls"] == 1
        assert payload["mean_shortlist"] > 0


# ----------------------------------------------------------------------
class TestScalarPrefilterIsBruteForce:
    """Scalar ``mode="prefilter"``: plain Algorithm 1 over the shortlist."""

    def test_matches_brute_force_over_shortlist(self, sports_lake,
                                                sports_graph,
                                                sports_mapping):
        thetis = Thetis(sports_lake, sports_graph, sports_mapping,
                        engine_kind="scalar")
        engine = thetis.engine("types")
        prefilter = thetis.prefilter("types", CONFIG)
        shortlisted = 0
        for query in QUERIES:
            shortlist = prefilter.candidate_tables(query, votes=1)
            shortlisted += len(shortlist)
            got = thetis.search(query, k=3, mode="prefilter",
                                lsh_config=CONFIG)
            want = engine.search(query, candidates=shortlist).top(3)
            assert [(s.table_id, s.score) for s in got] == \
                [(s.table_id, s.score) for s in want]
        block = thetis.prefilter_stats.as_dict()
        assert block["scoring_calls"] == len(QUERIES)
        # Every shortlisted table is scored; no cut-off ever fires.
        assert block["mean_shortlist"] == shortlisted / len(QUERIES) > 0
        assert block["scored_fraction"] == 1.0
        assert block["early_termination_rate"] == 0.0


# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_kind", ["scalar", "vectorized"])
class TestThetisModes:
    def test_exact_mode_is_bit_compatible(self, sports_lake, sports_graph,
                                          sports_mapping, engine_kind):
        thetis = Thetis(sports_lake, sports_graph, sports_mapping,
                        engine_kind=engine_kind)
        for query in QUERIES:
            default = thetis.search(query, k=5)
            exact = thetis.search(query, k=5, mode="exact")
            assert default.table_ids() == exact.table_ids()
            for tid in default.table_ids():
                # Same code path — scores must be identical, not close.
                assert default.score_of(tid) == exact.score_of(tid)

    def test_prefilter_mode_matches_exact_topk(self, sports_lake,
                                               sports_graph, sports_mapping,
                                               engine_kind):
        thetis = Thetis(sports_lake, sports_graph, sports_mapping,
                        engine_kind=engine_kind)
        for query in QUERIES:
            exact = thetis.search(query, k=5, mode="exact")
            approx = thetis.search(query, k=5, mode="prefilter",
                                   lsh_config=CONFIG)
            _assert_same_ranking(approx, exact)

    def test_search_many_prefilter_parity(self, sports_lake, sports_graph,
                                          sports_mapping, engine_kind):
        thetis = Thetis(sports_lake, sports_graph, sports_mapping,
                        engine_kind=engine_kind)
        queries = {f"q{i}": query for i, query in enumerate(QUERIES)}
        batched = thetis.search_many(queries, k=4, mode="prefilter",
                                     lsh_config=CONFIG)
        for name, query in queries.items():
            single = thetis.search(query, k=4, mode="prefilter",
                                   lsh_config=CONFIG)
            _assert_same_ranking(batched[name], single)

    def test_unknown_mode_rejected(self, sports_lake, sports_graph,
                                   sports_mapping, engine_kind):
        thetis = Thetis(sports_lake, sports_graph, sports_mapping,
                        engine_kind=engine_kind)
        with pytest.raises(ConfigurationError):
            thetis.search(QUERIES[0], mode="fuzzy")
        with pytest.raises(ConfigurationError):
            thetis.search_many({"q": QUERIES[0]}, mode="fuzzy")

    def test_guardrail_records_recall(self, sports_lake, sports_graph,
                                      sports_mapping, engine_kind):
        thetis = Thetis(sports_lake, sports_graph, sports_mapping,
                        engine_kind=engine_kind)
        recall = thetis.prefilter_recall(QUERIES[0], k=5,
                                         lsh_config=CONFIG)
        assert recall == pytest.approx(1.0)
        guardrail = thetis.prefilter_stats.as_dict()["guardrail"]
        assert guardrail["checks"] == 1
        assert guardrail["min_recall"] == pytest.approx(1.0)

    def test_query_stats_accumulate(self, sports_lake, sports_graph,
                                    sports_mapping, engine_kind):
        thetis = Thetis(sports_lake, sports_graph, sports_mapping,
                        engine_kind=engine_kind)
        thetis.search(QUERIES[0], k=5, mode="prefilter", lsh_config=CONFIG)
        payload = thetis.prefilter_stats.as_dict()
        assert payload["queries"] == 1
        assert payload["scoring_calls"] == 1


# ----------------------------------------------------------------------
class TestContainmentUnderMutation:
    """Randomized add/remove: candidates must cover all scoring tables.

    At vote threshold 1 every table containing a query entity shares
    that entity's bucket (per-entity mode), so the LSEI shortlist is a
    provable superset of the nonzero-score set — and the prefiltered
    top-k therefore equals the exact top-k.  Incremental
    ``add_table``/``remove_table`` maintenance must preserve this
    through arbitrary mutation sequences (the lifecycle bug this PR
    fixes silently broke it on remove + re-add).
    """

    @staticmethod
    def _random_table(rng, table_id):
        rows = []
        for _ in range(rng.randint(1, 4)):
            player = rng.randrange(32)
            rows.append([f"Player {player}", f"Team {player % 8}",
                         f"City {player % 4}", 2000 + rng.randrange(4)])
        return Table(table_id, ["Player", "Team", "City", "Year"], rows)

    def _assert_containment(self, thetis, prefilter):
        engine = thetis.engine("types")
        for query in QUERIES:
            exact = engine.search(query)
            positive = {tid for tid in exact.table_ids()
                        if exact.score_of(tid) > 0.0}
            candidates = prefilter.candidate_tables(query, votes=1)
            missing = positive - candidates
            assert not missing, (
                f"prefilter dropped scoring tables {sorted(missing)}"
            )
            approx = thetis.search(query, k=5, mode="prefilter",
                                   lsh_config=CONFIG)
            _assert_same_ranking(approx, exact.top(5))

    @pytest.mark.parametrize("engine_kind,seed", [
        ("scalar", 3), ("vectorized", 3), ("vectorized", 4),
    ])
    def test_random_add_remove_sequence(self, sports_graph, engine_kind,
                                        seed):
        rng = random.Random(seed)
        thetis = _fresh_thetis(sports_graph, engine_kind)
        prefilter = thetis.prefilter("types", CONFIG)
        live = [f"T{i:02d}" for i in range(12)]
        counter = 0
        for step in range(12):
            if live and rng.random() < 0.4:
                victim = rng.choice(live)
                live.remove(victim)
                thetis.remove_table(victim)
            else:
                table_id = f"M{counter:02d}"
                counter += 1
                thetis.add_table(self._random_table(rng, table_id))
                live.append(table_id)
            if step % 3 == 2:
                self._assert_containment(thetis, prefilter)
        self._assert_containment(thetis, prefilter)

    def test_remove_then_readd_same_id(self, sports_graph):
        # The lifecycle regression in miniature: stale column
        # signatures after re-add used to make the reshaped table
        # invisible to its new entities' buckets.
        thetis = _fresh_thetis(sports_graph)
        prefilter = thetis.prefilter("types", CONFIG,
                                     column_aggregation=True)
        assert "T00" in prefilter.indexed_tables
        thetis.remove_table("T00")
        assert "T00" not in prefilter.indexed_tables
        thetis.add_table(Table(
            "T00", ["City", "Year"],
            [[f"City {i}", 2010 + i] for i in range(4)],
        ))
        query = Query.single("kg:city0", "kg:city1")
        candidates = prefilter.candidate_tables(query, votes=1)
        assert "T00" in candidates
        exact = thetis.engine("types").search(query)
        approx = thetis.search(query, k=5, mode="prefilter",
                               lsh_config=CONFIG)
        _assert_same_ranking(approx, exact.top(5))


# ----------------------------------------------------------------------
class TestPrefilterStats:
    def test_empty_snapshot(self):
        payload = PrefilterStats().as_dict()
        assert payload["queries"] == 0
        assert payload["candidate_reduction"] == 0.0
        assert payload["guardrail"]["checks"] == 0

    def test_reduction_and_scoring_accounting(self):
        stats = PrefilterStats()
        stats.record_query(total_tables=100, num_candidates=20)
        stats.record_query(total_tables=100, num_candidates=10)
        stats.record_scoring(shortlisted=20, scored=8, early_terminated=True)
        stats.record_scoring(shortlisted=10, scored=10,
                             early_terminated=False)
        payload = stats.as_dict()
        assert payload["queries"] == 2
        assert payload["mean_candidates"] == pytest.approx(15.0)
        # 200 lake slots considered, 30 survived -> 85% reduction.
        assert payload["candidate_reduction"] == pytest.approx(0.85)
        assert payload["scoring_calls"] == 2
        assert payload["mean_shortlist"] == pytest.approx(15.0)
        assert payload["scored_fraction"] == pytest.approx(18 / 30)
        assert payload["early_termination_rate"] == pytest.approx(0.5)

    def test_guardrail_accounting(self):
        stats = PrefilterStats()
        stats.record_guardrail(1.0)
        stats.record_guardrail(0.8)
        guardrail = stats.as_dict()["guardrail"]
        assert guardrail["checks"] == 2
        assert guardrail["mean_recall"] == pytest.approx(0.9)
        assert guardrail["min_recall"] == pytest.approx(0.8)
