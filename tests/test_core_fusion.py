"""Tests for rank fusion (RRF, CombSUM/MNZ, logistic learning-to-rank)."""

import pytest

from benchmarks.fusion import (
    LogisticFusion,
    comb_mnz,
    comb_sum,
    reciprocal_rank_fusion,
)
from repro.core import ResultSet, ScoredTable
from repro.exceptions import ConfigurationError


def _ranking(*pairs):
    return ResultSet(ScoredTable(score, tid) for tid, score in pairs)


@pytest.fixture()
def rankings():
    a = _ranking(("X", 0.9), ("A", 0.8), ("B", 0.7))
    b = _ranking(("X", 5.0), ("C", 4.0), ("A", 3.0))
    return [a, b]


class TestRRF:
    def test_agreement_wins(self, rankings):
        fused = reciprocal_rank_fusion(rankings)
        assert fused.table_ids()[0] == "X"  # rank 1 in both

    def test_union_of_candidates(self, rankings):
        fused = reciprocal_rank_fusion(rankings)
        assert set(fused.table_ids()) == {"X", "A", "B", "C"}

    def test_single_ranking_preserves_order(self, rankings):
        fused = reciprocal_rank_fusion(rankings[:1])
        assert fused.table_ids() == rankings[0].table_ids()

    def test_validation(self, rankings):
        with pytest.raises(ConfigurationError):
            reciprocal_rank_fusion([])
        with pytest.raises(ConfigurationError):
            reciprocal_rank_fusion(rankings, k=0)

    def test_k_dampens_head_weight(self, rankings):
        sharp = reciprocal_rank_fusion(rankings, k=1)
        flat = reciprocal_rank_fusion(rankings, k=1000)
        # Both keep X first, but relative gaps differ.
        gap = lambda rs: (rs.score_of("X") - rs.score_of("A"))
        assert gap(sharp) > gap(flat)


class TestCombFusion:
    def test_comb_sum_normalizes_scales(self, rankings):
        # System b's raw scores are 5x larger; normalization equalizes.
        fused = comb_sum(rankings)
        assert fused.table_ids()[0] == "X"
        assert fused.score_of("X") == pytest.approx(2.0)

    def test_comb_mnz_rewards_agreement(self, rankings):
        fused = comb_mnz(rankings)
        # A appears in both systems, B and C in one each.
        assert fused.score_of("A") > fused.score_of("B")
        assert fused.score_of("A") > fused.score_of("C")

    def test_constant_scores_handled(self):
        constant = _ranking(("P", 0.5), ("Q", 0.5))
        fused = comb_sum([constant])
        assert fused.score_of("P") == fused.score_of("Q") == 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            comb_sum([])
        with pytest.raises(ConfigurationError):
            comb_mnz([])


class TestLogisticFusion:
    def _training_data(self):
        # System 0 is reliable (relevant tables score high), system 1
        # is anti-correlated noise; the model should learn to trust 0.
        data = []
        for i in range(6):
            good = _ranking((f"rel{i}", 0.9), (f"irr{i}", 0.2))
            bad = _ranking((f"irr{i}", 0.9), (f"rel{i}", 0.2))
            gains = {f"rel{i}": 3.0}
            data.append(([good, bad], gains))
        return data

    def test_learns_to_trust_reliable_system(self):
        model = LogisticFusion(num_systems=2, seed=1)
        model.fit(self._training_data())
        assert model.weights[0] > model.weights[1]
        test = [
            _ranking(("new_rel", 0.95), ("new_irr", 0.1)),
            _ranking(("new_irr", 0.95), ("new_rel", 0.1)),
        ]
        fused = model.fuse(test)
        assert fused.table_ids()[0] == "new_rel"

    def test_fuse_before_fit_rejected(self):
        model = LogisticFusion(num_systems=2)
        with pytest.raises(ConfigurationError):
            model.fuse([_ranking(("a", 1.0)), _ranking(("a", 1.0))])

    def test_system_count_enforced(self):
        model = LogisticFusion(num_systems=2)
        with pytest.raises(ConfigurationError):
            model.fit([([_ranking(("a", 1.0))], {"a": 1.0})])
        model.fit(self._training_data())
        with pytest.raises(ConfigurationError):
            model.fuse([_ranking(("a", 1.0))])

    def test_empty_training_rejected(self):
        model = LogisticFusion(num_systems=1)
        with pytest.raises(ConfigurationError):
            model.fit([])

    def test_invalid_num_systems(self):
        with pytest.raises(ConfigurationError):
            LogisticFusion(num_systems=0)

    def test_features_for_union_and_zero_fill(self, rankings):
        pool, matrix = LogisticFusion.features_for(rankings)
        assert pool == ["A", "B", "C", "X"]
        assert matrix.shape == (4, 2)
        b_index = pool.index("B")
        assert matrix[b_index, 1] == 0.0  # B absent from system 1


class TestFusionProperties:
    """Hypothesis properties over the fusion combinators."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    _rankings = st.lists(
        st.dictionaries(
            st.sampled_from([f"T{i}" for i in range(8)]),
            st.floats(0.0, 1.0),
            min_size=1,
            max_size=6,
        ),
        min_size=1,
        max_size=4,
    )

    @settings(max_examples=40, deadline=None)
    @given(_rankings)
    def test_rrf_candidates_are_union(self, score_dicts):
        rankings = [ResultSet.from_scores(d) for d in score_dicts]
        fused = reciprocal_rank_fusion(rankings)
        union = set().union(*(set(d) for d in score_dicts))
        assert set(fused.table_ids()) == union

    @settings(max_examples=40, deadline=None)
    @given(_rankings)
    def test_comb_sum_scores_bounded_by_system_count(self, score_dicts):
        rankings = [ResultSet.from_scores(d) for d in score_dicts]
        fused = comb_sum(rankings)
        for scored in fused:
            assert -1e-9 <= scored.score <= len(rankings) + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(_rankings)
    def test_comb_mnz_dominates_comb_sum(self, score_dicts):
        rankings = [ResultSet.from_scores(d) for d in score_dicts]
        sums = comb_sum(rankings)
        mnz = comb_mnz(rankings)
        for table_id in sums.table_ids():
            assert mnz.score_of(table_id) >= sums.score_of(table_id) - 1e-9
