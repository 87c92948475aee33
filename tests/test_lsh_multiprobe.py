"""Tests for multi-probe LSH querying."""

import pytest

from repro.core import Query
from repro.exceptions import ConfigurationError
from repro.lsh import EmbeddingSignatureScheme, LSHConfig, TablePrefilter
from benchmarks.multiprobe import MultiProbePrefilter, probe_band_keys


class TestProbeSequence:
    def test_zero_flips_is_identity(self):
        assert list(probe_band_keys((0, 1, 0), 0)) == [(0, 1, 0)]

    def test_one_flip_neighbors(self):
        probes = list(probe_band_keys((0, 1), 1))
        assert probes[0] == (0, 1)  # own bucket first
        assert set(probes[1:]) == {(1, 1), (0, 0)}

    def test_two_flip_count(self):
        probes = list(probe_band_keys((0, 0, 0, 0), 2))
        # 1 + C(4,1) + C(4,2) = 1 + 4 + 6
        assert len(probes) == 11
        assert len(set(probes)) == 11

    def test_negative_flips_rejected(self):
        with pytest.raises(ConfigurationError):
            list(probe_band_keys((0, 1), -1))


class TestMultiProbePrefilter:
    @pytest.fixture()
    def prefilters(self, sports_embeddings, sports_mapping):
        scheme = EmbeddingSignatureScheme(sports_embeddings, 32, seed=3)
        base = TablePrefilter(scheme, LSHConfig(32, 8), sports_mapping)
        return base, MultiProbePrefilter(base, max_flips=1)

    def test_probing_is_superset_of_plain_lookup(self, prefilters):
        base, multi = prefilters
        for uri in ("kg:player0", "kg:team3", "kg:city1"):
            query = Query.single(uri)
            plain = base.candidate_tables(query)
            probed = multi.candidate_tables(query)
            assert plain <= probed, uri

    def test_zero_flips_matches_plain(self, prefilters):
        base, _ = prefilters
        multi0 = MultiProbePrefilter(base, max_flips=0)
        query = Query.single("kg:player5", "kg:team2")
        assert multi0.candidate_tables(query) == \
            base.candidate_tables(query)

    def test_votes_threshold_applies(self, prefilters):
        _, multi = prefilters
        query = Query.single("kg:player0", "kg:team0")
        loose = multi.candidate_tables(query, votes=1)
        strict = multi.candidate_tables(query, votes=20)
        assert strict <= loose
        with pytest.raises(ConfigurationError):
            multi.candidate_tables(query, votes=0)

    def test_unhashable_query_falls_back(self, prefilters):
        _, multi = prefilters
        assert multi.candidate_tables(Query.single("kg:ghost")) == \
            set(multi.prefilter.indexed_tables)

    def test_reduction_delegates(self, prefilters):
        _, multi = prefilters
        assert multi.reduction(10, {"a", "b"}) == 0.8

    def test_invalid_max_flips(self, prefilters):
        base, _ = prefilters
        with pytest.raises(ConfigurationError):
            MultiProbePrefilter(base, max_flips=-1)

    def test_candidates_remain_sound(self, prefilters, sports_lake):
        _, multi = prefilters
        query = Query.single("kg:player0")
        candidates = multi.candidate_tables(query)
        assert candidates <= set(sports_lake.table_ids())
