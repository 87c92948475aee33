"""Tests for the informativeness weighting I(e) of Section 5.2."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linking import EntityMapping
from repro.similarity import (
    Informativeness,
    UniformInformativeness,
    informativeness_or_uniform,
)


class TestInformativeness:
    def test_rare_entities_weigh_more(self):
        info = Informativeness({"rare": 1, "common": 90}, num_tables=100)
        assert info("rare") > info("common")

    def test_weight_bounds(self):
        info = Informativeness({"a": 1, "b": 50, "c": 100}, num_tables=100)
        for uri in ("a", "b", "c"):
            assert 0.0 < info(uri) <= 1.0

    def test_single_table_entity_gets_full_weight(self):
        info = Informativeness({"a": 1}, num_tables=100)
        assert info("a") == pytest.approx(1.0)

    def test_unseen_entity_defaults_to_one(self):
        info = Informativeness({"a": 5}, num_tables=10)
        assert info("never-seen") == 1.0

    def test_frequency_clamped_to_corpus_size(self):
        info = Informativeness({"a": 1000}, num_tables=10)
        assert 0.0 < info("a") <= 1.0

    def test_zero_frequency_treated_as_one(self):
        info = Informativeness({"a": 0}, num_tables=10)
        assert info("a") == pytest.approx(1.0)

    def test_container_protocol(self):
        info = Informativeness({"a": 1}, num_tables=2)
        assert "a" in info
        assert "b" not in info
        assert len(info) == 1

    def test_weights_are_frozen_at_construction(self):
        """Weights read after their inputs change still see the inputs
        they were built from: the frequencies are copied, not aliased."""
        frequencies = {"a": 1, "b": 4}
        info = Informativeness(frequencies, num_tables=10)
        frequencies["a"] = 9
        frequencies["c"] = 2
        assert info("a") == pytest.approx(1.0)
        assert info("c") == 1.0 and "c" not in info

        mapping = EntityMapping()
        mapping.link("T0", 0, 0, "kg:a")
        snapshot = mapping.table_frequencies()
        mapping.link("T1", 0, 0, "kg:a")
        assert snapshot == {"kg:a": 1}

    def test_from_mapping(self, sports_mapping, sports_lake):
        info = Informativeness.from_mapping(sports_mapping, len(sports_lake))
        # Teams appear in more tables than most players -> lower weight.
        assert info("kg:player9") >= info("kg:team0")

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=4),
            st.integers(min_value=1, max_value=500),
            max_size=20,
        ),
        st.integers(min_value=1, max_value=500),
    )
    def test_monotone_in_frequency(self, freqs, num_tables):
        info = Informativeness(freqs, num_tables)
        items = sorted(freqs.items(), key=lambda kv: kv[1])
        for (_, f1), (_, f2) in zip(items, items[1:]):
            assert f1 <= f2
        weights = [info(uri) for uri, _ in items]
        for w1, w2 in zip(weights, weights[1:]):
            assert w1 >= w2 - 1e-12  # weight non-increasing in frequency


class TestUniform:
    def test_always_one(self):
        uniform = UniformInformativeness()
        assert uniform("anything") == 1.0
        assert uniform.weight("other") == 1.0

    def test_helper_dispatch(self, sports_mapping):
        assert isinstance(
            informativeness_or_uniform(None, 10), UniformInformativeness
        )
        assert isinstance(
            informativeness_or_uniform(sports_mapping, 10), Informativeness
        )


def eager_weights(mapping, num_tables):
    """Every linked entity's ``I(e)``, computed up front from a recount.

    The weight loop ``Informativeness`` ran at construction before it
    computed weights on first use: the reference the lazy weights must
    equal bit for bit.
    """
    tables = {}
    for (table_id, _row, _column), uri in mapping.all_links():
        tables.setdefault(uri, set()).add(table_id)
    num_tables = max(1, num_tables)
    log_norm = math.log(1.0 + num_tables)
    return {
        uri: math.log(1.0 + num_tables / max(1, min(len(ids), num_tables)))
        / log_norm
        for uri, ids in tables.items()
    }


LAZY_TABLES = ("T0", "T1", "T2", "T3")
LAZY_ENTITIES = ("kg:a", "kg:b", "kg:c", "kg:d")
lazy_ops = st.lists(
    st.one_of(
        st.tuples(st.just("link"), st.sampled_from(LAZY_TABLES),
                  st.integers(0, 2), st.integers(0, 1),
                  st.sampled_from(LAZY_ENTITIES)),
        st.tuples(st.just("unlink"), st.sampled_from(LAZY_TABLES),
                  st.integers(0, 2), st.integers(0, 1)),
        st.tuples(st.just("unlink_table"), st.sampled_from(LAZY_TABLES)),
        st.tuples(st.just("fork")),
    ),
    max_size=30,
)


@settings(max_examples=100, deadline=None)
@given(ops=lazy_ops, num_tables=st.integers(1, 12))
def test_lazy_weights_are_bit_equal_and_frozen_per_generation(
    ops, num_tables
):
    """Weights computed on first use equal the eager loop for every
    entity after any link / unlink / unlink_table sequence, and a
    retired generation's weights never move while its successor's
    mapping changes — including weights first read after the change."""
    mapping = EntityMapping()
    retired = []
    # Weights built before the op and first read after it, on the same
    # mapping: they must not see the op.
    unread = (Informativeness.from_mapping(mapping, num_tables), {})
    for op in ops:
        if op[0] == "link":
            _, table_id, row, column, uri = op
            if mapping.entity_at(table_id, row, column) is None:
                mapping.link(table_id, row, column, uri)
        elif op[0] == "unlink":
            mapping.unlink(*op[1:])
        elif op[0] == "unlink_table":
            mapping.unlink_table(op[1])
        else:
            # The swap: this generation's weights retire, the clone
            # mutates a copy of the mapping from here on.
            retired.append((
                Informativeness.from_mapping(mapping, num_tables),
                eager_weights(mapping, num_tables),
            ))
            mapping = mapping.copy()
        weights = Informativeness.from_mapping(mapping, num_tables)
        expected = eager_weights(mapping, num_tables)
        assert len(weights) == len(expected)
        for uri in LAZY_ENTITIES:
            assert weights(uri) == expected.get(uri, 1.0)
            assert unread[0](uri) == unread[1].get(uri, 1.0)
        unread = (Informativeness.from_mapping(mapping, num_tables), expected)
    for weights, expected in retired:
        for uri in LAZY_ENTITIES:
            assert weights(uri) == expected.get(uri, 1.0)
