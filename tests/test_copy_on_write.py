"""Copy-on-write mapping and LSEI under random write/copy interleavings.

``EntityMapping.copy`` and ``TablePrefilter.fork`` share their inner
containers until one side writes.  Two properties pin that down:

* mappings: after any interleaving of ``link`` / ``unlink`` /
  ``unlink_table`` / ``copy`` over a family of copies, each copy holds
  exactly the links written to it (so no write leaks into a source or a
  copy), and ``table_frequency`` equals a recount from ``all_links()``;
* prefilters: after any interleaving of ``fork`` / ``add_table`` /
  ``remove_table`` (in the order ``Thetis`` runs them against its
  mapping), every generation's ``candidate_tables`` equal a fresh build
  over that generation's mapping, and a write to one generation leaves
  every other one's candidates unchanged; the int shortlist the kernel
  reads (``candidate_ordinals``) maps back to the id shortlist counted
  from the mapping.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import Query
from repro.exceptions import LinkingError
from repro.linking import EntityMapping
from repro.lsh.config import LSHConfig
from repro.lsh.index import TablePrefilter
from repro.lsh.schemes import TypeSignatureScheme

from tests.conftest import make_sports_graph

TABLES = ("T0", "T1", "T2", "T3")
ENTITIES = (
    "kg:player0", "kg:player1", "kg:team0", "kg:team1", "kg:city0",
    "kg:unknown",  # not in the graph: it has no signature
)
CELL = st.tuples(
    st.sampled_from(TABLES), st.integers(0, 2), st.integers(0, 2)
)

mapping_ops = st.lists(
    st.one_of(
        st.tuples(st.just("link"), st.integers(0, 7), CELL,
                  st.sampled_from(ENTITIES)),
        st.tuples(st.just("unlink"), st.integers(0, 7), CELL),
        st.tuples(st.just("unlink_table"), st.integers(0, 7),
                  st.sampled_from(TABLES)),
        st.tuples(st.just("copy"), st.integers(0, 7)),
    ),
    max_size=40,
)


def recount(mapping):
    tables = {}
    for (table_id, _row, _column), uri in mapping.all_links():
        tables.setdefault(uri, set()).add(table_id)
    return tables


def check_mapping(mapping, model):
    assert dict(mapping.all_links()) == model
    assert len(mapping) == len(model)
    tables = recount(mapping)
    assert set(mapping.all_entities()) == set(tables)
    for uri in ENTITIES:
        assert mapping.table_frequency(uri) == len(tables.get(uri, ()))
        assert mapping.tables_with_entity(uri) == tables.get(uri, set())
    assert {
        uri: set(table_ids)
        for uri, table_ids in mapping.entity_tables().items()
    } == tables
    for table_id in TABLES:
        assert mapping.entities_in_table(table_id) == {
            uri for (owner, _, _), uri in model.items() if owner == table_id
        }


@settings(max_examples=150, deadline=None)
@given(ops=mapping_ops)
def test_mapping_copies_are_isolated_and_frequencies_current(ops):
    family = [(EntityMapping(), {})]
    for op in ops:
        mapping, model = family[op[1] % len(family)]
        if op[0] == "link":
            (table_id, row, column), uri = op[2], op[3]
            existing = model.get((table_id, row, column))
            if existing is not None and existing != uri:
                with pytest.raises(LinkingError):
                    mapping.link(table_id, row, column, uri)
            else:
                mapping.link(table_id, row, column, uri)
                model[(table_id, row, column)] = uri
        elif op[0] == "unlink":
            ref = op[2]
            assert mapping.unlink(*ref) == model.pop(ref, None)
        elif op[0] == "unlink_table":
            cut = [ref for ref in model if ref[0] == op[2]]
            assert mapping.unlink_table(op[2]) == len(cut)
            for ref in cut:
                del model[ref]
        else:
            family.append((mapping.copy(), dict(model)))
        for member, member_model in family:
            check_mapping(member, member_model)


# ----------------------------------------------------------------------
# The LSEI
# ----------------------------------------------------------------------
GRAPH = make_sports_graph()
SCHEME = TypeSignatureScheme(GRAPH, 32, seed=3)
CONFIG = LSHConfig(32, 8)
QUERIES = [Query.single(uri) for uri in ENTITIES] + [
    Query.single("kg:player0", "kg:city0"),
]

table_links = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2),
              st.sampled_from(ENTITIES)),
    max_size=6,
)
prefilter_ops = st.lists(
    st.one_of(
        st.tuples(st.just("fork"), st.integers(0, 7)),
        st.tuples(st.just("remove"), st.integers(0, 7),
                  st.sampled_from(TABLES)),
        st.tuples(st.just("add"), st.integers(0, 7),
                  st.sampled_from(TABLES), table_links),
    ),
    max_size=16,
)


def candidates(prefilter):
    return [sorted(prefilter.candidate_tables(query)) for query in QUERIES]


def walk(initial, ops, column_aggregation):
    """Run ``ops`` over prefilter generations, yielding after each.

    Yields ``(generations, touched, before)``: every generation so far,
    the one the op wrote to (``None`` after the build and after a fork)
    and every generation's candidates before the op.
    """
    mapping = EntityMapping()
    for table_id, links in zip(TABLES, initial):
        for row, column, uri in links:
            if mapping.entity_at(table_id, row, column) is None:
                mapping.link(table_id, row, column, uri)
    generations = [TablePrefilter(
        SCHEME, CONFIG, mapping, column_aggregation=column_aggregation
    )]
    yield generations, None, []
    for op in ops:
        index = op[1] % len(generations)
        prefilter = generations[index]
        before = [candidates(other) for other in generations]
        if op[0] == "fork":
            generations.append(prefilter.fork(prefilter.mapping.copy()))
            yield generations, None, before
            continue
        table_id = op[2]
        # Thetis's order: the prefilter reads the table's keys before the
        # mapping unlinks it, and indexes a table after it is linked.
        prefilter.remove_table(table_id)
        prefilter.mapping.unlink_table(table_id)
        if op[0] == "add":
            for row, column, uri in op[3]:
                if prefilter.mapping.entity_at(table_id, row, column) is None:
                    prefilter.mapping.link(table_id, row, column, uri)
            prefilter.add_table(table_id)
        yield generations, prefilter, before


generation_walks = dict(
    initial=st.lists(table_links, min_size=len(TABLES), max_size=len(TABLES)),
    ops=prefilter_ops,
    column_aggregation=st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(**generation_walks)
def test_prefilter_forks_are_isolated(initial, ops, column_aggregation):
    for generations, prefilter, before in walk(
        initial, ops, column_aggregation
    ):
        if prefilter is None:
            continue
        for other, seen in zip(generations, before):
            if other is not prefilter:
                assert candidates(other) == seen
        fresh = TablePrefilter(
            SCHEME, CONFIG, prefilter.mapping,
            column_aggregation=column_aggregation,
        )
        assert prefilter.indexed_tables == fresh.indexed_tables
        # With no hashable key a fresh build answers every table, while a
        # maintained per-entity index keeps its entity signatures.
        if fresh.num_indexed_keys():
            assert candidates(prefilter) == candidates(fresh)


def counted_shortlist(prefilter, query, aggregate_query, votes=1):
    """The shortlist by counting table ids, independent of the postings.

    A key's tables come from the mapping (per-entity mode) or from the
    ``table#column`` key itself (column-aggregated mode), so this is the
    string-keyed reference the int postings must reproduce.
    """
    if aggregate_query:
        uris = TablePrefilter._query_uris(query)
        signatures = [prefilter.scheme.group_signature(uris)]
    else:
        signatures = [
            prefilter.scheme.entity_signature(uri)
            for uri in sorted(query.entities())
        ]
    usable = [signature for signature in signatures if signature is not None]
    if not prefilter.num_indexed_keys() or not usable:
        return prefilter.indexed_tables
    shortlist = set()
    for signature in usable:
        counts = Counter()
        for key in prefilter._co_bucketed_keys(signature):
            if prefilter.column_aggregation:
                counts[key.rsplit("#", 1)[0]] += 1
            else:
                counts.update(prefilter.mapping.tables_with_entity(key))
        shortlist |= {
            table_id for table_id, count in counts.items() if count >= votes
        }
    return shortlist


@settings(max_examples=60, deadline=None)
@given(**generation_walks, aggregate_query=st.booleans())
def test_one_vote_set_union_equals_the_counted_shortlist(
    initial, ops, column_aggregation, aggregate_query
):
    for generations, _, _ in walk(initial, ops, column_aggregation):
        for prefilter in generations:
            for query in QUERIES:
                assert prefilter.candidate_tables(
                    query, votes=1, aggregate_query=aggregate_query
                ) == counted_shortlist(prefilter, query, aggregate_query)


@settings(max_examples=60, deadline=None)
@given(
    **generation_walks,
    aggregate_query=st.booleans(),
    votes=st.sampled_from([1, 2, 3]),
)
def test_int_shortlist_maps_back_to_the_candidate_ids(
    initial, ops, column_aggregation, aggregate_query, votes
):
    """The ordinal shortlist the kernel reads is the id shortlist.

    Sorted distinct int64 ordinals, which the shared ordinal space maps
    back to exactly the counted id set — across forks, adds, removes
    and re-adds, for both LSEI modes and vote thresholds 1 to 3.
    """
    for generations, _, _ in walk(initial, ops, column_aggregation):
        for prefilter in generations:
            assert prefilter.ordinals is generations[0].ordinals
            for query in QUERIES:
                shortlist = prefilter.candidate_ordinals(
                    query, votes=votes, aggregate_query=aggregate_query
                )
                assert shortlist.dtype == np.int64
                assert np.all(np.diff(shortlist) > 0)
                assert set(prefilter.ordinals.ids_of(shortlist)) \
                    == counted_shortlist(
                        prefilter, query, aggregate_query, votes
                    ) == prefilter.candidate_tables(
                        query, votes=votes, aggregate_query=aggregate_query
                    )
