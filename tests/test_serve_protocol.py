"""Tests for the serving wire protocol: parsing, validation, codec."""

import pytest

from repro.core.result import ResultSet, ScoredTable
from repro.exceptions import ProtocolError
from repro.serve.protocol import (
    MAX_K,
    MAX_TUPLES,
    ExplainRequest,
    SearchPlan,
    SearchRequest,
    TableUpsertRequest,
    error_to_json,
    result_to_json,
)


class TestSearchRequest:
    def test_minimal_defaults(self):
        req = SearchRequest.from_json({"tuples": [["kg:a", "kg:b"]]})
        assert req.tuples == (("kg:a", "kg:b"),)
        assert req.k == 10
        assert req.method == "types"
        assert req.mode == "search"
        assert req.batch_key().mode == "exact"
        assert req.votes == 1

    def test_all_fields(self):
        req = SearchRequest.from_json(
            {"tuples": [["kg:a"], ["kg:b", "kg:c"]], "k": 3,
             "method": "embeddings", "votes": 3},
            mode="topk",
        )
        assert req.k == 3
        assert req.method == "embeddings"
        assert req.mode == "topk"
        assert req.votes == 3
        pre = SearchRequest.from_json(
            {"tuples": [["kg:a"]], "k": 3, "method": "embeddings",
             "mode": "prefilter", "votes": 3, "task": "entity"}
        )
        assert pre.batch_key() == SearchPlan(
            "entity", "prefilter", "embeddings", 3, 3
        )

    def test_use_lsh_is_an_unknown_field(self):
        for mode in ("search", "topk"):
            with pytest.raises(ProtocolError, match="unknown request fields"):
                SearchRequest.from_json(
                    {"tuples": [["kg:a"]], "use_lsh": True}, mode=mode
                )

    def test_non_object_body(self):
        with pytest.raises(ProtocolError):
            SearchRequest.from_json([["kg:a"]])

    def test_missing_tuples(self):
        with pytest.raises(ProtocolError):
            SearchRequest.from_json({"k": 5})

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown request fields"):
            SearchRequest.from_json(
                {"tuples": [["kg:a"]], "tupels": [["kg:b"]]}
            )

    def test_empty_tuple_rejected(self):
        with pytest.raises(ProtocolError):
            SearchRequest.from_json({"tuples": [[]]})

    def test_non_string_entity_rejected(self):
        with pytest.raises(ProtocolError):
            SearchRequest.from_json({"tuples": [["kg:a", 7]]})

    def test_too_many_tuples_rejected(self):
        tuples = [["kg:a"]] * (MAX_TUPLES + 1)
        with pytest.raises(ProtocolError, match="too many"):
            SearchRequest.from_json({"tuples": tuples})

    def test_k_bounds(self):
        with pytest.raises(ProtocolError):
            SearchRequest.from_json({"tuples": [["kg:a"]], "k": 0})
        with pytest.raises(ProtocolError):
            SearchRequest.from_json({"tuples": [["kg:a"]], "k": MAX_K + 1})

    def test_k_boolean_rejected(self):
        # bool is an int subclass; the codec must not accept it.
        with pytest.raises(ProtocolError):
            SearchRequest.from_json({"tuples": [["kg:a"]], "k": True})

    def test_bad_method(self):
        with pytest.raises(ProtocolError):
            SearchRequest.from_json(
                {"tuples": [["kg:a"]], "method": "magic"}
            )

    def test_query_materializes(self):
        req = SearchRequest.from_json({"tuples": [["kg:a", "kg:b"]]})
        assert req.query().tuples == (("kg:a", "kg:b"),)

    def test_batch_key_groups_compatible_requests(self):
        a = SearchRequest.from_json({"tuples": [["kg:a"]], "k": 5})
        b = SearchRequest.from_json({"tuples": [["kg:z"]], "k": 5})
        c = SearchRequest.from_json({"tuples": [["kg:z"]], "k": 7})
        assert a.batch_key() == b.batch_key()
        assert a.batch_key() != c.batch_key()


class TestWireMode:
    def test_exact_maps_to_search(self):
        req = SearchRequest.from_json(
            {"tuples": [["kg:a"]], "mode": "exact"}
        )
        assert req.mode == "search"

    def test_prefilter_selects_prefilter_execution(self):
        req = SearchRequest.from_json(
            {"tuples": [["kg:a"]], "mode": "prefilter"}
        )
        assert req.mode == "prefilter"

    def test_omitted_mode_keeps_endpoint_default(self):
        assert SearchRequest.from_json({"tuples": [["kg:a"]]}).mode \
            == "search"
        assert SearchRequest.from_json(
            {"tuples": [["kg:a"]]}, mode="topk"
        ).mode == "topk"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ProtocolError, match="'mode'"):
            SearchRequest.from_json(
                {"tuples": [["kg:a"]], "mode": "fuzzy"}
            )
        # Internal execution names are not wire values.
        with pytest.raises(ProtocolError):
            SearchRequest.from_json(
                {"tuples": [["kg:a"]], "mode": "search"}
            )

    def test_mode_rejected_on_topk_endpoint(self):
        with pytest.raises(ProtocolError, match="POST /search"):
            SearchRequest.from_json(
                {"tuples": [["kg:a"]], "mode": "exact"}, mode="topk"
            )

    def test_mode_splits_batch_key(self):
        exact = SearchRequest.from_json(
            {"tuples": [["kg:a"]], "mode": "exact"}
        )
        pre = SearchRequest.from_json(
            {"tuples": [["kg:a"]], "mode": "prefilter"}
        )
        assert exact.batch_key() != pre.batch_key()
        # POST /topk is exact search under another label: one key,
        # whatever votes says (exact search never reads it).
        topk = SearchRequest.from_json(
            {"tuples": [["kg:a"]], "votes": 3},
            mode="topk",
        )
        assert topk.batch_key() == exact.batch_key()

    def test_mode_echoed_in_response(self):
        req = SearchRequest.from_json(
            {"tuples": [["kg:a"]], "mode": "prefilter"}
        )
        payload = result_to_json(ResultSet([]), req)
        assert payload["mode"] == "prefilter"


class TestExplainRequest:
    def test_roundtrip(self):
        req = ExplainRequest.from_json(
            {"tuples": [["kg:a"]], "table_id": "T01"}
        )
        assert req.table_id == "T01"
        assert req.method == "types"

    def test_missing_table_id(self):
        with pytest.raises(ProtocolError):
            ExplainRequest.from_json({"tuples": [["kg:a"]]})


class TestTableUpsertRequest:
    def test_roundtrip(self):
        req = TableUpsertRequest.from_json({
            "table": {"id": "TX", "attributes": ["A", "B"],
                      "rows": [["x", 1], ["y", None]],
                      "metadata": {"caption": "c"}},
        })
        table = req.table()
        assert table.table_id == "TX"
        assert table.num_rows == 2
        assert req.link

    def test_row_width_mismatch(self):
        with pytest.raises(ProtocolError):
            TableUpsertRequest.from_json({
                "table": {"id": "TX", "attributes": ["A", "B"],
                          "rows": [["only-one"]]},
            })

    def test_missing_table_object(self):
        with pytest.raises(ProtocolError):
            TableUpsertRequest.from_json({"link": True})

    def test_duplicate_attributes_rejected_at_build(self):
        req = TableUpsertRequest.from_json({
            "table": {"id": "TX", "attributes": ["A", "A"],
                      "rows": []},
        })
        with pytest.raises(ProtocolError):
            req.table()


class TestResponseCodec:
    def test_result_to_json_ranks_and_scores(self):
        results = ResultSet([
            ScoredTable(0.9, "T1"), ScoredTable(0.5, "T2"),
        ])
        req = SearchRequest.from_json({"tuples": [["kg:a"]], "k": 2})
        payload = result_to_json(results, req, snapshot_version=4)
        assert payload["count"] == 2
        assert payload["snapshot_version"] == 4
        assert payload["results"][0] == {
            "rank": 1, "table_id": "T1", "score": 0.9,
        }

    def test_error_envelope(self):
        assert error_to_json("boom", 503) == {"error": "boom",
                                              "status": 503}


class TestParseTableId:
    """The chokepoint every external table id passes through."""

    def test_accepts_ordinary_ids(self):
        from repro.serve.protocol import parse_table_id

        assert parse_table_id("T001") == "T001"
        assert parse_table_id("lake/table-42.csv") == "lake/table-42.csv"

    def test_rejects_non_strings_and_empty(self):
        from repro.serve.protocol import parse_table_id

        for bad in (None, 3, "", ["T1"]):
            with pytest.raises(ProtocolError):
                parse_table_id(bad)

    def test_rejects_control_characters_and_oversize(self):
        from repro.serve.protocol import MAX_TABLE_ID_LENGTH, parse_table_id

        for bad in ("a\nb", "a\x00b", "a\x7fb", "x" * (MAX_TABLE_ID_LENGTH + 1)):
            with pytest.raises(ProtocolError):
                parse_table_id(bad)

    def test_error_names_the_field(self):
        from repro.serve.protocol import parse_table_id

        with pytest.raises(ProtocolError, match="table.id"):
            parse_table_id("", name="table.id")

    def test_from_json_routes_through_parse_table_id(self):
        with pytest.raises(ProtocolError, match="table_id"):
            ExplainRequest.from_json({
                "tuples": [["kg:a"]], "table_id": "bad\x01id",
            })
        with pytest.raises(ProtocolError, match="table.id"):
            TableUpsertRequest.from_json({
                "table": {"id": "x\x00y", "attributes": ["a"],
                          "rows": [["kg:a"]]},
            })
