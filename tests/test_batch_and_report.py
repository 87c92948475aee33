"""Tests for batched search, CSV directory export, and report writing."""

import pytest

from repro.core import Query, ResultSet, ScoredTable, TableSearchEngine
from repro.datalake import load_lake_csv_dir, save_lake_csv_dir
from repro.eval import ExperimentRunner, GroundTruth, compare_systems
from repro.eval.report import report_to_markdown, write_markdown_report
from repro.similarity import TypeJaccardSimilarity


class TestSearchMany:
    @pytest.fixture()
    def engine(self, sports_lake, sports_mapping, sports_graph):
        return TableSearchEngine(
            sports_lake, sports_mapping, TypeJaccardSimilarity(sports_graph)
        )

    def test_matches_individual_searches(self, engine):
        queries = {
            "a": Query.single("kg:player0", "kg:team0"),
            "b": Query.single("kg:player9"),
            "c": Query([("kg:player1",), ("kg:city2",)]),
        }
        batched = dict(zip(
            queries, engine.search_batch(list(queries.values()), k=5)
        ))
        for query_id, query in queries.items():
            individual = engine.search(query, k=5)
            assert batched[query_id].table_ids() == individual.table_ids()
            for tid in individual.table_ids():
                assert batched[query_id].score_of(tid) == pytest.approx(
                    individual.score_of(tid)
                )

    def test_per_query_candidates(self, engine):
        queries = {
            "restricted": Query.single("kg:player0"),
            "free": Query.single("kg:player0"),
        }
        restricted, free = engine.search_batch(
            [queries["restricted"], queries["free"]], k=10,
            candidates=[["T01", "T02"], None],
        )
        assert set(restricted.table_ids()) <= {"T01", "T02"}
        assert len(free) == 10

    def test_empty_batch(self, engine):
        assert engine.search_batch([]) == []


class TestCsvDirExport:
    def test_round_trip(self, sports_lake, tmp_path):
        save_lake_csv_dir(sports_lake, tmp_path / "lake")
        loaded = load_lake_csv_dir(tmp_path / "lake")
        assert set(loaded.table_ids()) == set(sports_lake.table_ids())
        original = sports_lake.get("T00")
        restored = loaded.get("T00")
        assert restored.attributes == original.attributes
        assert restored.rows == original.rows

    def test_rejects_path_separator_ids(self, tmp_path):
        from repro.datalake import DataLake, Table

        lake = DataLake([Table("bad/id", ["A"], [["x"]])])
        with pytest.raises(ValueError):
            save_lake_csv_dir(lake, tmp_path / "lake")

    def test_creates_directory(self, sports_lake, tmp_path):
        target = tmp_path / "deeply" / "nested"
        save_lake_csv_dir(sports_lake, target)
        assert (target / "T00.csv").exists()


class TestMarkdownReport:
    def _reports(self):
        queries = {"q1": Query.single("kg:a")}
        truths = {"q1": GroundTruth({"T1": 3.0})}
        runner = ExperimentRunner(queries, truths)

        def good(query, k):
            return ResultSet([ScoredTable(1.0, "T1")])

        def bad(query, k):
            return ResultSet([ScoredTable(1.0, "X")])

        return {
            "good": runner.run_system("good", good, 5),
            "bad": runner.run_system("bad", bad, 5),
        }

    def test_markdown_structure(self):
        reports = self._reports()
        comparisons = {
            # 8 one-sided pairs: enough for the permutation test to
            # reach p < 0.05 (the floor is 1/2^(n-1)).
            "good vs bad": compare_systems(
                [1.0, 0.9, 0.95, 0.92, 0.97, 0.88, 0.94, 0.91],
                [0.1, 0.2, 0.15, 0.12, 0.18, 0.11, 0.16, 0.13],
            ),
        }
        text = report_to_markdown(
            "My experiment", reports, comparisons,
            notes=["seed 17", "2000 tables"],
        )
        assert text.startswith("# My experiment")
        assert "> seed 17" in text
        assert "| good | 5 | 1.000 |" in text
        assert "| bad | 5 | 0.000 |" in text
        assert "## Paired comparisons" in text
        assert "| good vs bad |" in text
        assert "yes |" in text

    def test_write_to_file(self, tmp_path):
        path = write_markdown_report(
            tmp_path / "report.md", "T", self._reports()
        )
        content = path.read_text()
        assert "# T" in content
        assert "## NDCG distributions" in content

    def test_no_comparisons_section_when_absent(self):
        text = report_to_markdown("T", self._reports())
        assert "Paired comparisons" not in text
