"""End-to-end tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    code = main([
        "generate", "--out", str(out), "--tables", "60",
        "--queries", "2", "--seed", "3",
    ])
    assert code == 0
    return out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "--out", "x"])
        assert args.profile == "wt2015"
        assert args.tables == 500

    def test_serve_defaults(self):
        args = build_parser().parse_args([
            "serve", "--graph", "g", "--lake", "l", "--mapping", "m",
        ])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.method == "types"
        assert args.max_batch == 8
        assert args.queue_depth == 64
        assert args.timeout == pytest.approx(30.0)
        assert not args.no_warm
        # The serving default is the kernel, as on `cluster worker`;
        # the scalar reference stays selectable.
        assert args.engine == "vectorized"

    def test_serve_engine_choices(self):
        files = ["--graph", "g", "--lake", "l", "--mapping", "m"]
        served = {
            "serve": ["serve", *files],
            "worker": [
                "cluster", "worker", *files, "--worker-id", "w0",
                "--coordinator-host", "127.0.0.1",
                "--coordinator-port", "1",
            ],
        }
        for base in served.values():
            assert build_parser().parse_args(base).engine == "vectorized"
            args = build_parser().parse_args(base + ["--engine=vectorized"])
            assert args.engine == "vectorized"
            with pytest.raises(SystemExit):
                build_parser().parse_args(base + ["--engine", "scalar"])
            # The kernel has no pairwise-similarity cache to bound.
            with pytest.raises(SystemExit):
                build_parser().parse_args(base + ["--cache-size", "5"])
        offline = {
            "search": ["search", *files, "--tuple", "kg:a"],
            "bench": ["bench", *files, "--queries", "q", "--out", "o"],
        }
        for base in offline.values():
            assert build_parser().parse_args(base).engine == "vectorized"
            args = build_parser().parse_args(base + ["--engine", "scalar"])
            assert args.engine == "scalar"
            args = build_parser().parse_args(base + ["--cache-size", "5"])
            assert args.cache_size == 5

    def test_serve_custom_knobs(self):
        args = build_parser().parse_args([
            "serve", "--graph", "g", "--lake", "l", "--mapping", "m",
            "--port", "0", "--max-batch", "16", "--queue-depth", "8",
            "--timeout", "2.5", "--no-warm",
        ])
        assert args.port == 0
        assert args.max_batch == 16
        assert args.queue_depth == 8
        assert args.timeout == pytest.approx(2.5)
        assert args.no_warm

    @pytest.mark.parametrize("arguments", [
        ["serve", "--workers", "2"],
        ["serve", "--backend", "process"],
        ["search", "--tuple", "kg:a", "--workers", "2"],
        ["search", "--tuple", "kg:a", "--backend", "process"],
        ["bench", "--queries", "q", "--out", "o", "--workers", "2"],
    ])
    def test_in_process_pool_flags_are_gone(self, arguments, capsys):
        # The in-process worker pool is deleted, not deprecated: its
        # flags fail loudly instead of being accepted and ignored.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                arguments + ["--graph", "g", "--lake", "l", "--mapping", "m"]
            )
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        ["--batch-workers", "4"],
        ["--flush-interval", "0.01"],
    ])
    def test_batching_knobs_are_gone(self, flag, capsys):
        # One batch runs at a time and the batcher never waits on a
        # timer, so neither knob has anything left to tune.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                ["serve", "--graph", "g", "--lake", "l", "--mapping", "m"]
                + flag
            )
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestGenerate(object):
    def test_writes_all_artifacts(self, corpus_dir):
        for name in ("graph.json", "lake.json", "mapping.json",
                     "queries.json"):
            assert (corpus_dir / name).exists(), name

    def test_queries_payload_shape(self, corpus_dir):
        payload = json.loads((corpus_dir / "queries.json").read_text())
        assert len(payload["queries"]) == 4  # 2 pairs x (1t + 5t)
        assert set(payload["categories"]) == set(payload["queries"])


class TestStats:
    def test_stats_with_mapping(self, corpus_dir, capsys):
        code = main([
            "stats", "--lake", str(corpus_dir / "lake.json"),
            "--mapping", str(corpus_dir / "mapping.json"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "T=" in out and "Cov=" in out

    def test_stats_without_mapping(self, corpus_dir, capsys):
        code = main(["stats", "--lake", str(corpus_dir / "lake.json")])
        assert code == 0
        assert "Cov=  0.0%" in capsys.readouterr().out


class TestLink:
    def test_link_round_trip(self, corpus_dir, tmp_path, capsys):
        out_path = tmp_path / "relinked.json"
        code = main([
            "link", "--graph", str(corpus_dir / "graph.json"),
            "--lake", str(corpus_dir / "lake.json"),
            "--out", str(out_path), "--exact-only",
        ])
        assert code == 0
        assert out_path.exists()
        assert "linked" in capsys.readouterr().out


class TestSearch:
    def _first_query_tuple(self, corpus_dir):
        payload = json.loads((corpus_dir / "queries.json").read_text())
        one_tuple_ids = [q for q in payload["queries"] if q.endswith("-1t")]
        return payload["queries"][one_tuple_ids[0]][0]

    def test_search_types(self, corpus_dir, capsys):
        entities = self._first_query_tuple(corpus_dir)
        code = main([
            "search",
            "--graph", str(corpus_dir / "graph.json"),
            "--lake", str(corpus_dir / "lake.json"),
            "--mapping", str(corpus_dir / "mapping.json"),
            "--tuple", ",".join(entities),
            "-k", "3",
        ])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 3
        assert lines[0].startswith("  1.")

    def test_search_with_lsh_and_explain(self, corpus_dir, capsys):
        entities = self._first_query_tuple(corpus_dir)
        code = main([
            "search",
            "--graph", str(corpus_dir / "graph.json"),
            "--lake", str(corpus_dir / "lake.json"),
            "--mapping", str(corpus_dir / "mapping.json"),
            "--tuple", ",".join(entities),
            "-k", "2", "--mode", "prefilter", "--explain",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "SemRel" in out  # explanation rendered

    def test_search_multi_tuple(self, corpus_dir, capsys):
        entities = self._first_query_tuple(corpus_dir)
        code = main([
            "search",
            "--graph", str(corpus_dir / "graph.json"),
            "--lake", str(corpus_dir / "lake.json"),
            "--mapping", str(corpus_dir / "mapping.json"),
            "--tuple", ",".join(entities),
            "--tuple", entities[0],
            "-k", "2",
        ])
        assert code == 0


class TestProfile:
    def test_profile_graph(self, corpus_dir, capsys):
        code = main(["profile", "--graph", str(corpus_dir / "graph.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "nodes:" in out
        assert "most frequent types:" in out

    def test_profile_tables(self, corpus_dir, capsys):
        code = main([
            "profile", "--lake", str(corpus_dir / "lake.json"),
            "--mapping", str(corpus_dir / "mapping.json"),
            "--top", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("table '") == 2
        assert "linked=" in out

    def test_profile_specific_table(self, corpus_dir, capsys):
        import json as _json

        lake_payload = _json.loads((corpus_dir / "lake.json").read_text())
        table_id = lake_payload["tables"][0]["id"]
        code = main([
            "profile", "--lake", str(corpus_dir / "lake.json"),
            "--table", table_id,
        ])
        assert code == 0
        assert table_id in capsys.readouterr().out

    def test_profile_nothing_errors(self, capsys):
        assert main(["profile"]) == 2


class TestTune:
    def test_tune_runs_and_recommends(self, corpus_dir, capsys):
        code = main([
            "tune",
            "--graph", str(corpus_dir / "graph.json"),
            "--lake", str(corpus_dir / "lake.json"),
            "--mapping", str(corpus_dir / "mapping.json"),
            "--queries", str(corpus_dir / "queries.json"),
            "--config", "16,8", "--config", "30,10",
            "--sample", "2", "--min-retention", "0.5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "recommended:" in out
        assert "(16, 8)" in out and "(30, 10)" in out


class TestBench:
    def test_bench_writes_report(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "report.md"
        code = main([
            "bench",
            "--graph", str(corpus_dir / "graph.json"),
            "--lake", str(corpus_dir / "lake.json"),
            "--mapping", str(corpus_dir / "mapping.json"),
            "--queries", str(corpus_dir / "queries.json"),
            "--out", str(out), "-k", "5",
        ])
        assert code == 0
        content = out.read_text()
        assert "# Semantic table search benchmark" in content
        assert "| STST |" in content
        assert "| BM25 |" in content
        assert "STST vs BM25 (NDCG)" in content
        printed = capsys.readouterr().out
        assert "report written to" in printed


class TestSearchEmbeddings:
    def test_search_with_embeddings_method(self, corpus_dir, capsys):
        import json as _json

        payload = _json.loads((corpus_dir / "queries.json").read_text())
        one_tuple_ids = [q for q in payload["queries"] if q.endswith("-1t")]
        entities = payload["queries"][one_tuple_ids[0]][0]
        code = main([
            "search",
            "--graph", str(corpus_dir / "graph.json"),
            "--lake", str(corpus_dir / "lake.json"),
            "--mapping", str(corpus_dir / "mapping.json"),
            "--tuple", ",".join(entities),
            "-k", "2", "--method", "embeddings", "--dimensions", "8",
        ])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 2


class TestErrorHandling:
    def test_missing_file_reports_error(self, capsys):
        code = main(["stats", "--lake", "/nonexistent/lake.json"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupt_json_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["stats", "--lake", str(bad)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_profile_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["generate", "--out", "x", "--profile", "nope"]
            )


class TestContextualLink:
    def test_contextual_flag(self, corpus_dir, tmp_path, capsys):
        out_path = tmp_path / "contextual.json"
        code = main([
            "link", "--graph", str(corpus_dir / "graph.json"),
            "--lake", str(corpus_dir / "lake.json"),
            "--out", str(out_path), "--contextual",
        ])
        assert code == 0
        assert out_path.exists()
