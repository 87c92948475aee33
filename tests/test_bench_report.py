"""The benches' one report writer keeps every block other benches wrote."""

import json

from benchmarks.serve_loadgen import record


def test_blocks_from_several_writers_survive(tmp_path):
    path = str(tmp_path / "BENCH_serve.json")
    record(path, "closed", {"ok": 80})
    record(path, "cluster.failover", {"recovered": True})
    record(path, "mutation", {"cycles": 5})
    record(path, "cluster.scaling", {"host_cores": 2})

    assert json.loads(open(path, encoding="utf-8").read()) == {
        "closed": {"ok": 80},
        "mutation": {"cycles": 5},
        "cluster": {"failover": {"recovered": True},
                    "scaling": {"host_cores": 2}},
    }


def test_rewriting_a_key_replaces_only_that_block(tmp_path):
    path = str(tmp_path / "BENCH_kernel.json")
    record(path, "methods", {"types": 1})
    record(path, "scan", {"speedup": 2.0})
    record(path, "methods", {"types": 3})

    assert json.loads(open(path, encoding="utf-8").read()) == {
        "methods": {"types": 3},
        "scan": {"speedup": 2.0},
    }


def test_an_unreadable_report_starts_afresh(tmp_path):
    path = tmp_path / "BENCH_serve.json"
    path.write_text("{not json")
    record(str(path), "open", {"ok": 1})

    assert json.loads(path.read_text()) == {"open": {"ok": 1}}
