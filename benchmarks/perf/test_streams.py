"""Streams are pure functions of ``--seed``.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q`` (tier-1
collects ``tests/`` only).
"""

from __future__ import annotations

import json

import pytest

from benchmarks.perf import streams
from benchmarks.perf.procs import run_cli

TABLES = 40
PAIRS = 1500


def _generate(directory, seed):
    run_cli(["generate", f"--out={directory}", f"--tables={TABLES}",
             f"--seed={seed}", f"--queries={PAIRS}"],
            directory.with_suffix(".log"))
    tables = json.loads((directory / "lake.json").read_text())["tables"]
    return streams.load_pool(directory / "queries.json"), tables


def _all_streams(pool, tables, seed):
    """Every request list a workload sends, as wire bytes."""
    lists = [
        *streams.fresh_5t_stream(pool, seed, 10, 60),
        *streams.hot_1t_stream(pool, seed, 300),
        *streams.reader_stream(pool, seed, 8, 90),
        streams.writer_schedule(tables, seed, 12),
    ]
    return [[(r.method, r.path, r.body) for r in requests]
            for requests in lists]


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    root = tmp_path_factory.mktemp("streams")
    return {
        "a": _generate(root / "a", 5),
        "a-again": _generate(root / "a-again", 5),
        "b": _generate(root / "b", 6),
    }


def test_same_seed_gives_byte_identical_payloads(generated):
    assert (_all_streams(*generated["a"], 5)
            == _all_streams(*generated["a-again"], 5))


def test_other_seed_gives_other_payloads(generated):
    first = _all_streams(*generated["a"], 5)
    second = _all_streams(*generated["b"], 6)
    assert all(x != y for x, y in zip(first, second))
    # The seed alone (same pool) moves the seeded draws too.
    pool, tables = generated["a"]
    assert (streams.hot_1t_stream(pool, 5, 300)[1]
            != streams.hot_1t_stream(pool, 6, 300)[1])
    assert (streams.writer_schedule(tables, 5, 12)
            != streams.writer_schedule(tables, 6, 12))


def test_fresh_stream_repeats_no_tuple(generated):
    pool, _ = generated["a"]
    warmup, window = streams.fresh_5t_stream(pool, 5, 10, 60)
    assert len(warmup) == 10 and len(window) == 60
    tuples = [t for request in warmup + window
              for t in streams.request_tuples(request)]
    assert len(tuples) == 5 * 70
    assert len(set(tuples)) == len(tuples)
    assert streams.distinct_tuple_share(window) == 1.0
    assert all(request.kind == "exact" and request.k == streams.K
               for request in window)


def test_hot_stream_touches_exactly_32_queries(generated):
    pool, _ = generated["a"]
    hot, draws = streams.hot_1t_stream(pool, 5, 1800)
    assert len({request.body for request in hot}) == streams.HOT_SET
    assert {request.body for request in draws} == {r.body for r in hot}
    assert all(len(streams.request_tuples(r)) == 1 for r in hot)
    # Zipf: the first of the set is drawn far more often than the last.
    assert draws.count(hot[0]) > 5 * draws.count(hot[-1])


def test_reader_cycles_three_kinds_over_fresh_tuples(generated):
    pool, _ = generated["a"]
    warmup, window = streams.reader_stream(pool, 5, 8, 90)
    assert [r.kind for r in warmup[:3]] == list(streams.READER_KINDS)
    assert {kind: sum(r.kind == kind for r in warmup)
            for kind in streams.READER_KINDS} == dict.fromkeys(
                streams.READER_KINDS, 8)
    tuples = [t for request in warmup + window
              for t in streams.request_tuples(request)]
    assert len(tuples) == len(set(tuples)) == 24 + 90


def test_writer_keeps_at_most_three_clones_and_cleans_up(generated):
    _, tables = generated["a"]
    schedule = streams.writer_schedule(tables, 5, 12)
    assert [r.kind for r in schedule[:5]] == [
        "add", "add", "add", "add", "remove"]
    source_ids = {table["id"] for table in tables}
    live = set()
    for done, request in enumerate(schedule, start=1):
        if request.kind == "add":
            record = json.loads(request.body)
            assert record["link"] is True
            clone = record["table"]
            assert clone["id"] not in source_ids
            assert any(clone["rows"] == t["rows"] for t in tables)
            live.add(f"/tables/{clone['id']}")
        else:
            live.remove(request.path)
        assert len(live) <= streams.WRITER_LAG + 1
        leftovers = streams.leftover_removals(schedule[:done])
        assert {r.path for r in leftovers} == live
