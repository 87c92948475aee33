"""Tests for the Thetis lifecycle and concurrent-reader guarantees.

Two contracts the serving layer builds on:

* ``close()`` is idempotent and terminal — a second close is a no-op,
  and every operation on a closed instance raises a clear
  :class:`~repro.exceptions.ThetisClosedError` naming the operation;
* ``search`` / ``search_many`` are safe for
  concurrent reader threads over an unchanging lake, and concurrent
  results are identical to sequential ones.
"""

import threading

import pytest

from repro import Query, Thetis
from repro.datalake import Table
from repro.exceptions import ThetisClosedError


@pytest.fixture()
def thetis(sports_lake, sports_graph, sports_mapping):
    return Thetis(sports_lake, sports_graph, sports_mapping)


QUERIES = [
    Query.single("kg:player0", "kg:team0", "kg:city0"),
    Query.single("kg:player5", "kg:team5"),
    Query((("kg:player9",), ("kg:team1", "kg:city1"))),
    Query.single("kg:city2", "kg:city3"),
]


class TestCloseLifecycle:
    def test_close_is_idempotent(self, thetis):
        thetis.search(QUERIES[0], k=3)  # create an engine worth closing
        assert not thetis.closed
        thetis.close()
        assert thetis.closed
        thetis.close()  # second close must be a harmless no-op
        assert thetis.closed

    def test_operations_after_close_raise_thetis_closed(self, thetis):
        thetis.close()
        operations = [
            lambda: thetis.search(QUERIES[0]),
            lambda: thetis.search_many({"q": QUERIES[0]}),
            lambda: thetis.explain(QUERIES[0], "T00"),
            lambda: thetis.engine("types"),
            lambda: thetis.union_engine("types"),
            lambda: thetis.warm(),
            lambda: thetis.train_embeddings(dimensions=4, epochs=1,
                                            walks_per_entity=1),
            lambda: thetis.add_table(
                Table("TX", ["A"], [["x"]]), link=False
            ),
            lambda: thetis.remove_table("T00"),
        ]
        for operation in operations:
            with pytest.raises(ThetisClosedError):
                operation()

    def test_closed_error_names_the_operation(self, thetis):
        thetis.close()
        with pytest.raises(ThetisClosedError, match="search"):
            thetis.search(QUERIES[0])
        with pytest.raises(ThetisClosedError, match="add_table"):
            thetis.add_table(Table("TX", ["A"], [["x"]]), link=False)

    def test_close_before_any_engine_built(self, sports_lake,
                                           sports_graph, sports_mapping):
        # Closing an instance that never lazily built an engine works.
        instance = Thetis(sports_lake, sports_graph, sports_mapping)
        instance.close()
        assert instance.closed

    def test_snapshot_inputs_copies_are_independent(self, thetis,
                                                    sports_lake):
        lake, mapping = thetis.snapshot_inputs()
        clone = Thetis(lake, thetis.graph, mapping)
        clone.add_table(
            Table("TX", ["Player"], [["Player 0"]]), link=True
        )
        assert "TX" in clone.lake
        assert "TX" not in sports_lake
        clone.close()
        # The original is unaffected by the clone's lifecycle.
        assert not thetis.closed
        assert thetis.search(QUERIES[0], k=1)


class TestConcurrentReaders:
    def _sequential_expectation(self, thetis):
        return {
            index: [
                (scored.table_id, scored.score)
                for scored in thetis.search(query, k=5)
            ]
            for index, query in enumerate(QUERIES)
        }

    def test_threaded_search_matches_sequential(self, thetis):
        """N reader threads over one Thetis: every result identical to
        the single-threaded baseline (the documented guarantee the
        server's batch workers rely on)."""
        expected = self._sequential_expectation(thetis)
        errors = []

        def reader(worker: int):
            try:
                for repeat in range(5):
                    index = (worker + repeat) % len(QUERIES)
                    results = thetis.search(QUERIES[index], k=5)
                    got = [(s.table_id, s.score) for s in results]
                    assert got == expected[index]
                    many = thetis.search_many({"q": QUERIES[index]}, k=5)
                    got_many = [(s.table_id, s.score) for s in many["q"]]
                    assert got_many == expected[index]
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(worker,))
            for worker in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors

    def test_search_many_matches_individual_searches(self, thetis):
        batch = {f"q{i}": query for i, query in enumerate(QUERIES)}
        many = thetis.search_many(batch, k=5)
        assert set(many) == set(batch)
        for key, query in batch.items():
            direct = thetis.search(query, k=5)
            assert [(s.table_id, s.score) for s in many[key]] == [
                (s.table_id, s.score) for s in direct
            ]

    def test_warm_is_a_pure_accelerator(self, sports_lake, sports_graph,
                                        sports_mapping):
        cold = Thetis(sports_lake, sports_graph, sports_mapping)
        warm = Thetis(sports_lake, sports_graph, sports_mapping)
        warmed = warm.warm("types")
        assert warmed == len(sports_lake)
        for query in QUERIES:
            a = [(s.table_id, s.score) for s in cold.search(query, k=5)]
            b = [(s.table_id, s.score) for s in warm.search(query, k=5)]
            assert a == b

    def test_concurrent_lazy_engine_creation_is_single(self, sports_lake,
                                                       sports_graph,
                                                       sports_mapping):
        """Racing threads through the lazy engine() path must all end
        up with the same engine instance (double-checked locking)."""
        instance = Thetis(sports_lake, sports_graph, sports_mapping)
        seen = []
        barrier = threading.Barrier(8)

        def builder():
            barrier.wait()
            seen.append(instance.engine("types"))

        threads = [threading.Thread(target=builder) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(seen) == 8
        assert all(engine is seen[0] for engine in seen)
