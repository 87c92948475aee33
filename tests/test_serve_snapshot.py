"""Tests for versioned engine snapshots and copy-and-swap updates."""

import contextlib
import threading

import pytest

from repro import Query, Thetis
from repro.datalake import Table
from repro.exceptions import ServeError
from repro.serve.snapshot import EngineSnapshot, SnapshotManager


class FakeEngine:
    """Stands in for Thetis where only close() matters."""

    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


def fresh_thetis(sports_lake, sports_graph, sports_mapping,
                 engine_kind="vectorized") -> Thetis:
    """A private Thetis over copies of the session fixtures.

    Snapshot managers take ownership and close their engine, and
    mutations must never leak into the shared session corpus.
    """
    reference = Thetis(sports_lake, sports_graph, sports_mapping)
    lake, mapping = reference.snapshot_inputs()
    return Thetis(lake, sports_graph, mapping, engine_kind=engine_kind)


def extra_table(table_id: str = "TX") -> Table:
    return Table(
        table_id,
        ["Player", "Team"],
        [["Player 0", "Team 0"], ["Player 8", "Team 0"]],
        metadata={"caption": "extra"},
    )


QUERY = Query.single("kg:player0", "kg:team0", "kg:city0")


class TestEngineSnapshot:
    def test_refcount_close_after_drain(self):
        engine = FakeEngine()
        snapshot = EngineSnapshot(engine, version=0)
        snapshot.acquire()
        snapshot.acquire()
        snapshot.retire()
        assert not engine.closed  # two readers still on it
        snapshot.release()
        assert not engine.closed
        snapshot.release()
        assert engine.closed  # retired AND drained

    def test_retire_with_no_readers_closes_immediately(self):
        engine = FakeEngine()
        snapshot = EngineSnapshot(engine, version=0)
        snapshot.retire()
        assert engine.closed

    def test_retire_idempotent(self):
        engine = FakeEngine()
        snapshot = EngineSnapshot(engine, version=0)
        snapshot.retire()
        snapshot.retire()
        assert engine.closed

    def test_acquire_after_drain_rejected(self):
        snapshot = EngineSnapshot(FakeEngine(), version=0)
        snapshot.retire()
        with pytest.raises(ServeError):
            snapshot.acquire()


class TestSnapshotManager:
    def test_checkout_yields_current(self, sports_lake, sports_graph,
                                     sports_mapping):
        manager = SnapshotManager(
            fresh_thetis(sports_lake, sports_graph, sports_mapping)
        )
        try:
            with manager.checkout() as snapshot:
                assert snapshot.version == 0
                results = snapshot.thetis.search(QUERY, k=3)
                assert results.table_ids()[0] == "T00"
        finally:
            manager.close()

    def test_apply_swaps_version_and_contents(self, sports_lake,
                                              sports_graph,
                                              sports_mapping):
        manager = SnapshotManager(
            fresh_thetis(sports_lake, sports_graph, sports_mapping)
        )
        try:
            old_engine = manager.current.thetis
            manager.apply(
                lambda thetis: thetis.add_table(extra_table(), link=True)
            )
            assert manager.version == 1
            # The retired generation had no readers, so it closed.
            assert old_engine.closed
            with manager.checkout() as snapshot:
                assert "TX" in snapshot.thetis.lake
                assert snapshot.version == 1
        finally:
            manager.close()

    def test_inflight_reader_finishes_on_old_generation(
            self, sports_lake, sports_graph, sports_mapping):
        manager = SnapshotManager(
            fresh_thetis(sports_lake, sports_graph, sports_mapping)
        )
        try:
            with manager.checkout() as snapshot:
                manager.apply(
                    lambda thetis: thetis.add_table(extra_table(),
                                                    link=True)
                )
                # The swap happened, but this reader's pinned engine is
                # still the pre-mutation generation and still open.
                assert manager.version == 1
                assert snapshot.version == 0
                assert "TX" not in snapshot.thetis.lake
                assert not snapshot.thetis.closed
                results = snapshot.thetis.search(QUERY, k=3)
                assert results.table_ids()[0] == "T00"
                old_engine = snapshot.thetis
            # Released: the retired generation drains and closes.
            assert old_engine.closed
        finally:
            manager.close()

    def test_failed_mutation_leaves_state_unchanged(
            self, sports_lake, sports_graph, sports_mapping):
        manager = SnapshotManager(
            fresh_thetis(sports_lake, sports_graph, sports_mapping)
        )
        try:
            current = manager.current.thetis
            with pytest.raises(RuntimeError, match="bad mutation"):
                manager.apply(
                    lambda thetis: (_ for _ in ()).throw(
                        RuntimeError("bad mutation")
                    )
                )
            assert manager.version == 0
            assert manager.current.thetis is current
            assert not current.closed
            with manager.checkout() as snapshot:
                assert snapshot.thetis.search(QUERY, k=1)
        finally:
            manager.close()

    def test_mutations_do_not_touch_session_fixtures(
            self, sports_lake, sports_graph, sports_mapping):
        manager = SnapshotManager(
            fresh_thetis(sports_lake, sports_graph, sports_mapping)
        )
        try:
            manager.apply(
                lambda thetis: thetis.add_table(extra_table(), link=True)
            )
            assert "TX" not in sports_lake
            assert len(sports_lake) == 12
        finally:
            manager.close()

    def test_close_then_checkout_rejected(self, sports_lake, sports_graph,
                                          sports_mapping):
        engine = fresh_thetis(sports_lake, sports_graph, sports_mapping)
        manager = SnapshotManager(engine)
        manager.close()
        assert engine.closed
        with pytest.raises(ServeError):
            with manager.checkout():
                pass
        with pytest.raises(ServeError):
            manager.apply(lambda thetis: None)

    def test_close_idempotent(self, sports_lake, sports_graph,
                              sports_mapping):
        manager = SnapshotManager(
            fresh_thetis(sports_lake, sports_graph, sports_mapping)
        )
        manager.close()
        manager.close()

    def test_on_swap_callback(self, sports_lake, sports_graph,
                              sports_mapping):
        versions = []
        manager = SnapshotManager(
            fresh_thetis(sports_lake, sports_graph, sports_mapping),
            on_swap=versions.append,
        )
        try:
            manager.apply(
                lambda thetis: thetis.add_table(extra_table("TA"),
                                                link=True)
            )
            manager.apply(
                lambda thetis: thetis.add_table(extra_table("TB"),
                                                link=True)
            )
            assert versions == [1, 2]
        finally:
            manager.close()

    def test_warm_on_swap(self, sports_lake, sports_graph,
                          sports_mapping):
        @contextlib.contextmanager
        def swapped_engine(engine_kind):
            manager = SnapshotManager(
                fresh_thetis(sports_lake, sports_graph, sports_mapping,
                             engine_kind=engine_kind),
                warm_method="types",
            )
            try:
                manager.apply(
                    lambda thetis: thetis.add_table(extra_table(), link=True)
                )
                yield manager.current.thetis.engine("types")
            finally:
                manager.close()

        with swapped_engine("scalar") as engine:
            # warm() pre-built the per-table views, TX included.
            assert "TX" in engine._column_counts
        with swapped_engine("vectorized") as engine:
            # warm() compiled the index, TX included, before apply
            # returned.
            index = engine.export_index()
            assert index is not None
            assert "TX" in index

    def test_informativeness_is_computed_once_per_swap(
            self, sports_lake, sports_graph, sports_mapping, monkeypatch):
        """Regression: the clone's constructor computed the weights and
        the mutation recomputed them before anything read the first."""
        from repro.similarity.informativeness import Informativeness

        manager = SnapshotManager(
            fresh_thetis(sports_lake, sports_graph, sports_mapping),
            warm_method="types",
        )
        calls = []
        original = Informativeness.from_mapping.__func__

        def counting(cls, mapping, num_tables):
            calls.append(num_tables)
            return original(cls, mapping, num_tables)

        try:
            with manager.checkout() as snapshot:
                snapshot.thetis.search(QUERY, k=3)
            monkeypatch.setattr(
                Informativeness, "from_mapping", classmethod(counting)
            )
            manager.apply(
                lambda thetis: thetis.add_table(extra_table(), link=True)
            )
            assert calls == [13]
            manager.apply(lambda thetis: thetis.remove_table("TX"))
            assert calls == [13, 12]
            # A swap that mutates nothing carries the weights across.
            weights = manager.current.thetis.informativeness
            manager.apply(lambda thetis: None)
            assert calls == [13, 12]
            current = manager.current.thetis
            assert current.informativeness is weights
            assert current.engine("types").informativeness is weights
        finally:
            manager.close()


class TestSwapUnderConcurrentReaders:
    def test_queries_never_fail_during_swaps(self, sports_lake,
                                             sports_graph,
                                             sports_mapping):
        """Reader threads hammer checkout+search while the main thread
        applies a series of mutations; every search must succeed and
        return a coherent result for its pinned generation."""
        manager = SnapshotManager(
            fresh_thetis(sports_lake, sports_graph, sports_mapping)
        )
        errors = []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    with manager.checkout() as snapshot:
                        results = snapshot.thetis.search(QUERY, k=3)
                        assert results.table_ids()[0] == "T00"
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for index in range(5):
                table_id = f"TZ{index}"
                manager.apply(
                    lambda thetis, tid=table_id: thetis.add_table(
                        extra_table(tid), link=True
                    )
                )
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        try:
            assert not errors
            assert manager.version == 5
            with manager.checkout() as snapshot:
                for index in range(5):
                    assert f"TZ{index}" in snapshot.thetis.lake
        finally:
            manager.close()


class TestSwapCarriesState:
    """A served swap carries forward what the mutation leaves unchanged.

    One add, one remove and the reads after them (exact and prefilter)
    must not redo whole-lake work: no ``O(lake)`` mirror listing, no
    new type similarity, no weight for an entity nobody asked about, no
    layout rebuilt with a string sort, and no candidate restriction
    handed to the layout as table-id strings.
    """

    @staticmethod
    def served(sports_lake, sports_graph, sports_mapping):
        reference = Thetis(sports_lake, sports_graph, sports_mapping)
        lake, mapping = reference.snapshot_inputs()
        manager = SnapshotManager(
            Thetis(lake, sports_graph, mapping, engine_kind="vectorized"),
            warm_method="types",
        )
        manager.current.thetis.warm("types")
        return manager

    @staticmethod
    def read(manager):
        with manager.checkout() as snapshot:
            thetis = snapshot.thetis
            return [
                [(s.table_id, s.score) for s in results]
                for results in (
                    thetis.search_many({"q": QUERY}, k=5)["q"],
                    thetis.search_many(
                        {"q": QUERY}, k=5, mode="prefilter"
                    )["q"],
                )
            ]

    @staticmethod
    def read_tasks(manager):
        """Union and join rankings of the current generation."""
        with manager.checkout() as snapshot:
            return [
                [(s.table_id, s.score) for s in snapshot.thetis.search_many(
                    {"q": QUERY}, k=5, task=task
                )["q"]]
                for task in ("union", "join")
            ]

    @staticmethod
    def tasks_reference(manager):
        """The scalar union and join baselines over the current
        generation (they keep no index, so they list nothing)."""
        from repro.baselines import JoinTableSearch, UnionTableSearch

        thetis = manager.current.thetis
        return [
            [(s.table_id, s.score) for s in ranking]
            for ranking in (
                UnionTableSearch(
                    thetis.lake, thetis.mapping, graph=thetis.graph
                ).search(QUERY, k=5),
                JoinTableSearch(thetis.lake).search(
                    QUERY, thetis.graph, k=5
                ),
            )
        ]

    @staticmethod
    def reference(manager):
        """The scalar oracle over a fresh copy of the current generation."""
        thetis = manager.current.thetis
        fresh = Thetis(thetis.lake.copy(), thetis.graph,
                       thetis.mapping.copy(), engine_kind="scalar")
        return [
            [(s.table_id, s.score) for s in results]
            for results in (
                fresh.search(QUERY, k=5),
                fresh.search(QUERY, k=5, mode="prefilter"),
            )
        ]

    def mutate_and_read(self, manager):
        manager.apply(lambda thetis: thetis.add_table(extra_table(), link=True))
        added = self.read(manager)
        manager.apply(lambda thetis: thetis.remove_table("TX"))
        return added, self.read(manager)

    def test_served_mutations_and_reads_never_list_the_lake(
            self, sports_lake, sports_graph, sports_mapping, monkeypatch):
        from repro.core.kernel.segments import SegmentedCorpusIndex

        manager = self.served(sports_lake, sports_graph, sports_mapping)
        listed = []
        mirrors = SegmentedCorpusIndex.mirrors
        monkeypatch.setattr(
            SegmentedCorpusIndex, "mirrors",
            lambda index, ids: listed.append(len(ids)) or mirrors(index, ids),
        )
        try:
            self.read(manager)  # the first generation checks its lake once
            self.read_tasks(manager)  # once per task engine too
            listed.clear()
            manager.apply(
                lambda thetis: thetis.add_table(extra_table(), link=True)
            )
            added = self.read(manager)
            assert added == self.reference(manager)
            added_tasks = self.read_tasks(manager)
            assert added_tasks == self.tasks_reference(manager)
            manager.apply(lambda thetis: thetis.remove_table("TX"))
            removed = self.read(manager)
            assert removed == self.reference(manager)
            removed_tasks = self.read_tasks(manager)
            assert listed == []
            assert removed_tasks == self.tasks_reference(manager)
            # A lake changed behind the engine's back is still listed.
            thetis = manager.current.thetis
            thetis.lake.add(extra_table("TY"))
            thetis.search(QUERY, k=5)
            assert listed == [len(thetis.lake)]
        finally:
            manager.close()

    def test_served_swap_does_no_whole_lake_work(
            self, sports_lake, sports_graph, sports_mapping, monkeypatch):
        from repro.core.kernel.segments import LakeLayout
        from repro.similarity.types import TypeJaccardSimilarity

        manager = self.served(sports_lake, sports_graph, sports_mapping)
        self.read(manager)
        similarities = []
        builds = []
        restrictions = []
        original_init = TypeJaccardSimilarity.__init__
        original_build = LakeLayout.build.__func__
        original_positions = LakeLayout.positions

        def counting_init(sigma, *args, **kwargs):
            similarities.append(sigma)
            original_init(sigma, *args, **kwargs)

        def counting_build(cls, *args):
            builds.append(args)
            return original_build(cls, *args)

        def recording_positions(layout, ordinals, linked_only):
            restrictions.append(ordinals)
            return original_positions(layout, ordinals, linked_only)

        monkeypatch.setattr(TypeJaccardSimilarity, "__init__", counting_init)
        monkeypatch.setattr(LakeLayout, "build", classmethod(counting_build))
        monkeypatch.setattr(LakeLayout, "positions", recording_positions)
        try:
            self.mutate_and_read(manager)
            assert similarities == []
            assert builds == []
            assert restrictions and all(
                ordinals is None or ordinals.dtype.kind == "i"
                for ordinals in restrictions
            )
            # Weights exist only for the entities that were read.
            weights = manager.current.thetis.informativeness
            assert set(weights._weights) <= set(QUERY.entities())
            assert len(weights) > len(QUERY.entities())
        finally:
            manager.close()
