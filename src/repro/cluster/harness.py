"""Thread harnesses running cluster nodes in-process.

Each node is a :class:`repro.serve.server.LoopThread`, the base of
:class:`~repro.serve.server.ServerThread` too: its own event-loop
thread with a synchronous start/stop surface, so tests and benchmarks
can stand up a whole fleet — N workers plus a coordinator on ephemeral
ports — inside one process and drive it over real sockets.  The
production deployment runs the same classes as separate processes via
``thetis cluster worker|serve``; nothing in the protocol knows the
difference.

:meth:`WorkerThread.crash` kills a worker the way the coordinator
would observe a dead process — listening socket closed, in-flight
connections aborted, no goodbye — which is what the fail-over tests
and the kill-a-worker benchmark are about.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.cluster.coordinator import ClusterConfig, ClusterCoordinator
from repro.cluster.worker import ClusterWorker, WorkerConfig
from repro.exceptions import ClusterError
from repro.serve.server import LoopThread
from repro.system import Thetis


class WorkerThread(LoopThread):
    """Run a :class:`ClusterWorker` on a dedicated event-loop thread."""

    def __init__(self, thetis: Thetis, config: WorkerConfig):
        super().__init__(name=f"thetis-worker-{config.worker_id}")
        self.worker = ClusterWorker(thetis, config)

    async def _start_node(self) -> None:
        await self.worker.start()

    async def _stop_node(self) -> None:
        await self.worker.shutdown()

    @property
    def port(self) -> int:
        return self.worker.port

    def crash(self, timeout: float = 10.0) -> None:
        """Simulate a worker death: abort everything, skip the goodbye."""
        self._finish(self.worker.abort, timeout)


class CoordinatorThread(LoopThread):
    """Run a :class:`ClusterCoordinator` on a dedicated event-loop thread."""

    def __init__(self, config: Optional[ClusterConfig] = None):
        super().__init__(name="thetis-coordinator")
        self.coordinator = ClusterCoordinator(config or ClusterConfig())

    async def _start_node(self) -> None:
        await self.coordinator.start()

    async def _stop_node(self) -> None:
        await self.coordinator.shutdown()

    @property
    def port(self) -> int:
        return self.coordinator.port

    @property
    def control_port(self) -> int:
        return self.coordinator.control_port


class ClusterHarness:
    """A whole in-process fleet: coordinator + N registered workers.

    ``thetis_factory`` is called once per worker — each worker owns an
    independent :class:`Thetis` over (its own copy of, or a shared
    memmap of) the same corpus, exactly as separate processes would.
    """

    def __init__(
        self,
        thetis_factory: Callable[[int], Thetis],
        workers: int = 2,
        config: Optional[ClusterConfig] = None,
        worker_config: Optional[Callable[[int], WorkerConfig]] = None,
    ):
        if workers < 1:
            raise ClusterError("a cluster needs at least one worker")
        self._factory = thetis_factory
        self._make_worker_config = worker_config
        self._num_workers = workers
        self.coordinator_thread = CoordinatorThread(config)
        self.worker_threads: List[WorkerThread] = []

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The coordinator's HTTP port."""
        return self.coordinator_thread.port

    @property
    def control_port(self) -> int:
        return self.coordinator_thread.control_port

    def start(self) -> "ClusterHarness":
        self.coordinator_thread.start()
        for index in range(self._num_workers):
            self.add_worker(index)
        return self

    def add_worker(self, index: int) -> WorkerThread:
        """Start one more worker and register it (a live rebalance)."""
        if self._make_worker_config is not None:
            config = self._make_worker_config(index)
        else:
            config = WorkerConfig(worker_id=f"worker-{index}")
        config.coordinator_host = self.coordinator_thread.coordinator.config.host
        config.coordinator_port = self.control_port
        thread = WorkerThread(self._factory(index), config)
        thread.start()
        self.worker_threads.append(thread)
        return thread

    def crash_worker(self, index: int) -> None:
        """Kill worker ``index`` abruptly (fail-over simulation)."""
        self.worker_threads[index].crash()

    def stop(self) -> None:
        for thread in self.worker_threads:
            try:
                thread.stop()
            except Exception:  # best-effort teardown of a crashed node
                pass
        self.coordinator_thread.stop()

    def __enter__(self) -> "ClusterHarness":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
