"""Micro-batching queue with admission control and per-request timeouts.

Concurrent clients each submit one query; the batcher takes the first
waiting item plus whatever else is queued one event-loop turn later (up
to ``max_batch_size``), splits that batch by each item's
``batch_key()`` (a :class:`~repro.serve.protocol.SearchPlan`), and
hands each group to the runner.  It never waits on a timer: a lone
request is dispatched at once, and batches still form under load
because arrivals queue while the previous batch runs.

Backpressure is explicit and fast: the admission queue is bounded, and
a submit against a full queue raises
:class:`~repro.exceptions.ServerOverloadedError` immediately (the
server turns that into a 503) instead of queueing unboundedly.  Each
accepted request carries a deadline on the loop clock; expiry raises
:class:`~repro.exceptions.RequestTimeoutError` (a 504) and the late
result is dropped.  A runner that computes on the loop thread blocks
the timer that would fire, so the deadline is checked again when the
outcome is delivered, and a request whose waiter already gave up is
never handed to the runner.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence

from repro.exceptions import RequestTimeoutError, ServeError, \
    ServerOverloadedError
from repro.serve.metrics import ServerMetrics

#: Defaults tuned for an interactive service.
DEFAULT_MAX_BATCH_SIZE = 8
DEFAULT_MAX_QUEUE_DEPTH = 64
DEFAULT_REQUEST_TIMEOUT = 30.0

#: Sentinel that asks the worker loop to exit once the requests ahead
#: of it have run.
_SHUTDOWN = object()


class _Pending:
    """One enqueued request with its completion future."""

    __slots__ = ("item", "plan", "future", "timeout", "deadline")

    def __init__(self, item: Any, future: "asyncio.Future[Any]",
                 timeout: float):
        self.item = item
        self.plan = item.batch_key()
        self.future = future
        self.timeout = timeout
        self.deadline = future.get_loop().time() + timeout

    def gave_up(self) -> bool:
        """Whether no one waits for this outcome any more.

        Past its deadline the request is answered with the timeout here
        and now: a batch that blocked the loop kept the deadline timer
        from firing, so the waiter may not have noticed yet.
        """
        if self.future.get_loop().time() >= self.deadline:
            self.resolve(None)
        return self.future.done()

    def resolve(self, outcome: Any) -> None:
        """Deliver ``outcome``, or a timeout once the deadline passed."""
        if self.future.done():
            return  # timed out or cancelled; drop the late result
        if self.future.get_loop().time() >= self.deadline:
            outcome = RequestTimeoutError(self.timeout)
        if isinstance(outcome, BaseException):
            self.future.set_exception(outcome)
        else:
            self.future.set_result(outcome)


#: ``runner(plan, items)``: one outcome per item of one plan group.
BatchRunner = Callable[[Any, Sequence[Any]], Awaitable[List[Any]]]


class MicroBatcher:
    """Coalesce concurrent submissions into batched runner calls.

    Parameters
    ----------
    runner:
        ``async`` callable receiving one plan group, ``(plan, items)``
        where every item's ``batch_key()`` is ``plan``, and returning
        one outcome per item, aligned by position.  An outcome may be
        an exception instance, which is raised to that item's submitter
        only; a runner that raises fails its group only.  The server's
        runner scores the group on the loop thread itself, so nothing
        else on the loop runs until it returns.
    metrics:
        The node's counters; each coalesced batch is counted once (one
        :meth:`~repro.serve.metrics.ServerMetrics.batch_executed` over
        the items that ran, however many groups it split into).
    max_batch_size:
        Hard cap on items per runner call.
    max_queue_depth:
        Admission bound; submissions beyond it fast-fail with
        :class:`ServerOverloadedError`.
    request_timeout:
        Default per-request deadline in seconds (overridable per
        submission).
    """

    def __init__(
        self,
        runner: BatchRunner,
        metrics: ServerMetrics,
        max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
        max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        self.runner = runner
        self.metrics = metrics
        self.max_batch_size = max_batch_size
        self.max_queue_depth = max_queue_depth
        self.request_timeout = request_timeout
        self._queue: Optional["asyncio.Queue[Any]"] = None
        self._worker: Optional["asyncio.Task[None]"] = None
        self._accepting = False

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests admitted but not yet dispatched to a batch."""
        return self._queue.qsize() if self._queue is not None else 0

    @property
    def running(self) -> bool:
        return self._worker is not None and not self._worker.done()

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Create the queue and worker task on the running loop."""
        if self.running:
            return
        self._queue = asyncio.Queue(maxsize=self.max_queue_depth)
        self._worker = asyncio.get_running_loop().create_task(
            self._worker_loop(), name="thetis-batcher"
        )
        self._accepting = True

    async def stop(self) -> None:
        """Stop admissions, run everything already admitted, join the worker."""
        if self._queue is None:
            return
        self._accepting = False
        # A full queue must not block shutdown: admissions are closed,
        # so the worker only ever shrinks the queue from here on.
        while True:
            try:
                self._queue.put_nowait(_SHUTDOWN)
                break
            except asyncio.QueueFull:
                await asyncio.sleep(0.001)
        if self._worker is not None:
            await self._worker
            self._worker = None
        self._queue = None

    # ------------------------------------------------------------------
    async def submit(self, item: Any,
                     timeout: Optional[float] = None) -> Any:
        """Admit ``item``, await its batched outcome.

        Raises
        ------
        ServerOverloadedError
            If the admission queue is full or the batcher is stopped.
        RequestTimeoutError
            If no outcome arrives within the deadline.
        """
        if self._queue is None or not self._accepting:
            raise ServeError("batcher is not accepting requests")
        future: "asyncio.Future[Any]" = (
            asyncio.get_running_loop().create_future()
        )
        deadline = timeout if timeout is not None else self.request_timeout
        pending = _Pending(item, future, deadline)
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            raise ServerOverloadedError(
                self._queue.qsize(), self.max_queue_depth
            ) from None
        try:
            return await asyncio.wait_for(future, deadline)
        except asyncio.TimeoutError:
            raise RequestTimeoutError(deadline) from None

    # ------------------------------------------------------------------
    async def _collect_batch(self, first: Any) -> tuple:
        """``first`` plus whatever is queued one loop turn later.

        The single ``sleep(0)`` lets handlers already scheduled in this
        loop iteration (a burst that arrived together) enqueue first;
        nothing waits on a timer.  Returns ``(batch, saw_shutdown)``.
        """
        assert self._queue is not None
        batch = [first]
        await asyncio.sleep(0)
        while len(batch) < self.max_batch_size:
            try:
                nxt = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if nxt is _SHUTDOWN:
                return batch, True
            batch.append(nxt)
        return batch, False

    async def _run_batch(self, batch: List[_Pending]) -> None:
        """Run one coalesced batch, one runner call per plan group.

        Just before its group runs, each request whose waiter gave up
        (timed out or cancelled) is dropped: its answer could reach no
        one, and an earlier group may have blocked the loop past its
        deadline.  The batch is counted once, over the items that ran.
        """
        groups: Dict[Any, List[_Pending]] = {}
        for pending in batch:
            groups.setdefault(pending.plan, []).append(pending)
        ran = 0
        for plan, group in groups.items():
            group = [pending for pending in group if not pending.gave_up()]
            if not group:
                continue
            ran += len(group)
            try:
                outcomes = await self.runner(
                    plan, [pending.item for pending in group]
                )
                if len(outcomes) != len(group):
                    raise ServeError(
                        f"batch runner returned {len(outcomes)} outcomes "
                        f"for {len(group)} items"
                    )
            except Exception as exc:  # confined to this plan's group
                outcomes = [exc] * len(group)
            for pending, outcome in zip(group, outcomes):
                pending.resolve(outcome)
        if ran:
            self.metrics.batch_executed(ran)

    async def _worker_loop(self) -> None:
        """Run batches until the shutdown sentinel.

        :meth:`stop` closes admissions before it enqueues the sentinel,
        so everything admitted is ahead of it and runs first.
        """
        assert self._queue is not None
        shutdown = False
        while not shutdown:
            first = await self._queue.get()
            if first is _SHUTDOWN:
                break
            batch, shutdown = await self._collect_batch(first)
            await self._run_batch(batch)
