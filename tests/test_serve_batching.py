"""Tests for the micro-batching queue: coalescing, backpressure, timeouts.

These drive :class:`~repro.serve.batching.MicroBatcher` directly with
synthetic runners (no HTTP, no engine) so each property is isolated:
a lone request is dispatched without waiting on a timer, arrivals
during a batch coalesce into the next one, a batch splits into one
runner call per plan and a failure stays in its plan's group, batched
outcomes align with submissions, a full queue fast-fails with 503
semantics instead of hanging, deadlines expire into 504 semantics, a
request whose waiter gave up is never run, and shutdown drains
admitted work or fails it fast.
"""

import asyncio
import time

import pytest

from repro.exceptions import (
    RequestTimeoutError,
    ServeError,
    ServerOverloadedError,
)
from repro.serve.batching import MicroBatcher
from repro.serve.metrics import ServerMetrics


def run(coro):
    """Run an async test body on a fresh event loop."""
    return asyncio.run(coro)


class Job(int):
    """An int batch item; ``plan`` stands in for a ``SearchPlan``."""

    plan = "plan"

    def batch_key(self):
        return self.plan


class OtherJob(Job):
    plan = "other"


class TestBatchingCorrectness:
    def test_single_item_roundtrip(self):
        async def body():
            async def runner(plan, items):
                return [item * 2 for item in items]

            batcher = MicroBatcher(runner, ServerMetrics())
            await batcher.start()
            try:
                assert await batcher.submit(Job(21)) == 42
            finally:
                await batcher.stop()

        run(body())

    def test_concurrent_submissions_coalesce(self):
        """A burst of concurrent submits folds into few runner calls,
        and every submitter still receives exactly its own outcome."""
        async def body():
            sizes = []

            async def runner(plan, items):
                sizes.append(len(items))
                return [item + 100 for item in items]

            batcher = MicroBatcher(runner, ServerMetrics(), max_batch_size=8)
            await batcher.start()
            try:
                results = await asyncio.gather(
                    *(batcher.submit(Job(i)) for i in range(8))
                )
            finally:
                await batcher.stop()
            assert results == [i + 100 for i in range(8)]
            # Fewer runner calls than submissions, and at least one
            # call actually batched multiple items.
            assert sum(sizes) == 8
            assert len(sizes) < 8
            assert max(sizes) >= 2
            assert batcher.metrics.batched_queries_total == 8
            assert batcher.metrics.batches_total == len(sizes)

        run(body())

    def test_lone_submit_dispatches_without_a_timer(self):
        """A lone request reaches the runner within a few loop turns:
        nothing waits for stragglers that cannot arrive."""
        async def body():
            seen = []

            async def runner(plan, items):
                seen.extend(items)
                return list(items)

            batcher = MicroBatcher(runner, ServerMetrics())
            await batcher.start()
            try:
                pending = asyncio.ensure_future(batcher.submit(Job(7)))
                for _ in range(20):
                    await asyncio.sleep(0)
                assert seen == [7]
                assert await pending == 7
            finally:
                await batcher.stop()

        run(body())

    def test_arrivals_during_a_batch_coalesce_into_the_next(self):
        """Load forms batches: whatever queues while a batch runs rides
        the next one, capped at ``max_batch_size``."""
        async def body():
            gate = asyncio.Event()
            batches = []

            async def runner(plan, items):
                batches.append(list(items))
                if len(batches) == 1:
                    await gate.wait()
                return list(items)

            batcher = MicroBatcher(runner, ServerMetrics(), max_batch_size=3)
            await batcher.start()
            try:
                first = asyncio.ensure_future(batcher.submit(Job(0)))
                while not batches:
                    await asyncio.sleep(0)
                rest = [
                    asyncio.ensure_future(batcher.submit(Job(i)))
                    for i in range(1, 6)
                ]
                while batcher.queue_depth < 5:
                    await asyncio.sleep(0)
                gate.set()
                assert await first == 0
                assert await asyncio.gather(*rest) == [1, 2, 3, 4, 5]
            finally:
                await batcher.stop()
            assert batches == [[0], [1, 2, 3], [4, 5]]

        run(body())

    def test_batch_size_cap_respected(self):
        async def body():
            sizes = []

            async def runner(plan, items):
                sizes.append(len(items))
                return list(items)

            batcher = MicroBatcher(runner, ServerMetrics(), max_batch_size=3)
            await batcher.start()
            try:
                await asyncio.gather(
                    *(batcher.submit(Job(i)) for i in range(10))
                )
            finally:
                await batcher.stop()
            assert max(sizes) <= 3

        run(body())

    def test_per_item_exception_outcomes(self):
        """An exception outcome fails only its own submitter."""
        async def body():
            async def runner(plan, items):
                return [
                    ValueError("odd") if item % 2 else item
                    for item in items
                ]

            batcher = MicroBatcher(runner, ServerMetrics(), max_batch_size=4)
            await batcher.start()
            try:
                outcomes = await asyncio.gather(
                    *(batcher.submit(Job(i)) for i in range(4)),
                    return_exceptions=True,
                )
            finally:
                await batcher.stop()
            assert outcomes[0] == 0
            assert isinstance(outcomes[1], ValueError)
            assert outcomes[2] == 2
            assert isinstance(outcomes[3], ValueError)

        run(body())

    def test_runner_failure_fails_whole_batch(self):
        async def body():
            async def runner(plan, items):
                raise RuntimeError("engine exploded")

            batcher = MicroBatcher(runner, ServerMetrics())
            await batcher.start()
            try:
                with pytest.raises(RuntimeError, match="engine exploded"):
                    await batcher.submit(Job(1))
            finally:
                await batcher.stop()

        run(body())

    def test_batch_splits_by_plan_and_confines_failures(self):
        """One coalesced batch is one runner call per plan; a runner
        that raises fails its own group only, and the batch is counted
        once, not once per group."""
        async def body():
            calls = []

            async def runner(plan, items):
                calls.append((plan, sorted(items)))
                if plan == "other":
                    raise RuntimeError("other plan exploded")
                return [item * 10 for item in items]

            batcher = MicroBatcher(runner, ServerMetrics(), max_batch_size=8)
            await batcher.start()
            try:
                outcomes = await asyncio.gather(
                    *(batcher.submit(Job(i) if i % 2 else OtherJob(i))
                      for i in range(6)),
                    return_exceptions=True,
                )
            finally:
                await batcher.stop()
            assert sorted(calls) == [("other", [0, 2, 4]),
                                     ("plan", [1, 3, 5])]
            assert outcomes[1::2] == [10, 30, 50]
            assert all(isinstance(o, RuntimeError) for o in outcomes[::2])
            assert batcher.metrics.batches_total == 1
            assert batcher.metrics.batched_queries_total == 6

        run(body())

    def test_misaligned_runner_output_rejected(self):
        async def body():
            async def runner(plan, items):
                return []  # wrong length

            batcher = MicroBatcher(runner, ServerMetrics())
            await batcher.start()
            try:
                with pytest.raises(ServeError, match="outcomes"):
                    await batcher.submit(Job(1))
            finally:
                await batcher.stop()

        run(body())


class TestBackpressure:
    def test_overload_fast_fails(self):
        """With the worker wedged and the queue full, the next submit
        raises ServerOverloadedError immediately instead of hanging."""
        async def body():
            gate = asyncio.Event()

            async def runner(plan, items):
                await gate.wait()
                return list(items)

            batcher = MicroBatcher(
                runner, ServerMetrics(), max_batch_size=1, max_queue_depth=2,
                request_timeout=5.0,
            )
            await batcher.start()
            # First submission is picked up by the worker and blocks
            # on the gate; the next two fill the admission queue.
            inflight = asyncio.ensure_future(batcher.submit(Job(1)))
            await asyncio.sleep(0.02)
            queued = [
                asyncio.ensure_future(batcher.submit(Job(x)))
                for x in (2, 3)
            ]
            await asyncio.sleep(0.02)
            with pytest.raises(ServerOverloadedError):
                await batcher.submit(Job(99))
            # Release the gate: everything admitted still completes —
            # overload rejects new work without dropping accepted work.
            gate.set()
            assert await inflight == 1
            assert await asyncio.gather(*queued) == [2, 3]
            await batcher.stop()

        run(body())

    def test_overload_error_is_immediate(self):
        async def body():
            gate = asyncio.Event()

            async def runner(plan, items):
                await gate.wait()
                return list(items)

            batcher = MicroBatcher(runner, ServerMetrics(), max_batch_size=1,
                                   max_queue_depth=1)
            await batcher.start()
            inflight = asyncio.ensure_future(batcher.submit(Job(1)))
            await asyncio.sleep(0.02)
            queued = asyncio.ensure_future(batcher.submit(Job(2)))
            await asyncio.sleep(0.02)
            loop = asyncio.get_running_loop()
            started = loop.time()
            with pytest.raises(ServerOverloadedError):
                await batcher.submit(Job(99))
            # The rejection must not wait out the request timeout.
            assert loop.time() - started < 1.0
            gate.set()
            await inflight
            await queued
            await batcher.stop()

        run(body())

    def test_submit_after_stop_rejected(self):
        async def body():
            async def runner(plan, items):
                return list(items)

            batcher = MicroBatcher(runner, ServerMetrics())
            await batcher.start()
            await batcher.stop()
            with pytest.raises(ServeError):
                await batcher.submit(Job(1))

        run(body())


class TestTimeouts:
    def test_slow_batch_times_out(self):
        async def body():
            async def runner(plan, items):
                await asyncio.sleep(0.5)
                return list(items)

            batcher = MicroBatcher(runner, ServerMetrics(),
                                   request_timeout=0.05)
            await batcher.start()
            try:
                with pytest.raises(RequestTimeoutError):
                    await batcher.submit(Job(1))
            finally:
                await batcher.stop()

        run(body())

    def test_runner_blocking_the_loop_past_deadline_times_out(self):
        """A runner that computes on the loop thread keeps the deadline
        timer from firing; the outcome is checked on delivery."""
        async def body():
            async def runner(plan, items):
                time.sleep(0.2)
                return list(items)

            batcher = MicroBatcher(runner, ServerMetrics(),
                                   request_timeout=0.05)
            await batcher.start()
            try:
                with pytest.raises(RequestTimeoutError):
                    await batcher.submit(Job(1))
                assert await batcher.submit(Job(2), timeout=5.0) == 2
            finally:
                await batcher.stop()

        run(body())

    def test_late_result_dropped_not_crashed(self):
        """After a timeout the batch still finishes; its late result is
        discarded silently and the batcher keeps serving."""
        async def body():
            async def runner(plan, items):
                await asyncio.sleep(0.1)
                return [item * 2 for item in items]

            batcher = MicroBatcher(runner, ServerMetrics(),
                                   request_timeout=0.02)
            await batcher.start()
            try:
                with pytest.raises(RequestTimeoutError):
                    await batcher.submit(Job(1))
                # A generous per-call timeout shows the worker survived.
                assert await batcher.submit(Job(2), timeout=5.0) == 4
            finally:
                await batcher.stop()

        run(body())

    def test_requests_whose_waiter_timed_out_are_not_run(self):
        """A runner blocking the loop past every queued deadline: the
        queued requests answer 504 without reaching the runner."""
        async def body():
            seen = []

            async def runner(plan, items):
                seen.append(list(items))
                time.sleep(0.2)
                return list(items)

            batcher = MicroBatcher(runner, ServerMetrics(), max_batch_size=1,
                                   request_timeout=0.05)
            await batcher.start()
            try:
                outcomes = await asyncio.gather(
                    *(batcher.submit(Job(i)) for i in range(4)),
                    return_exceptions=True,
                )
            finally:
                await batcher.stop()
            assert all(isinstance(o, RequestTimeoutError) for o in outcomes)
            assert seen in ([], [[0]])

        run(body())

    def test_later_plan_group_past_its_deadline_is_not_run(self):
        """One batch, two plans: the first group blocks the loop past
        the second group's deadline, so the second group answers 504
        without reaching the runner and the batch counts one item."""
        async def body():
            seen = []

            async def runner(plan, items):
                seen.append((plan, list(items)))
                time.sleep(0.2)
                return list(items)

            batcher = MicroBatcher(runner, ServerMetrics(),
                                   request_timeout=0.05)
            await batcher.start()
            try:
                first, second = await asyncio.gather(
                    batcher.submit(Job(0), timeout=5.0),
                    batcher.submit(OtherJob(1)),
                    return_exceptions=True,
                )
            finally:
                await batcher.stop()
            assert first == 0
            assert isinstance(second, RequestTimeoutError)
            assert seen == [("plan", [0])]
            assert batcher.metrics.batches_total == 1
            assert batcher.metrics.batched_queries_total == 1

        run(body())

    def test_per_submit_timeout_overrides_default(self):
        async def body():
            async def runner(plan, items):
                await asyncio.sleep(0.2)
                return list(items)

            batcher = MicroBatcher(runner, ServerMetrics(),
                                   request_timeout=10.0)
            await batcher.start()
            try:
                with pytest.raises(RequestTimeoutError):
                    await batcher.submit(Job(1), timeout=0.02)
            finally:
                await batcher.stop()

        run(body())


class TestShutdown:
    def test_stop_drains_admitted_work(self):
        async def body():
            async def runner(plan, items):
                await asyncio.sleep(0.02)
                return [item + 1 for item in items]

            batcher = MicroBatcher(runner, ServerMetrics(), max_batch_size=4)
            await batcher.start()
            tasks = [
                asyncio.ensure_future(batcher.submit(Job(i)))
                for i in range(10)
            ]
            await asyncio.sleep(0)  # let the submissions enqueue
            await batcher.stop()
            assert await asyncio.gather(*tasks) == list(range(1, 11))
            assert not batcher.running

        run(body())

    def test_stop_idempotent(self):
        async def body():
            async def runner(plan, items):
                return list(items)

            batcher = MicroBatcher(runner, ServerMetrics())
            await batcher.start()
            await batcher.stop()
            await batcher.stop()  # second stop is a no-op

        run(body())


class TestValidation:
    def test_item_without_a_plan_fails_its_submit_only(self):
        """The plan is read at admission: an item without one fails its
        own submit and the batcher keeps serving."""
        async def body():
            async def runner(plan, items):
                return list(items)

            batcher = MicroBatcher(runner, ServerMetrics(),
                                   request_timeout=5.0)
            await batcher.start()
            try:
                with pytest.raises(AttributeError):
                    await batcher.submit(object())
                assert await batcher.submit(Job(3)) == 3
            finally:
                await batcher.stop()

        run(body())

    def test_bad_parameters_rejected(self):
        async def runner(plan, items):
            return list(items)

        with pytest.raises(ValueError):
            MicroBatcher(runner, ServerMetrics(), max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(runner, ServerMetrics(), max_queue_depth=0)
