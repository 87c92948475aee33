"""Traced launcher: ``repro.cli.main`` with timing spans around each layer.

    python host.py --trace spans.jsonl -- serve --graph ... --port 0

Wraps the public entry points named in :data:`PROBES` (resolved by
dotted name, so nothing under ``src/`` changes), runs the CLI unchanged,
and dumps the spans as JSON lines when the CLI returns (the CLI returns
on SIGTERM).  A probe whose target no longer exists is reported on
stderr and in the dump's header line, and never fails the run.

Each span is ``(name, start, end, id, parent, size)``; ``parent`` comes
from a ``contextvars`` variable, so spans nest per asyncio task and per
thread.  asyncio does not carry the context into ``run_in_executor``
threads, so a batch's kernel spans are roots on the executor thread;
the driver joins them to their request by time, not by parent.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

#: ``(span name, "module:qualname", kind)``.  Kinds: ``call`` (sync),
#: ``acall`` (coroutine), ``read`` (coroutine taking a StreamReader:
#: the span starts when the first bytes arrive, so idle keep-alive time
#: is not counted as parsing), ``ctx`` (context manager: one span for
#: entering, one for leaving).
PROBES: Tuple[Tuple[str, str, str], ...] = (
    ("serve.http.read_request", "repro.serve.http:read_request", "read"),
    ("serve.http.encode", "repro.serve.http:HttpResponse.encode", "call"),
    ("serve.protocol.from_json",
     "repro.serve.protocol:SearchRequest.from_json", "call"),
    ("serve.protocol.result_to_json",
     "repro.serve.protocol:result_to_json", "call"),
    ("serve.batching.submit",
     "repro.serve.batching:MicroBatcher.submit", "acall"),
    ("serve.snapshot.checkout",
     "repro.serve.snapshot:SnapshotManager.checkout", "ctx"),
    ("serve.snapshot.apply",
     "repro.serve.snapshot:SnapshotManager.apply", "call"),
    ("system.search_many", "repro.system:Thetis.search_many", "call"),
    ("system.search_shard_batch",
     "repro.system:Thetis.search_shard_batch", "call"),
    ("system.add_table", "repro.system:Thetis.add_table", "call"),
    ("system.remove_table", "repro.system:Thetis.remove_table", "call"),
    ("system.snapshot_inputs", "repro.system:Thetis.snapshot_inputs", "call"),
    ("system.seed_engines_from",
     "repro.system:Thetis.seed_engines_from", "call"),
    ("system.warm", "repro.system:Thetis.warm", "call"),
    ("core.kernel.engine.search_batch",
     "repro.core.kernel.engine:VectorizedTableSearchEngine.search_batch",
     "call"),
    ("core.kernel.engine.search_candidates",
     "repro.core.kernel.engine:VectorizedTableSearchEngine.search_candidates",
     "call"),
    ("core.kernel.segments.compile",
     "repro.core.kernel.segments:SegmentedCorpusIndex.compile", "call"),
    ("core.kernel.segments.with_table",
     "repro.core.kernel.segments:SegmentedCorpusIndex.with_table", "call"),
    ("core.kernel.segments.without_table",
     "repro.core.kernel.segments:SegmentedCorpusIndex.without_table", "call"),
    ("core.kernel.segments.maybe_compacted",
     "repro.core.kernel.segments:SegmentedCorpusIndex.maybe_compacted",
     "call"),
    ("core.kernel.prefilter.candidates",
     "repro.lsh.index:TablePrefilter.candidate_tables", "call"),
    ("core.kernel.union.search_batch",
     "repro.core.kernel.union:VectorizedUnionSearchEngine.search_batch",
     "call"),
    ("core.kernel.union.compile",
     "repro.core.kernel.union:compile_union_index", "call"),
    ("core.kernel.join.search_batch",
     "repro.core.kernel.join:VectorizedJoinSearchEngine.search_batch",
     "call"),
    ("core.kernel.join.compile",
     "repro.core.kernel.join:compile_join_index", "call"),
    ("core.result.from_arrays",
     "repro.core.result:ResultSet.from_arrays", "call"),
    ("cluster.client.request",
     "repro.cluster.client:WorkerLink.request", "acall"),
    ("cluster.protocol.encode_frame",
     "repro.cluster.protocol:encode_frame", "call"),
    ("cluster.protocol.read_frame",
     "repro.cluster.protocol:read_frame", "read"),
    ("core.parallel.merge_topk", "repro.core.parallel:merge_topk", "call"),
)

# CLOCK_MONOTONIC on Linux: one clock for every process of the machine,
# so spans from several servers and the load generator's timestamps
# compare directly.
now_ns = time.monotonic_ns


class _Open:
    """The mutable part of a span while it is open."""

    __slots__ = ("start", "size")

    def __init__(self) -> None:
        self.start = now_ns()
        self.size = 0


class Recorder:
    """In-memory span list; appends are atomic under the GIL."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, int, int, int, Optional[int], int]] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Optional[int]] = (
            contextvars.ContextVar("perf_span", default=None)
        )

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = next(self._ids)
        parent = self._current.get()
        token = self._current.set(span_id)
        opened = _Open()
        try:
            yield opened
        finally:
            ended = now_ns()
            self._current.reset(token)
            self.spans.append(
                (name, opened.start, ended, span_id, parent, opened.size)
            )

    # -- one wrapper per probe kind ------------------------------------
    def call(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as opened:
                result = fn(*args, **kwargs)
                if isinstance(result, (bytes, bytearray)):
                    opened.size = len(result)
                return result
        return wrapper

    def acall(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            with self.span(name):
                return await fn(*args, **kwargs)
        return wrapper

    def read(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        async def wrapper(reader, *args, **kwargs):
            probe = _FirstByte(reader)
            with self.span(name) as opened:
                try:
                    return await fn(probe, *args, **kwargs)
                finally:
                    opened.start = probe.first or now_ns()
        return wrapper

    def ctx(self, name: str, fn: Callable) -> Callable:
        recorder = self

        class Timed:
            def __init__(self, manager: Any) -> None:
                self._manager = manager

            def __enter__(self) -> Any:
                with recorder.span(name):
                    return self._manager.__enter__()

            def __exit__(self, *exc_info: Any) -> Any:
                with recorder.span(name):
                    return self._manager.__exit__(*exc_info)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return Timed(fn(*args, **kwargs))
        return wrapper

    def dump(self, path: str, resolved: Sequence[str],
             missing: Sequence[str]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"resolved": list(resolved), "missing": list(missing)}
            ) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class _FirstByte:
    """StreamReader stand-in that notes when the first read returned."""

    def __init__(self, reader: Any) -> None:
        self._reader = reader
        self.first: Optional[int] = None

    def __getattr__(self, name: str) -> Any:
        attribute = getattr(self._reader, name)
        if self.first is not None or not name.startswith("read"):
            return attribute

        async def timed(*args, **kwargs):
            data = await attribute(*args, **kwargs)
            if self.first is None:
                self.first = now_ns()
            return data
        return timed


def _resolve(target: str) -> Tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` -> ``(owner object, attribute name)``."""
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part)
    inspect.getattr_static(owner, attribute)  # AttributeError if gone
    return owner, attribute


def install(recorder: Recorder,
            probes: Sequence[Tuple[str, str, str]] = PROBES,
            ) -> Tuple[List[str], List[str]]:
    """Wrap every resolvable probe target; returns (resolved, missing)."""
    resolved: List[str] = []
    missing: List[str] = []
    for name, target, kind in probes:
        try:
            owner, attribute = _resolve(target)
        except (ImportError, AttributeError) as exc:
            print(f"perf-host: warning: probe {name} ({target}) not found, "
                  f"its metrics are omitted: {exc}", file=sys.stderr)
            missing.append(name)
            continue
        raw = inspect.getattr_static(owner, attribute)
        bound = isinstance(raw, (classmethod, staticmethod))
        original = raw.__func__ if bound else raw
        wrapper = getattr(recorder, kind)(name, original)
        setattr(owner, attribute, type(raw)(wrapper) if bound else wrapper)
        if inspect.ismodule(owner):
            # `from module import fn` copies made before this point.
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro"):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
        resolved.append(name)
    return resolved, missing


def main(argv: Sequence[str]) -> int:
    if len(argv) < 3 or argv[0] != "--trace" or argv[2] != "--":
        print("usage: host.py --trace FILE -- <thetis arguments>",
              file=sys.stderr)
        return 2
    import repro.cli
    import repro.cluster  # noqa: F401  (bind every from-import first)
    import repro.serve  # noqa: F401

    recorder = Recorder()
    resolved, missing = install(recorder)
    try:
        return repro.cli.main(list(argv[3:]))
    finally:
        recorder.dump(argv[1], resolved, missing)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
