"""Reads ``host.py`` span dumps and turns them into per-layer numbers.

A dump is JSON lines: a header ``{"resolved": [...], "missing": [...]}``
then one ``[name, start_ns, end_ns, id, parent_id, size]`` per span.
Ids are per process, so every computation that follows parents works
file by file.  Only spans that *start* inside the measured window count,
which drops start-up, the oracle check and the warm-up.
"""

from __future__ import annotations

import bisect
import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Set, Tuple

Span = Tuple[str, int, int, int, object, int]
NAME, START, END, ID, PARENT, SIZE = range(6)

#: Spans that mark a micro-batch starting to execute, used to split a
#: ``MicroBatcher.submit`` span into queue wait and service.
BATCH_WORK = ("system.search_many", "cluster.client.request")


def median(values: Sequence[float]) -> float:
    """``statistics.median``, with 0.0 for no samples."""
    return statistics.median(values) if values else 0.0


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by at least one of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Trace:
    """The spans of one traced window, across the fleet's processes."""

    def __init__(self, files: Sequence[Path], start_s: float,
                 end_s: float) -> None:
        low, high = int(start_s * 1e9), int(end_s * 1e9)
        self.missing: Set[str] = set()
        self.processes: List[List[Span]] = []
        for path in files:
            with open(path, encoding="utf-8") as handle:
                self.missing.update(json.loads(handle.readline())["missing"])
                spans = [tuple(json.loads(line)) for line in handle]
            self.processes.append(
                [span for span in spans if low <= span[START] <= high]
            )
        self._by_name: Dict[str, List[Span]] = defaultdict(list)
        for spans in self.processes:
            for span in spans:
                self._by_name[span[NAME]].append(span)

    def calls(self, name: str) -> int:
        return len(self._by_name[name])

    def busy_ms(self, name: str) -> float:
        """Total time inside ``name`` spans, in ms."""
        return sum(s[END] - s[START] for s in self._by_name[name]) / 1e6

    def self_ms(self, name: str) -> float:
        """``busy_ms`` minus the time the spans' direct children cover."""
        total = 0
        for spans in self.processes:
            children: Dict[object, List[Tuple[int, int]]] = defaultdict(list)
            for span in spans:
                children[span[PARENT]].append((span[START], span[END]))
            for span in spans:
                if span[NAME] == name:
                    covered = union_length(children.get(span[ID], ()))
                    total += span[END] - span[START] - covered
        return total / 1e6

    def bytes(self, name: str) -> int:
        return sum(s[SIZE] for s in self._by_name[name])

    def submit_wait_ms(self) -> List[float]:
        """Per admitted request: submit -> its batch starting to execute.

        The batch that serves a request is the first batch-work span
        lying inside its ``submit`` span: with at most two requests
        outstanding, a batch already running when the request arrived
        started before it and so is not inside.
        """
        waits: List[float] = []
        for spans in self.processes:
            work = sorted((s[START], s[END]) for s in spans
                          if s[NAME] in BATCH_WORK)
            starts = [start for start, _ in work]
            for span in spans:
                if span[NAME] != "serve.batching.submit":
                    continue
                at = bisect.bisect_left(starts, span[START])
                if at < len(work) and work[at][1] <= span[END]:
                    waits.append((work[at][0] - span[START]) / 1e6)
        return waits

    def root_cover_s(self) -> float:
        """Seconds during which some parentless span was open."""
        return union_length(
            (span[START], span[END])
            for spans in self.processes for span in spans
            if span[PARENT] is None
        ) / 1e9
