"""The four workloads: what each sends, to which topology, and one run of it.

A run is: start the server processes -> poll ``/readyz`` -> oracle check
-> untimed warm-up -> measured window (with ``GET /metrics`` scraped
before and after) -> stop the processes.  Why each workload exists is
in README.md; the one-line version is in ``WORKLOADS``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from benchmarks.perf import streams
from benchmarks.perf.loadgen import Feed, Lane, Sample, Window, drive
from benchmarks.perf.oracle import (
    Oracle, OracleMismatch, check, serve_rankings,
)
from benchmarks.perf.procs import Fleet, run_cli
from benchmarks.perf.streams import Request
from benchmarks.perf.trace import Trace

#: name -> why it exists (BENCHMARK.json carries the same lines).
WORKLOADS: Dict[str, str] = {
    "entity_fresh_5t": "closed loop, 2 connections, never-repeated exact "
                       "5-tuple queries: every memo misses, so the scoring "
                       "kernel does the work",
    "entity_hot_1t": "open loop at 60 req/s, Zipf draws from 32 hot 1-tuple "
                     "queries: memos hit, so HTTP, batching and encode set "
                     "the latency",
    "tasks_mutating": "one connection taking turns: 24 fresh prefilter/"
                      "union/join reads, then a table add or remove; "
                      "snapshot swaps and index rebuilds sit between reads",
    "cluster_fresh_5t": "the entity_fresh_5t stream through a coordinator "
                        "and 2 workers: the difference is the scatter, "
                        "frame codec and merge tax",
}

CONNECTIONS = 2
HOT_RATE = 60.0
READER_WARMUP_EACH = 8
#: tasks_mutating: reads between two table mutations (8 of each kind).
READS_PER_WRITE = 24
#: Adds run before timing, so the first swap's one-off work is not timed.
WRITER_WARMUP = 1
#: Sizes the tasks_mutating stream: a cycle of 24 reads and a mutation
#: takes ~1.6 s today, so this leaves room for a 5x faster system.
MAX_CYCLES_PER_SECOND = 3


@dataclass(frozen=True)
class Scale:
    """How much of everything one run does."""

    tables: int
    pool_pairs: int
    fresh_requests: int     # request cap of a fresh-stream window
    fresh_warmup: int
    fresh_seconds: Optional[float]   # time cap of a fresh-stream window
    hot_seconds: float
    mutating_seconds: float
    oracle_5t: int          # parity-checked queries per kind, 5-tuple
    oracle_1t: int          # ... and 1-tuple (the scalar engine is ~6x
                            # faster on those, so a run can afford more)
    setups: int             # set-ups timed per workload (median reported)
    verify_restored: bool   # tasks_mutating: remove leftovers, re-check

    def shrunk(self, factor: float) -> "Scale":
        """The traced window: a fraction of the requests, one set-up."""
        return replace(
            self,
            fresh_requests=max(8, int(self.fresh_requests * factor)),
            fresh_seconds=(self.fresh_seconds * factor
                           if self.fresh_seconds else None),
            hot_seconds=self.hot_seconds * factor,
            mutating_seconds=self.mutating_seconds * factor,
            setups=1,
        )


FULL = Scale(tables=2000, pool_pairs=8000, fresh_requests=360,
             fresh_warmup=40, fresh_seconds=None, hot_seconds=30.0,
             mutating_seconds=40.0, oracle_5t=8, oracle_1t=8, setups=3,
             verify_restored=True)
SMOKE = Scale(tables=200, pool_pairs=2000, fresh_requests=60,
              fresh_warmup=10, fresh_seconds=5.0, hot_seconds=5.0,
              mutating_seconds=5.0, oracle_5t=2, oracle_1t=2, setups=1,
              verify_restored=True)


def timed(seconds: float, setups: int = 2) -> Scale:
    """One workload inside the ~30 s a driver run may take in total.

    Every window lasts ``seconds``; fresh streams are long enough that a
    system several times faster than today's still cannot exhaust them.
    Lake generation (~5 s) is not shrunk, so the warm-up, the oracle
    sample and the number of timed set-ups are, and tasks_mutating skips
    undoing the writer (three ~1.5 s removals) and the re-check after it.
    """
    return replace(FULL, fresh_requests=int(100 * seconds),
                   fresh_warmup=16, fresh_seconds=seconds,
                   hot_seconds=seconds, mutating_seconds=seconds,
                   oracle_5t=1, oracle_1t=4, setups=setups,
                   verify_restored=False)


@dataclass
class Lake:
    directory: Path
    build_s: float
    tables: List[Dict[str, Any]]
    pool: List[streams.PoolQuery]


def generate_lake(seed: int, scale: Scale, directory: Path) -> Lake:
    """``thetis generate`` once; the query pool rides in ``queries.json``."""
    build_s = run_cli([
        "generate", f"--out={directory}", "--profile=wt2015",
        f"--tables={scale.tables}", f"--seed={seed}",
        f"--queries={scale.pool_pairs}",
    ], directory.with_suffix(".log"))
    tables = json.loads((directory / "lake.json").read_text())["tables"]
    return Lake(directory, build_s, tables,
                streams.load_pool(directory / "queries.json"))


@dataclass
class Plan:
    """The requests of one run; feeds are cursors, so a plan runs once."""

    name: str
    topology: str
    oracle: List[Request]           # parity-checked before anything else
    warmups: List[List[Lane]]       # each driven to its end, untimed
    lanes: List[Lane]               # the measured window
    seconds: Optional[float]
    verify_restored: bool = False   # undo the writer, re-check rankings


def _first_per_kind(requests: Sequence[Request], count: int) -> List[Request]:
    taken: Dict[str, List[Request]] = {}
    for request in requests:
        bucket = taken.setdefault(request.kind, [])
        if len(bucket) < count:
            bucket.append(request)
    return [request for bucket in taken.values() for request in bucket]


def _shared(requests: Sequence[Request],
            rate: Optional[float] = None) -> List[Lane]:
    feed = Feed(requests, rate)
    return [Lane(feed) for _ in range(CONNECTIONS)]


def plan(name: str, lake: Lake, seed: int, scale: Scale) -> Plan:
    """The requests of one workload at one scale.

    Oracle queries come from the warm-up stream, so checking them does
    not pre-warm any memo for a query of the measured window.
    """
    if name in ("entity_fresh_5t", "cluster_fresh_5t"):
        warmup, window = streams.fresh_5t_stream(
            lake.pool, seed, scale.fresh_warmup, scale.fresh_requests)
        topology = "serve" if name == "entity_fresh_5t" else "cluster"
        return Plan(name, topology, _first_per_kind(warmup, scale.oracle_5t),
                    [_shared(warmup)], _shared(window), scale.fresh_seconds)
    if name == "entity_hot_1t":
        warmup, window = streams.hot_1t_stream(
            lake.pool, seed, int(HOT_RATE * scale.hot_seconds))
        return Plan(name, "serve", _first_per_kind(warmup, scale.oracle_1t),
                    [_shared(warmup)], _shared(window, HOT_RATE), None)
    if name == "tasks_mutating":
        cycles = int(scale.mutating_seconds * MAX_CYCLES_PER_SECOND) + 1
        warmup, reads = streams.reader_stream(
            lake.pool, seed, READER_WARMUP_EACH, cycles * READS_PER_WRITE)
        writes = streams.writer_schedule(
            lake.tables, seed, WRITER_WARMUP + cycles)
        # The schedule opens with WRITER_LAG adds before its first
        # remove, so its first WRITER_WARMUP entries are all adds.
        return Plan(name, "serve", _first_per_kind(warmup, scale.oracle_1t),
                    [_shared(warmup), [Lane(Feed(writes[:WRITER_WARMUP]))]],
                    [Lane(Feed(streams.take_turns(
                        reads, writes[WRITER_WARMUP:], READS_PER_WRITE)))],
                    scale.mutating_seconds,
                    verify_restored=scale.verify_restored)
    raise KeyError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")


@dataclass
class Run:
    """Everything measured in one run of one workload."""

    setup_times: List[float]
    window: Window
    phases: Dict[str, Tuple[int, int]]      # phase -> (sent, failed)
    before: dict
    after: dict
    peak_rss_mb: float
    trace: Optional[Trace]

    @property
    def attempted(self) -> int:
        return sum(sent for sent, _ in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(failed for _, failed in self.phases.values())


def _tally(samples: Sequence[Sample]) -> Tuple[int, int]:
    return len(samples), sum(1 for sample in samples if not sample.ok)


def execute(chosen: Plan, lake: Lake, oracle: Oracle, workdir: Path,
            setups: int = 1, traced: bool = False) -> Run:
    """One run of a workload; raises if a server dies or parity fails."""
    label = chosen.name + ("-traced" if traced else "")

    def fleet_of(suffix: str) -> Fleet:
        return Fleet(chosen.topology, lake.directory, workdir,
                     label + suffix, traced)

    setup_times = []
    for n in range(setups - 1):
        with fleet_of(f"-setup{n}") as spare:
            setup_times.append(spare.setup_s)
    phases: Dict[str, Tuple[int, int]] = {}
    with fleet_of("") as fleet:
        setup_times.append(fleet.setup_s)
        try:
            served = check(fleet.port, oracle, chosen.oracle)
            phases["oracle"] = (len(served), 0)
            warm = [sample for lanes in chosen.warmups
                    for sample in drive(fleet.port, lanes).samples]
            phases["warm-up"] = _tally(warm)
            before = fleet.metrics()
            window = drive(fleet.port, chosen.lanes, chosen.seconds)
            phases["window"] = _tally(window.samples)
            after = fleet.metrics()
            peak_rss_mb = fleet.peak_rss_mb()
            if chosen.verify_restored and not traced:
                done = [s.request for s in warm + window.samples if s.ok]
                cleanup = drive(fleet.port, [Lane(Feed(
                    streams.leftover_removals(done)))])
                phases["cleanup"] = _tally(cleanup.samples)
                # The lake is the original again: bit-for-bit, not 1e-9.
                if serve_rankings(fleet.port, chosen.oracle) != served:
                    raise OracleMismatch(
                        f"{label}: rankings changed after the writer "
                        "removed everything it added")
            fleet.check_alive()
        except BaseException:
            print(f"{label} failed; last server stderr lines:\n"
                  f"{fleet.stderr_tail()}", file=sys.stderr)
            raise
    trace = (Trace(fleet.span_files, window.start, window.end)
             if traced else None)
    return Run(setup_times, window, phases, before, after,
               peak_rss_mb, trace)
