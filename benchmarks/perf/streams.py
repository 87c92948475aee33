"""Request streams: pure functions of the generated query pool and ``--seed``.

The pool is the ``queries.json`` that ``thetis generate --seed S
--queries N`` writes next to the lake, so the entity URIs match the lake
by construction and the pool itself is a function of the seed (the CLI
derives the query seed from ``--seed``).  Everything here turns that
pool into the wire payloads of one workload; nothing reads a clock or
an unseeded random source, so the same seed gives byte-identical
request lists.
"""

from __future__ import annotations

import json
import random
import zlib
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Sequence, Tuple, TypeVar

T = TypeVar("T")
Tuple_ = Tuple[str, ...]
Query = List[Tuple_]

#: The `/search` request kinds the benchmark sends, by wire field.
SEARCH_FIELDS: Dict[str, Dict[str, str]] = {
    "exact": {},
    "prefilter": {"mode": "prefilter"},
    "union": {"task": "union"},
    "join": {"task": "join"},
}
#: The reader of ``tasks_mutating`` cycles these, one fresh tuple each.
READER_KINDS = ("prefilter", "union", "join")

K = 10
HOT_SET = 32
ZIPF_S = 1.1
#: The writer removes the table it added this many adds ago.
WRITER_LAG = 3


class Request(NamedTuple):
    """One wire request; ``kind`` names the latency series it feeds."""

    kind: str
    method: str
    path: str
    body: bytes
    k: int = 0


def derive_seed(seed: int, label: str) -> int:
    """A stable sub-seed (``hash()`` is salted per process, crc32 is not)."""
    return zlib.crc32(f"{seed}:{label}".encode("ascii"))


class PoolQuery(NamedTuple):
    """One generated 5-tuple query and the topic it was sampled from."""

    category: str
    tuples: Query


def load_pool(path: Path) -> List[PoolQuery]:
    """The 5-tuple queries of ``queries.json`` in generation order."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return [
        PoolQuery(payload["categories"][query_id],
                  [tuple(entry) for entry in tuples])
        for query_id, tuples in payload["queries"].items()
        if not query_id.endswith("-1t")
    ]


def round_robin(items: Sequence[Tuple[str, T]], seed: int) -> List[T]:
    """Interleave ``(category, item)`` pairs: rounds of one item per category.

    A query's cost depends mostly on its topic (tuple width, entity
    types), and topics differ by 5x.  Taking one query of every topic
    per round gives every run the same topic mix, so run-to-run
    differences are the system's and not the sample's.  The order
    *within* a round is shuffled from ``seed``: two connections in lock
    step would otherwise always batch the same two neighbours, and the
    latency distribution would be eight atoms whose median jumps when
    the pairing slips by one.
    """
    queues: Dict[str, List[T]] = {}
    for category, item in items:
        queues.setdefault(category, []).append(item)
    rng = random.Random(derive_seed(seed, "rounds"))
    ordered: List[T] = []
    for depth in range(max(map(len, queues.values()), default=0)):
        round_ = [queues[category][depth] for category in sorted(queues)
                  if depth < len(queues[category])]
        rng.shuffle(round_)
        ordered.extend(round_)
    return ordered


def search_request(kind: str, tuples: Sequence[Tuple_], k: int = K) -> Request:
    payload: Dict[str, Any] = {"tuples": [list(t) for t in tuples], "k": k}
    payload.update(SEARCH_FIELDS[kind])
    return Request(kind, "POST", "/search",
                   json.dumps(payload).encode("utf-8"), k)


def request_tuples(request: Request) -> List[Tuple_]:
    return [tuple(t) for t in json.loads(request.body)["tuples"]]


def fresh_queries(pool: Sequence[PoolQuery], seed: int) -> List[Query]:
    """Pool queries that repeat no tuple, ever, interleaved by topic.

    The generator samples tuples with replacement, so a query is kept
    only if its tuples are mutually distinct and unseen in every query
    kept before it: each kept query misses the per-tuple memo five times.
    """
    seen: set = set()
    kept: List[Tuple[str, Query]] = []
    for category, query in pool:
        tuples = set(query)
        if len(tuples) == len(query) and not tuples & seen:
            seen |= tuples
            kept.append((category, query))
    return round_robin(kept, seed)


def distinct_tuples(pool: Sequence[PoolQuery], seed: int) -> List[Tuple_]:
    """Every tuple of the pool once, interleaved by topic."""
    topic_of: Dict[Tuple_, str] = {}
    for category, query in pool:
        for t in query:
            topic_of.setdefault(t, category)
    return round_robin(
        [(category, t) for t, category in topic_of.items()], seed)


def fresh_5t_stream(pool: Sequence[PoolQuery], seed: int, warmup: int,
                    count: int) -> Tuple[List[Request], List[Request]]:
    """``(warm-up, window)`` exact 5-tuple requests sharing no tuple."""
    requests = [search_request("exact", query)
                for query in fresh_queries(pool, seed)[:warmup + count]]
    return requests[:warmup], requests[warmup:]


def hot_1t_stream(pool: Sequence[PoolQuery], seed: int,
                  count: int) -> Tuple[List[Request], List[Request]]:
    """``(one pass over the hot set, Zipf draws from it)``, 1-tuple exact."""
    hot = [search_request("exact", [t])
           for t in distinct_tuples(pool, seed)[:HOT_SET]]
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(hot))]
    rng = random.Random(derive_seed(seed, "hot"))
    return hot, rng.choices(hot, weights=weights, k=count)


def reader_stream(pool: Sequence[PoolQuery], seed: int, warmup_each: int,
                  count: int) -> Tuple[List[Request], List[Request]]:
    """``(warm-up, window)``: fresh 1-tuple queries cycling READER_KINDS."""
    warmup = warmup_each * len(READER_KINDS)
    requests = [
        search_request(READER_KINDS[i % len(READER_KINDS)], [t])
        for i, t in enumerate(distinct_tuples(pool, seed)[:warmup + count])
    ]
    return requests[:warmup], requests[warmup:]


def added_id(n: int) -> str:
    return f"perf-add-{n}"


def remove_request(n: int) -> Request:
    return Request("remove", "DELETE", f"/tables/{added_id(n)}", b"")


def writer_schedule(tables: Sequence[Dict[str, Any]], seed: int,
                    adds: int) -> List[Request]:
    """Add a clone of a seeded lake table, remove the one added three ago.

    ``tables`` are the ``lake.json`` records; add *n* posts one under id
    ``perf-add-<n>`` with ``link: true``.  At most ``WRITER_LAG + 1``
    clones are live after any prefix; :func:`leftover_removals` names them.
    """
    rng = random.Random(derive_seed(seed, "writer"))
    schedule: List[Request] = []
    for n in range(adds):
        source = tables[rng.randrange(len(tables))]
        body = {"table": dict(source, id=added_id(n)), "link": True}
        schedule.append(Request("add", "POST", "/tables",
                                json.dumps(body).encode("utf-8")))
        if n >= WRITER_LAG:
            schedule.append(remove_request(n - WRITER_LAG))
    return schedule


def take_turns(reads: Sequence[Request], writes: Sequence[Request],
               reads_per_write: int) -> List[Request]:
    """``reads_per_write`` reads, one write, and so on, on one timeline."""
    merged: List[Request] = []
    for n, write in enumerate(writes):
        merged.extend(reads[n * reads_per_write:(n + 1) * reads_per_write])
        merged.append(write)
    return merged


def leftover_removals(done: Sequence[Request]) -> List[Request]:
    """Removals that undo whatever prefix of the schedule was ``done``."""
    added = sum(1 for request in done if request.kind == "add")
    removed = sum(1 for request in done if request.kind == "remove")
    return [remove_request(n) for n in range(removed, added)]


def distinct_tuple_share(requests: Sequence[Request]) -> float:
    """Distinct tuples over tuples sent, across the search requests."""
    tuples = [t for request in requests if request.path == "/search"
              for t in request_tuples(request)]
    return len(set(tuples)) / len(tuples) if tuples else 0.0
