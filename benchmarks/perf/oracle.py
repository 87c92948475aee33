"""Scalar-oracle parity: served rankings must equal the reference ones.

The reference is an in-process ``Thetis(engine_kind="scalar")`` over the
same lake files (and the scalar union / join baselines for those
tasks).  Ids must match exactly and scores within the repo's 1e-9
parity contract.  Rankings are cached per request body, so workloads
that share a stream pay for the (slow) scalar engine once.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from benchmarks.perf.loadgen import ask, parse_ranking
from benchmarks.perf.streams import Request

TOLERANCE = 1e-9
Ranking = List[Tuple[str, float]]


class OracleMismatch(AssertionError):
    """A served ranking differs from the scalar reference."""


class Oracle:
    def __init__(self, lake_dir: Path) -> None:
        from repro.datalake.io import load_lake
        from repro.kg.io import load_graph
        from repro.linking.io import load_mapping
        from repro.system import Thetis

        self._graph = load_graph(lake_dir / "graph.json")
        self._lake = load_lake(lake_dir / "lake.json")
        self._mapping = load_mapping(lake_dir / "mapping.json")
        self._thetis = Thetis(self._lake, self._graph, self._mapping,
                              engine_kind="scalar")
        self._union = None
        self._join = None
        self._cache: Dict[bytes, Ranking] = {}

    def ranking(self, request: Request) -> Ranking:
        """The reference ``(table_id, score)`` list for a search request."""
        cached = self._cache.get(request.body)
        if cached is None:
            cached = self._cache[request.body] = self._compute(request)
        return cached

    def _compute(self, request: Request) -> Ranking:
        from repro.baselines import JoinTableSearch, UnionTableSearch
        from repro.core.query import Query

        payload = json.loads(request.body)
        query = Query([tuple(t) for t in payload["tuples"]])
        k = payload["k"]
        if request.kind == "union":
            if self._union is None:
                self._union = UnionTableSearch(
                    self._lake, self._mapping, graph=self._graph
                )
            results = self._union.search(query, k=k)
        elif request.kind == "join":
            if self._join is None:
                self._join = JoinTableSearch(self._lake)
            results = self._join.search(query, self._graph, k=k)
        else:
            mode = "prefilter" if request.kind == "prefilter" else "exact"
            results = self._thetis.search(query, k=k, mode=mode)
        return [(scored.table_id, scored.score) for scored in results]


def difference(served: Optional[Ranking], expected: Ranking) -> Optional[str]:
    """Why ``served`` is not ``expected``; None when they agree."""
    if served is None:
        return "malformed or degraded reply"
    if [tid for tid, _ in served] != [tid for tid, _ in expected]:
        return (f"ids differ: served {[t for t, _ in served][:5]} "
                f"expected {[t for t, _ in expected][:5]}")
    for (tid, got), (_, want) in zip(served, expected):
        if abs(got - want) > TOLERANCE:
            return f"{tid}: served score {got!r}, expected {want!r}"
    return None


def serve_rankings(port: int,
                   requests: Sequence[Request]) -> List[Optional[Ranking]]:
    rankings = []
    for request in requests:
        status, body = ask(port, request)
        rankings.append(parse_ranking(body) if status == 200 else None)
    return rankings


def check(port: int, oracle: Oracle,
          requests: Sequence[Request]) -> List[Optional[Ranking]]:
    """Ask the server each request; raise on the first mismatch.

    Returns the served rankings, for a bit-for-bit comparison later.
    """
    served = serve_rankings(port, requests)
    for request, ranking in zip(requests, served):
        problem = difference(ranking, oracle.ranking(request))
        if problem:
            raise OracleMismatch(
                f"{request.kind} query {request.body[:120]!r}: {problem}"
            )
    return served
