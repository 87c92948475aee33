"""Exact merge of per-shard top-k partials.

Algorithm 1 scores every candidate table independently, so a lake split
into disjoint shards can be scored shard by shard and merged: per-table
scores do not depend on sharding and
:class:`~repro.core.result.ResultSet` orders deterministically
(descending score, ascending id tie-break), so the merged ranking is
*bit-identical* to the single-process one (property-tested).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple


def merge_topk(
    partials: Iterable[Iterable[Tuple[float, str]]],
    k: Optional[int] = None,
) -> List[Tuple[float, str]]:
    """Merge per-shard ``(score, table_id)`` partials into one ranking.

    The merge of the cluster scatter-gather path (:mod:`repro.cluster`).
    Its contract is pinned by tests because distributed correctness
    rests on it:

    - **Bit-identical order.**  Pairs are ranked by ``(-score,
      table_id)`` — exactly the :class:`~repro.core.result.ResultSet`
      order — so merging per-shard top-k partials of disjoint shards
      reproduces the single-process ranking bit for bit.
    - **Empty shards are neutral.**  Empty (or ``None``) partials
      contribute nothing; a merge of only empty partials is ``[]``.
    - **First-epoch-wins dedup.**  When the same table id appears in
      several partials (replicated shards, or a routing-epoch flip
      racing a hedged retry), the *first* partial mentioning it wins
      and later occurrences are dropped.  Under replication the scores
      are equal so any choice is correct; pinning first-wins keeps the
      merge deterministic for callers that order partials by epoch.

    ``k=None`` returns the full merged ranking; otherwise at most ``k``
    pairs.
    """
    best: Dict[str, float] = {}
    for partial in partials:
        if not partial:
            continue
        for score, table_id in partial:
            if table_id not in best:
                best[table_id] = float(score)
    ranked = sorted(best.items(), key=lambda item: (-item[1], item[0]))
    if k is not None:
        ranked = ranked[: max(0, k)]
    return [(score, table_id) for table_id, score in ranked]
