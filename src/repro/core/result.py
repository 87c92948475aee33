"""Ranked search results and result-set combinators.

Besides plain ranking, the module implements the paper's
*complementation* scheme (STSTC/STSEC, Section 7.2): take the top 50 %
of two engines' result lists and merge them, combining exact keyword
matches with semantically related tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

import numpy as np


@dataclass(frozen=True, order=True)
class ScoredTable:
    """A table identifier with its relevance score."""

    score: float
    table_id: str

    def __repr__(self) -> str:
        return f"ScoredTable({self.table_id!r}, {self.score:.4f})"


class ResultSet:
    """An immutable descending ranking of scored tables.

    Ties break by ascending table id so rankings are deterministic
    across runs and platforms.
    """

    def __init__(self, scored: Iterable[ScoredTable]):
        self._ranked: List[ScoredTable] = sorted(
            scored, key=lambda st: (-st.score, st.table_id)
        )
        self._scores: Dict[str, float] = {
            st.table_id: st.score for st in self._ranked
        }

    @classmethod
    def from_scores(cls, scores: Dict[str, float]) -> "ResultSet":
        """Build from a ``table_id -> score`` dictionary."""
        return cls(ScoredTable(score, tid) for tid, score in scores.items())

    @classmethod
    def from_arrays(
        cls,
        scores: np.ndarray,
        table_ids: Sequence[str],
        id_rank: np.ndarray,
        k: Optional[int] = None,
    ) -> "ResultSet":
        """Rank positive entries of parallel arrays, numpy-side.

        ``scores[i]`` pairs with ``table_ids[i]``, whose rank in
        ascending id order is ``id_rank[i]`` (ids with a positive score
        are distinct); non-positive scores are dropped, matching every
        engine's "no overlap, no result" contract.  Sorting by
        ``(-score, id rank)`` with ``lexsort`` reproduces the
        constructor's ``(-score, table_id)`` sort exactly, and with
        ``k`` only the winners are materialized as
        :class:`ScoredTable` objects — bit-identical to building the
        full set and calling :meth:`top`, without the per-loser object
        and comparison cost.
        """
        hits = np.nonzero(scores > 0.0)[0]
        order = np.lexsort((id_rank[hits], -scores[hits]))
        if k is not None:
            order = order[: max(0, k)]
        return cls(
            ScoredTable(score, table_ids[i])
            for score, i in zip(
                scores[hits[order]].tolist(), hits[order].tolist()
            )
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ranked)

    def __iter__(self) -> Iterator[ScoredTable]:
        return iter(self._ranked)

    def __contains__(self, table_id: str) -> bool:
        return table_id in self._scores

    def score_of(self, table_id: str) -> Optional[float]:
        """Return the score of ``table_id`` or ``None`` if absent."""
        return self._scores.get(table_id)

    def top(self, k: int) -> "ResultSet":
        """Return the ``k`` best results as a new set."""
        return ResultSet(self._ranked[: max(0, k)])

    def table_ids(self, k: Optional[int] = None) -> List[str]:
        """Return ranked table ids, optionally truncated to ``k``."""
        ranked = self._ranked if k is None else self._ranked[: max(0, k)]
        return [st.table_id for st in ranked]

    def scores(self) -> Dict[str, float]:
        """Return a ``table_id -> score`` dictionary."""
        return dict(self._scores)

    # ------------------------------------------------------------------
    def difference(self, other: "ResultSet", k: Optional[int] = None) -> Set[str]:
        """Tables in our top-``k`` missing from the other's top-``k``.

        This is the result-set difference the paper uses to show that
        semantic search retrieves a disjoint set from BM25.
        """
        ours = set(self.table_ids(k))
        theirs = set(other.table_ids(k))
        return ours - theirs

    def complement(self, other: "ResultSet", k: int, fraction: float = 0.5) -> "ResultSet":
        """Merge the top ``fraction`` of two rankings into a top-``k`` list.

        Following Section 7.2: the top 50 % of each method's top-``k``
        are interleaved (ours first on rank ties), deduplicated, then the
        remainder of each ranking fills the list up to ``k``.  Scores are
        re-assigned as descending ranks so NDCG machinery keeps working
        on the merged list.
        """
        take = max(1, int(k * fraction))
        merged: List[str] = []
        seen: Set[str] = set()

        def extend(ids: Sequence[str]) -> None:
            for table_id in ids:
                if len(merged) >= k:
                    return
                if table_id not in seen:
                    seen.add(table_id)
                    merged.append(table_id)

        ours = self.table_ids()
        theirs = other.table_ids()
        # Interleave the two head segments rank by rank.
        for rank in range(take):
            if rank < len(ours):
                extend([ours[rank]])
            if rank < len(theirs):
                extend([theirs[rank]])
        # Fill with the tails.
        extend(ours[take:])
        extend(theirs[take:])
        return ResultSet(
            ScoredTable(float(len(merged) - i), tid) for i, tid in enumerate(merged)
        )
