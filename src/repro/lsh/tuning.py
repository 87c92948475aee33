"""LSH configuration auto-tuning.

The paper selects its configurations "after testing various
configurations on a smaller subset of the corpus" (Section 7.3).  The
tuner automates exactly that loop: for every candidate configuration it
measures the search-space reduction and the NDCG retention against the
brute-force ranking on a sample of queries, then picks the
highest-reduction configuration whose quality retention passes a
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.core.kernel import VectorizedTableSearchEngine
from repro.core.query import Query
from repro.core.search import TableSearchEngine
from repro.eval.metrics import ndcg_at_k, summarize
from repro.exceptions import ConfigurationError
from repro.lsh.config import PAPER_CONFIGS, LSHConfig
from repro.lsh.index import TablePrefilter
from repro.lsh.schemes import SignatureScheme

SchemeFactory = Callable[[int], SignatureScheme]


@dataclass(frozen=True)
class TuningOutcome:
    """Measured behaviour of one LSH configuration on the sample."""

    config: LSHConfig
    votes: int
    mean_reduction: float
    ndcg_retention: float  # filtered NDCG / brute-force NDCG

    def format_row(self) -> str:
        """One report line for tuner output."""
        return (
            f"{str(self.config):>10} votes={self.votes}  "
            f"reduction={self.mean_reduction:6.1%}  "
            f"retention={self.ndcg_retention:6.1%}"
        )


class LSHTuner:
    """Sweeps LSH configurations against a sample of queries.

    Parameters
    ----------
    engine:
        The exact engine providing the unfiltered reference rankings:
        the scalar one or the kernel (``thetis tune`` passes the
        kernel).
    scheme_factory:
        ``num_vectors -> SignatureScheme`` (each configuration needs a
        signature of its own width).
    k:
        Ranking cut-off used for the quality-retention measurement.
    """

    def __init__(
        self,
        engine: Union[TableSearchEngine, VectorizedTableSearchEngine],
        scheme_factory: SchemeFactory,
        k: int = 10,
    ):
        if k < 1:
            raise ConfigurationError("k must be >= 1")
        self.engine = engine
        self.scheme_factory = scheme_factory
        self.k = k

    def evaluate(
        self,
        config: LSHConfig,
        queries: Sequence[Query],
        votes: int = 1,
        reference: Optional[Dict[int, List[str]]] = None,
    ) -> TuningOutcome:
        """Measure one configuration on the query sample."""
        scheme = self.scheme_factory(config.num_vectors)
        prefilter = TablePrefilter(scheme, config, self.engine.mapping)
        total = len(self.engine.lake)
        reductions: List[float] = []
        retentions: List[float] = []
        for index, query in enumerate(queries):
            if reference is not None and index in reference:
                brute_ids = reference[index]
            else:
                brute_ids = self.engine.search(query, k=self.k).table_ids()
                if reference is not None:
                    reference[index] = brute_ids
            # The brute-force ranking acts as (binary-graded) truth.
            gains = {tid: 1.0 for tid in brute_ids}
            candidates = prefilter.candidate_tables(query, votes=votes)
            reductions.append(prefilter.reduction(total, candidates))
            filtered = self.engine.search(
                query, k=self.k, candidates=candidates
            )
            retentions.append(
                ndcg_at_k(filtered.table_ids(self.k), gains, self.k)
            )
        return TuningOutcome(
            config=config,
            votes=votes,
            mean_reduction=summarize(reductions)["mean"],
            ndcg_retention=summarize(retentions)["mean"],
        )

    def sweep(
        self,
        queries: Sequence[Query],
        configs: Sequence[LSHConfig] = PAPER_CONFIGS,
        votes_options: Sequence[int] = (1, 3),
    ) -> List[TuningOutcome]:
        """Evaluate every (config, votes) pair; descending reduction."""
        if not queries:
            raise ConfigurationError("need at least one sample query")
        reference: Dict[int, List[str]] = {}
        outcomes = [
            self.evaluate(config, queries, votes, reference)
            for config in configs
            for votes in votes_options
        ]
        return sorted(
            outcomes,
            key=lambda o: (-o.mean_reduction, -o.ndcg_retention),
        )

    def recommend(
        self,
        queries: Sequence[Query],
        configs: Sequence[LSHConfig] = PAPER_CONFIGS,
        votes_options: Sequence[int] = (1, 3),
        min_retention: float = 0.9,
    ) -> TuningOutcome:
        """Pick the strongest filter that keeps quality above the bar.

        Falls back to the best-retention configuration when nothing
        reaches ``min_retention`` (better a weak filter than a silent
        quality cliff).
        """
        outcomes = self.sweep(queries, configs, votes_options)
        for outcome in outcomes:  # already sorted by reduction
            if outcome.ndcg_retention >= min_retention:
                return outcome
        return max(outcomes, key=lambda o: o.ndcg_retention)
