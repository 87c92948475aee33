"""Section 7.5 (text): search quality under a realistic noisy linker.

The paper replaces WT2015's gold entity links with predictions from a
state-of-the-art linker (EMBLOOKUP, F1 = 0.21, coverage 20.3%) and
shows Thetis still returns meaningful results - better than the 40%
gold-coverage cap of Figure 6.  This bench corrupts the gold mapping
with the same recall/precision profile and compares.
"""

import pytest

from benchmarks.conftest import print_header
from repro import Thetis
from repro.eval import ndcg_at_k, summarize
from repro.linking import NoisyLinker

K = 10


def _mean_ndcg(bench, thetis, truths, subset):
    scores = []
    for qid in list(getattr(bench.queries, subset)):
        query = bench.queries.all_queries()[qid]
        results = thetis.search(query, k=K)
        scores.append(ndcg_at_k(results.table_ids(K), truths[qid].gains, K))
    return summarize(scores)["mean"]


def test_sec75_noisy_linking(wt_bench, wt_thetis, wt_ground_truths,
                             benchmark):
    def run():
        print_header("Section 7.5 - noisy entity linker")
        linker = NoisyLinker(wt_bench.graph, recall=0.6, precision=0.35,
                             seed=3)
        noisy_mapping = linker.corrupt(wt_bench.mapping)
        f1 = linker.f1(wt_bench.mapping, noisy_mapping)
        noisy_thetis = Thetis(wt_bench.lake, wt_bench.graph, noisy_mapping,
                              engine_kind="scalar")
        rows = {}
        for subset in ("one_tuple", "five_tuple"):
            gold = _mean_ndcg(wt_bench, wt_thetis, wt_ground_truths, subset)
            noisy = _mean_ndcg(wt_bench, noisy_thetis, wt_ground_truths,
                               subset)
            rows[subset] = (gold, noisy)
            print(f"  {subset:<10} gold links NDCG={gold:.3f}   "
                  f"noisy linker NDCG={noisy:.3f}")
        print(f"  simulated linker F1 = {f1:.2f} "
              f"(paper's EMBLOOKUP: 0.21)")
        return rows, f1

    (rows, f1) = benchmark.pedantic(run, rounds=1, iterations=1)
    assert f1 < 0.5  # genuinely poor linker
    for subset, (gold, noisy) in rows.items():
        # Meaningful results survive the noise (paper: NDCG 0.14-0.29
        # at F1=0.21, i.e. a large fraction of gold-link quality).
        assert noisy > 0.25 * gold, subset
