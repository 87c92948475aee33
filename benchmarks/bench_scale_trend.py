"""Scale trend: keyword search weakens with corpus size, semantic holds.

The paper's recall headline ("up to 5.4x") is measured on 238k-1.7M
table corpora.  At small scale BM25 is nearly saturated, so the gap
between keyword and semantic retrieval is a function of corpus size.
This bench makes that dependence explicit: the same query workload is
evaluated over growing corpora generated from the same world, and the
STST-minus-BM25 recall gap must not shrink as the corpus grows.
"""

import pytest

from benchmarks.conftest import SEED, print_header
from repro import Thetis
from repro.baselines import BM25TableSearch, text_query_from_labels
from repro.benchgen import WT2015_PROFILE, build_benchmark
from repro.eval import recall_at_k, summarize

K = 100
SIZES = (500, 1000, 2000)


def test_scale_trend(wt_bench, benchmark):
    def run():
        print_header("Scale trend - BM25 vs STST recall@100 as the "
                      "corpus grows")
        gaps = []
        for size in SIZES:
            bench = build_benchmark(
                WT2015_PROFILE, num_tables=size, num_query_pairs=8,
                seed=SEED + 7, world=wt_bench.world,
            )
            thetis = Thetis(bench.lake, bench.graph, bench.mapping,
                            engine_kind="scalar")
            bm25 = BM25TableSearch(bench.lake)
            bm25_recalls, stst_recalls = [], []
            for qid, query in bench.queries.five_tuple.items():
                gains = bench.ground_truth(qid).gains
                keyword = bm25.search(
                    text_query_from_labels(query, bench.graph), k=K
                )
                semantic = thetis.search(query, k=K)
                bm25_recalls.append(
                    recall_at_k(keyword.table_ids(K), gains, K)
                )
                stst_recalls.append(
                    recall_at_k(semantic.table_ids(K), gains, K)
                )
            bm25_mean = summarize(bm25_recalls)["mean"]
            stst_mean = summarize(stst_recalls)["mean"]
            gaps.append((size, bm25_mean, stst_mean,
                         stst_mean - bm25_mean))
            print(f"  {size:>5} tables   BM25={bm25_mean:.3f}   "
                  f"STST={stst_mean:.3f}   gap={stst_mean - bm25_mean:+.3f}")
        return gaps

    gaps = benchmark.pedantic(run, rounds=1, iterations=1)
    (s1, bm1, _, g1), _, (s3, bm3, _, g3) = gaps
    # Keyword recall declines as the haystack grows ...
    assert bm3 <= bm1 + 0.05
    # ... so the semantic advantage does not shrink with scale.
    assert g3 >= g1 - 0.05
