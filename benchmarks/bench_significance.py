"""Statistical significance of the headline comparisons.

The paper reports means and medians over 50 queries without
significance tests; this bench adds paired randomization tests and
bootstrap confidence intervals for the main claims at bench scale:

* STST vs the exact-match control (the value of semantic similarity);
* STSTC (complemented) vs BM25 alone (the Figure 5 headline);
* STST with vs without LSH prefiltering (quality preservation).
"""

import pytest

from benchmarks.conftest import print_header
from repro.baselines import text_query_from_labels
from repro.core import TableSearchEngine
from repro.eval import compare_systems, ndcg_at_k, recall_at_k
from repro.lsh import RECOMMENDED_CONFIG
from repro.similarity import ExactMatchSimilarity, Informativeness


def test_significance_of_headline_claims(wt_bench, wt_thetis, wt_bm25,
                                         wt_ground_truths, benchmark):
    exact_engine = TableSearchEngine(
        wt_bench.lake, wt_bench.mapping, ExactMatchSimilarity(),
        informativeness=Informativeness.from_mapping(
            wt_bench.mapping, len(wt_bench.lake)
        ),
    )

    def run():
        print_header("Significance of headline comparisons "
                      "(paired tests over queries)")
        ids = list(wt_bench.queries.one_tuple) + \
            list(wt_bench.queries.five_tuple)
        stst_ndcg, lsh_ndcg = [], []
        stst_recall, control_recall = [], []
        merged_recall, bm25_recall = [], []
        for qid in ids:
            query = wt_bench.queries.all_queries()[qid]
            gains = wt_ground_truths[qid].gains
            stst = wt_thetis.search(query, k=100)
            control = exact_engine.search(query, k=100)
            lsh = wt_thetis.search(query, k=10, mode="prefilter",
                                   lsh_config=RECOMMENDED_CONFIG, votes=3)
            keyword = wt_bm25.search(
                text_query_from_labels(query, wt_bench.graph), k=100
            )
            merged = stst.complement(keyword, k=100)
            stst_ndcg.append(ndcg_at_k(stst.table_ids(10), gains, 10))
            lsh_ndcg.append(ndcg_at_k(lsh.table_ids(10), gains, 10))
            # Exact matching competes at the head (matching tables carry
            # the top gains) - the semantic win is in the long tail, so
            # the control comparison uses recall@100.
            stst_recall.append(
                recall_at_k(stst.table_ids(100), gains, 100)
            )
            control_recall.append(
                recall_at_k(control.table_ids(100), gains, 100)
            )
            merged_recall.append(
                recall_at_k(merged.table_ids(100), gains, 100)
            )
            bm25_recall.append(
                recall_at_k(keyword.table_ids(100), gains, 100)
            )
        comparisons = {
            "STST vs exact (recall)": compare_systems(
                stst_recall, control_recall
            ),
            "STSTC vs BM25 (recall)": compare_systems(
                merged_recall, bm25_recall
            ),
            "LSH vs brute (NDCG)": compare_systems(lsh_ndcg, stst_ndcg),
        }
        for label, result in comparisons.items():
            print("  " + result.format_row(label))
        return comparisons

    comparisons = benchmark.pedantic(run, rounds=1, iterations=1)
    # Semantic similarity retrieves more relevant tables than exact
    # matching; with the bench-scale query sample (20 pairs) the test
    # is underpowered for strict significance, so assert the direction
    # and a non-negative-leaning confidence interval.
    semantic = comparisons["STST vs exact (recall)"]
    assert semantic.mean_difference > 0.0
    assert semantic.p_value < 0.2
    assert semantic.ci_high > 0.0
    # Complementation does not significantly hurt BM25 recall (at scale
    # it significantly helps; see bench_fig5_recall).
    merged = comparisons["STSTC vs BM25 (recall)"]
    assert merged.mean_difference > -0.05
    # LSH prefiltering does not significantly degrade NDCG.
    lsh = comparisons["LSH vs brute (NDCG)"]
    assert lsh.ci_low > -0.1
