"""Future-work bench: rank fusion of BM25 and semantic rankings.

The paper merges BM25 and Thetis rankings with a fixed top-50 %
interleave (STSTC) and defers "learning to rank" to future work.  This
bench compares the interleave against principled fusion: RRF, CombMNZ,
and the from-scratch logistic learning-to-rank model trained on a
held-out half of the queries.
"""

import pytest

from benchmarks.conftest import print_header
from benchmarks.fusion import LogisticFusion, comb_mnz, reciprocal_rank_fusion
from repro.baselines import text_query_from_labels
from repro.eval import recall_at_k, summarize

K = 100


def test_fusion_methods(wt_bench, wt_thetis, wt_bm25, wt_ground_truths,
                        benchmark):
    query_ids = list(wt_bench.queries.five_tuple)
    half = len(query_ids) // 2
    train_ids, test_ids = query_ids[:half], query_ids[half:]

    def rankings_for(qid):
        query = wt_bench.queries.all_queries()[qid]
        keyword = wt_bm25.search(
            text_query_from_labels(query, wt_bench.graph), k=K
        )
        semantic = wt_thetis.search(query, k=K)
        return semantic, keyword

    def run():
        print_header(f"Fusion methods - recall@{K} on held-out "
                      "5-tuple queries")
        model = LogisticFusion(num_systems=2, seed=0)
        model.fit([
            (list(rankings_for(qid)), wt_ground_truths[qid].gains)
            for qid in train_ids
        ])
        recalls = {name: [] for name in
                   ("BM25", "STST", "interleave (paper)", "RRF",
                    "CombMNZ", "logistic LTR")}
        for qid in test_ids:
            gains = wt_ground_truths[qid].gains
            semantic, keyword = rankings_for(qid)
            fused = {
                "BM25": keyword,
                "STST": semantic,
                "interleave (paper)": semantic.complement(keyword, k=K),
                "RRF": reciprocal_rank_fusion([semantic, keyword]),
                "CombMNZ": comb_mnz([semantic, keyword]),
                "logistic LTR": model.fuse([semantic, keyword]),
            }
            for name, ranking in fused.items():
                recalls[name].append(
                    recall_at_k(ranking.table_ids(K), gains, K)
                )
        means = {}
        for name, values in recalls.items():
            means[name] = summarize(values)["mean"]
            print(f"  {name:<20} recall mean = {means[name]:.3f}")
        return means

    means = benchmark.pedantic(run, rounds=1, iterations=1)
    components = max(means["BM25"], means["STST"])
    # At least one principled fusion method must be competitive with
    # the best single component and with the paper's interleave.
    best_fusion = max(means["RRF"], means["CombMNZ"],
                      means["logistic LTR"])
    assert best_fusion >= 0.9 * components
    assert best_fusion >= 0.9 * means["interleave (paper)"]