"""Future-work bench: relaxing over-specialized 5-tuple queries.

Section 7.2 diagnoses the 5-tuple recall drop as over-specialization;
the conclusion promises improvements for that case.  This bench
measures the diagnosis (5-tuple recall < 1-tuple recall for the exact
engine) and evaluates both relaxation strategies of
``benchmarks.relaxation`` against it.
"""

import pytest

from benchmarks.conftest import print_header
from benchmarks.relaxation import RelaxingSearcher
from repro.eval import recall_at_k, summarize

K = 100


def test_query_relaxation(wt_bench, wt_thetis, wt_ground_truths,
                          benchmark):
    engine = wt_thetis.engine("types")

    def run():
        print_header("Query relaxation for over-specialized queries "
                      f"(recall@{K})")
        one_recalls = []
        for qid in wt_bench.queries.one_tuple:
            query = wt_bench.queries.all_queries()[qid]
            gains = wt_ground_truths[qid].gains
            results = engine.search(query, k=K)
            one_recalls.append(
                recall_at_k(results.table_ids(K), gains, K)
            )
        strategies = {
            "no relaxation": None,
            "split + RRF": RelaxingSearcher(engine, threshold=0.95,
                                            strategy="split"),
            "drop weakest": RelaxingSearcher(engine, threshold=0.95,
                                             strategy="drop"),
        }
        five_recalls = {name: [] for name in strategies}
        relaxed_counts = {name: 0 for name in strategies}
        for qid in wt_bench.queries.five_tuple:
            query = wt_bench.queries.all_queries()[qid]
            gains = wt_ground_truths[qid].gains
            for name, searcher in strategies.items():
                if searcher is None:
                    ranked = engine.search(query, k=K).table_ids(K)
                else:
                    outcome = searcher.search(query, k=K)
                    ranked = outcome.results.table_ids(K)
                    if outcome.relaxed:
                        relaxed_counts[name] += 1
                five_recalls[name].append(
                    recall_at_k(ranked, gains, K)
                )
        one_mean = summarize(one_recalls)["mean"]
        print(f"  1-tuple queries (reference):      "
              f"recall mean = {one_mean:.3f}")
        means = {}
        for name, values in five_recalls.items():
            means[name] = summarize(values)["mean"]
            note = (f" ({relaxed_counts[name]} queries relaxed)"
                    if name != "no relaxation" else "")
            print(f"  5-tuple, {name:<16} recall mean = "
                  f"{means[name]:.3f}{note}")
        return one_mean, means

    one_mean, means = benchmark.pedantic(run, rounds=1, iterations=1)
    # Relaxation must never hurt (it only replaces weak-head queries)...
    assert means["split + RRF"] >= means["no relaxation"] - 0.02
    assert means["drop weakest"] >= means["no relaxation"] - 0.05
    # ...and the best strategy should close part of the gap to the
    # 1-tuple reference when a gap exists.
    if one_mean > means["no relaxation"] + 0.02:
        best = max(means["split + RRF"], means["drop weakest"])
        assert best > means["no relaxation"]