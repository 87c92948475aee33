"""LSH candidate generation fused into the serve path (Section 6).

Measures the full prefilter pipeline over the WT2015-profile corpus:
LSEI votes produce a shortlist, the vectorized kernel rescoring is
restricted to candidate rows, and score-bound early termination stops
once no remaining candidate can enter the top-k.  Reports — and gates
— the two numbers the pipeline must deliver simultaneously:

* **work reduction**: tables actually scored per query must shrink by
  at least ``MIN_REDUCTION_FACTOR`` versus scoring the whole lake
  (LSH voting alone prunes ~2x at vote threshold 1; the bound-ordered
  early termination supplies the rest);
* **quality**: recall@10 of the prefiltered ranking against the exact
  one must stay at or above ``MIN_RECALL`` (at vote threshold 1 the
  shortlist provably contains every nonzero-score table, so recall is
  1.0 by construction — the gate guards the termination logic);
* **cost**: the prefiltered pass may take at most
  ``MAX_PREFILTER_OVER_EXACT`` times the exact pass over the same
  queries — a filter that costs more than the exact scan it is meant
  to shortcut is a losing path.

A short served section drives the same pipeline through a real
``ServerThread`` with ``{"mode": "prefilter"}`` bodies, checks every
served ranking against the direct prefiltered search, and scrapes the
``/metrics`` prefilter block.  Everything lands in ``BENCH_serve.json``
under ``"prefilter"`` (scripts/ci.sh runs this with ``--quick``).
"""

import time

from benchmarks.conftest import print_header
from benchmarks.perf.loadgen import get_json
from benchmarks.serve_loadgen import assert_parity, query_payloads, record
from repro import Thetis
from repro.core.kernel import PrefilterStats
from repro.eval.metrics import ndcg_at_k, recall_at_k, summarize
from repro.lsh import LSHConfig
from repro.serve import ServeConfig, ServerThread

#: Operating point of the serve path: the paper's recommended banding
#: at vote threshold 1 (Table 4 row with lossless candidate sets).
CONFIG = LSHConfig(32, 8)
VOTES = 1
K = 10

#: Quality/efficiency gates (quick and full mode alike).
MIN_REDUCTION_FACTOR = 5.0
MIN_RECALL = 0.95
MAX_PREFILTER_OVER_EXACT = 1.5

REPORT_PATH = "BENCH_serve.json"


def _bench_queries(bench):
    """All 1-tuple and 5-tuple benchmark queries, keyed by id."""
    queries = {}
    queries.update(bench.queries.one_tuple)
    queries.update(bench.queries.five_tuple)
    return queries


def _served_section(bench, reference):
    """Drive mode=prefilter through HTTP; return the /metrics block.

    Every served ranking must equal ``reference``'s direct prefiltered
    search of the same query.
    """
    lake, mapping = Thetis(
        bench.lake, bench.graph, bench.mapping
    ).snapshot_inputs()
    served = Thetis(lake, bench.graph, mapping, engine_kind="vectorized")
    handle = ServerThread(
        served,
        ServeConfig(port=0, max_batch_size=8,
                    prefilter_guardrail_every=2),
    )
    handle.start().wait_ready(timeout=300)
    try:
        assert_parity(handle.port, reference, query_payloads(bench, k=K),
                      mode="prefilter")
        status, metrics = get_json(handle.port, "/metrics")
        assert status == 200, metrics
    finally:
        handle.stop(timeout=120)
    return metrics["prefilter"]


def test_lsh_serve_pipeline(wt_bench, benchmark):
    thetis = Thetis(wt_bench.lake, wt_bench.graph, wt_bench.mapping,
                    engine_kind="vectorized")
    queries = _bench_queries(wt_bench)
    truths = wt_bench.ground_truths()
    total = len(wt_bench.lake)

    # Warm the engine and the LSEI outside the timed region.
    first = next(iter(queries.values()))
    thetis.search(first, k=K, mode="exact")
    thetis.search(first, k=K, mode="prefilter", lsh_config=CONFIG,
                  votes=VOTES)

    def run():
        thetis.prefilter_stats = PrefilterStats()
        start = time.perf_counter()
        exact = {
            qid: thetis.search(query, k=K, mode="exact")
            for qid, query in queries.items()
        }
        exact_seconds = time.perf_counter() - start
        start = time.perf_counter()
        approx = {
            qid: thetis.search(query, k=K, mode="prefilter",
                               lsh_config=CONFIG, votes=VOTES)
            for qid, query in queries.items()
        }
        prefilter_seconds = time.perf_counter() - start
        return exact, approx, exact_seconds, prefilter_seconds

    exact, approx, exact_seconds, prefilter_seconds = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    recalls, ndcg_deltas = [], []
    for qid, query in queries.items():
        gains = {
            tid: exact[qid].score_of(tid)
            for tid in exact[qid].table_ids()
        }
        recalls.append(recall_at_k(approx[qid].table_ids(), gains, K))
        truth = truths[qid].gains
        if truth:
            ndcg_deltas.append(
                ndcg_at_k(exact[qid].table_ids(), truth, K)
                - ndcg_at_k(approx[qid].table_ids(), truth, K)
            )

    stats = thetis.prefilter_stats.as_dict()
    mean_scored = stats["mean_shortlist"] * stats["scored_fraction"]
    scored_factor = (total / mean_scored) if mean_scored else float("inf")
    lsh_reduction = stats["candidate_reduction"]
    recall_summary = summarize(recalls)
    speedup = (exact_seconds / prefilter_seconds) if prefilter_seconds \
        else float("inf")

    served_block = _served_section(wt_bench, thetis)

    block = {
        "corpus_tables": total,
        "queries": len(queries),
        "config": str(CONFIG),
        "votes": VOTES,
        "k": K,
        "lsh_reduction": lsh_reduction,
        "mean_candidates": stats["mean_candidates"],
        "mean_tables_scored": mean_scored,
        "scored_reduction_factor": scored_factor,
        "early_termination_rate": stats["early_termination_rate"],
        "recall_mean": recall_summary["mean"],
        "recall_min": min(recalls) if recalls else 0.0,
        "ndcg_delta_mean": (
            sum(ndcg_deltas) / len(ndcg_deltas) if ndcg_deltas else 0.0
        ),
        "exact_seconds": exact_seconds,
        "prefilter_seconds": prefilter_seconds,
        "speedup": speedup,
        "served": served_block,
    }

    print_header(
        f"LSH serve pipeline ({total} tables, {len(queries)} queries, "
        f"{CONFIG} v{VOTES})"
    )
    print(f"  LSH candidates      {stats['mean_candidates']:8.1f} / {total}"
          f"  ({lsh_reduction * 100:5.1f}% pruned by voting)")
    print(f"  tables scored       {mean_scored:8.1f} / {total}"
          f"  ({scored_factor:5.1f}x work reduction)")
    print(f"  early termination   {stats['early_termination_rate'] * 100:5.1f}%"
          f" of queries")
    print(f"  recall@{K}           mean {recall_summary['mean']:.3f}"
          f"  min {block['recall_min']:.3f}")
    print(f"  ndcg@{K} delta       {block['ndcg_delta_mean']:+.4f}"
          f"  (exact - prefiltered, vs ground truth)")
    print(f"  wall time           exact {exact_seconds:.2f}s  "
          f"prefilter {prefilter_seconds:.2f}s  ({speedup:.2f}x)")
    print(f"  served guardrail    checks {served_block['guardrail']['checks']}"
          f"  min recall {served_block['guardrail']['min_recall']:.3f}")

    record(REPORT_PATH, "prefilter", block)

    assert prefilter_seconds <= MAX_PREFILTER_OVER_EXACT * exact_seconds, (
        f"prefiltered reads cost {1 / speedup:.2f}x the exact ones "
        f"(> {MAX_PREFILTER_OVER_EXACT}x)"
    )
    # The two gates the pipeline must deliver simultaneously.
    assert scored_factor >= MIN_REDUCTION_FACTOR, (
        f"prefilter pipeline scored too much of the lake: "
        f"{scored_factor:.1f}x < {MIN_REDUCTION_FACTOR}x"
    )
    assert recall_summary["mean"] >= MIN_RECALL, (
        f"prefiltered recall@{K} fell below the guardrail: "
        f"{recall_summary['mean']:.3f} < {MIN_RECALL}"
    )
    # At vote threshold 1 the shortlist contains every scoring table,
    # so the prefiltered top-k must equal the exact top-k.
    for qid in queries:
        assert approx[qid].table_ids() == exact[qid].table_ids(), qid
    # The served pipeline observed the same quality.
    assert served_block["queries"] >= len(queries)
    assert served_block["guardrail"]["checks"] >= 1
    assert served_block["guardrail"]["min_recall"] >= MIN_RECALL
