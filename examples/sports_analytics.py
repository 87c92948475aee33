"""The paper's motivating scenario: cross-referencing baseball data.

A betting company wants every table related to a set of baseball
players and their teams (Section 1, Figure 1).  This example generates
a realistic multi-domain data lake, then shows how:

* keyword search (BM25) only surfaces tables with exact text matches;
* semantic search also surfaces *related* baseball tables with no
  keyword overlap;
* LSH prefiltering accelerates the search without hurting the top
  results.

Run with:  python examples/sports_analytics.py
"""

import time

from repro import Query, Thetis
from repro.baselines import BM25TableSearch, text_query_from_labels
from repro.benchgen import WT2015_PROFILE, build_benchmark
from repro.lsh import RECOMMENDED_CONFIG


def main() -> None:
    print("Generating a multi-domain semantic data lake ...")
    bench = build_benchmark(
        WT2015_PROFILE, num_tables=800, num_query_pairs=1, seed=42
    )
    print(bench.statistics().format_row(bench.name))

    world = bench.world
    thetis = Thetis(bench.lake, bench.graph, bench.mapping)

    # Query: two baseball players with their teams (entity tuples).
    players = world.entities_for_role("baseball", "player")[:2]
    teams_of = world.forward[("baseball", "player", "team")]
    query = Query(
        [(player, teams_of[player][0]) for player in players]
    )
    print("\nQuery tuples:")
    for entity_tuple in query:
        labels = [bench.graph.get(uri).label for uri in entity_tuple]
        print(f"  {labels}")

    # --- Keyword search ------------------------------------------------
    bm25 = BM25TableSearch(bench.lake)
    keywords = text_query_from_labels(query, bench.graph)
    keyword_results = bm25.search(keywords, k=10)
    print("\nBM25 keyword search (exact matches only):")
    for scored in keyword_results:
        domain = bench.lake.get(scored.table_id).metadata["domain"]
        print(f"  {scored.table_id:<18} [{domain:<10}] {scored.score:7.2f}")

    # --- Semantic search ------------------------------------------------
    start = time.perf_counter()
    semantic_results = thetis.search(query, k=10)
    brute_seconds = time.perf_counter() - start
    print(f"\nSemantic table search (types, {brute_seconds:.2f}s):")
    for scored in semantic_results:
        domain = bench.lake.get(scored.table_id).metadata["domain"]
        print(f"  {scored.table_id:<18} [{domain:<10}] {scored.score:7.3f}")

    new_tables = semantic_results.difference(keyword_results, k=10)
    print(f"\nTables semantic search found that BM25 missed: "
          f"{len(new_tables)} of 10")

    # --- LSH acceleration -------------------------------------------
    prefilter = thetis.prefilter("types", RECOMMENDED_CONFIG)
    candidates = prefilter.candidate_tables(query, votes=1)
    reduction = prefilter.reduction(len(bench.lake), candidates)
    start = time.perf_counter()
    lsh_results = thetis.search(query, k=10, mode="prefilter",
                                lsh_config=RECOMMENDED_CONFIG)
    lsh_seconds = time.perf_counter() - start
    agree = len(set(lsh_results.table_ids(10))
                & set(semantic_results.table_ids(10)))
    print(f"\nWith LSH prefiltering {RECOMMENDED_CONFIG}:")
    print(f"  search space reduced by {reduction:.0%} "
          f"({len(candidates)} of {len(bench.lake)} tables scored)")
    print(f"  runtime {lsh_seconds:.2f}s vs {brute_seconds:.2f}s brute force")
    print(f"  top-10 agreement with exact search: {agree}/10")


if __name__ == "__main__":
    main()
