"""Dynamic data lakes: ingest tables at runtime and explain results.

The semantic data lake of the paper is designed so new datasets can be
added with *no* manual curation (Sections 2.3, 3.2): entity linking is
automatic and partial.  This example shows the production workflow:

1. start from a populated lake with a warm search system (including a
   built LSH index);
2. ingest a brand-new table at runtime — it gets linked, indexed, and
   becomes immediately searchable;
3. ask the system to *explain* why the new table won;
4. retire a table and watch it vanish from the results.

Run with:  python examples/dynamic_lake.py
"""

from repro import Query, Table, Thetis
from repro.benchgen import WT2015_PROFILE, build_benchmark
from repro.lsh import RECOMMENDED_CONFIG


def main() -> None:
    print("Generating a semantic data lake ...")
    bench = build_benchmark(
        WT2015_PROFILE, num_tables=400, num_query_pairs=1, seed=99
    )
    thetis = Thetis(bench.lake, bench.graph, bench.mapping)
    # Build the LSEI up front, as a deployed system would.
    thetis.prefilter("types", RECOMMENDED_CONFIG)

    # Pick a baseball player/team pair from the world as our interest.
    world = bench.world
    player = world.entities_for_role("baseball", "player")[0]
    team = world.forward[("baseball", "player", "team")][player][0]
    query = Query.single(player, team)
    labels = [bench.graph.get(uri).label for uri in (player, team)]
    print(f"Standing query: {labels}\n")

    before = thetis.search(query, k=3, mode="prefilter")
    print("Results before ingestion:")
    for scored in before:
        print(f"  {scored.table_id:<20} {scored.score:.3f}")

    # --- Ingest a fresh table mentioning exactly our entities --------
    new_table = Table(
        "ingested-scouting-report",
        ["Player", "Team", "Grade"],
        [[labels[0], labels[1], 94.5],
         [labels[0], labels[1], 88.0]],
        metadata={"caption": "Scouting report", "domain": "baseball"},
    )
    links = thetis.add_table(new_table)
    print(f"\nIngested {new_table.table_id!r}: {links} cells "
          "auto-linked, LSH index updated incrementally")

    after = thetis.search(query, k=3, mode="prefilter")
    print("Results after ingestion:")
    for scored in after:
        print(f"  {scored.table_id:<20} {scored.score:.3f}")
    assert after.table_ids()[0] == "ingested-scouting-report"

    # --- Explain the winner ------------------------------------------
    print("\nWhy did it win?")
    explanation = thetis.explain(query, after.table_ids()[0])
    print(explanation.render(bench.graph))

    # --- Retire the table ---------------------------------------------
    thetis.remove_table("ingested-scouting-report")
    final = thetis.search(query, k=3, mode="prefilter")
    print("\nResults after retiring the table:")
    for scored in final:
        print(f"  {scored.table_id:<20} {scored.score:.3f}")
    assert "ingested-scouting-report" not in final.table_ids()
    print("\nThe lake mutated three times; no index rebuilds were needed.")


if __name__ == "__main__":
    main()
