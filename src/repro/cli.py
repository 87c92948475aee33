"""Command-line interface for the Thetis reproduction.

The subcommands cover the end-to-end workflow on files:

* ``generate`` — build a synthetic benchmark corpus (KG + lake + links
  + queries) and write it to a directory;
* ``link``     — entity-link a data lake against a knowledge graph;
* ``stats``    — print Table-2 style corpus statistics;
* ``search``   — run semantic table search for an entity-tuple query;
* ``serve``    — run the online HTTP/JSON query service;
* ``index``    — build/load/inspect a persistent segmented corpus index
  (``search --index DIR`` and ``serve --index DIR`` then cold-start by
  memmapping it instead of compiling);
* ``cluster``  — sharded scatter-gather serving: run the coordinator
  front door (``cluster serve``), shard-scoring workers
  (``cluster worker``), or inspect fleet health (``cluster status``);
* ``lint``     — run the built-in static analyzer over the codebase.

Example session::

    thetis generate --out corpus/ --tables 500
    thetis stats --lake corpus/lake.json --mapping corpus/mapping.json
    thetis search --lake corpus/lake.json --graph corpus/graph.json \\
        --mapping corpus/mapping.json --tuple kg:baseball/player/0 -k 5
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.core.cache import DEFAULT_SIMILARITY_CACHE_SIZE
from repro.core.kernel import ENGINE_KINDS
from repro.core.query import Query
from repro.datalake.io import load_lake, save_lake
from repro.kg.io import load_graph, save_graph
from repro.linking.io import load_mapping, save_mapping

if TYPE_CHECKING:
    from repro.system import Thetis


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.benchgen import PROFILES, build_benchmark
    from repro.benchgen.io import save_queries

    profile = PROFILES[args.profile]
    bench = build_benchmark(
        profile,
        num_tables=args.tables,
        num_query_pairs=args.queries,
        seed=args.seed,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_graph(bench.graph, out / "graph.json")
    save_lake(bench.lake, out / "lake.json")
    save_mapping(bench.mapping, out / "mapping.json")
    save_queries(bench.queries, out / "queries.json")
    stats = bench.statistics()
    print(stats.format_row(profile.name))
    print(f"wrote graph/lake/mapping/queries to {out}/")
    return 0


def _cmd_link(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    lake = load_lake(args.lake)
    if args.contextual:
        from repro.linking import ContextualLinker

        mapping = ContextualLinker(graph).link_lake(lake)
    else:
        from repro.linking.linker import LabelLinker

        linker = LabelLinker(graph, fuzzy=not args.exact_only)
        mapping = linker.link_lake(lake)
    save_mapping(mapping, args.out)
    print(f"linked {len(mapping)} cells across {len(lake)} tables "
          f"-> {args.out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.datalake.stats import corpus_statistics

    lake = load_lake(args.lake)
    mapping = load_mapping(args.mapping) if args.mapping else None
    stats = corpus_statistics(lake, mapping)
    print(stats.format_row(Path(args.lake).stem))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    if args.graph:
        from repro.kg.analytics import profile_graph, top_types

        graph = load_graph(args.graph)
        print(profile_graph(graph).format_report())
        print("most frequent types:")
        for name, count in top_types(graph, k=args.top):
            print(f"  {name:<24} {count:,}")
    if args.lake:
        from repro.datalake.profiling import profile_table

        lake = load_lake(args.lake)
        mapping = load_mapping(args.mapping) if args.mapping else None
        table_ids = (
            args.table if args.table else lake.table_ids()[: args.top]
        )
        for table_id in table_ids:
            print(profile_table(lake.get(table_id), mapping).format_report())
    if not args.graph and not args.lake:
        print("nothing to profile: pass --graph and/or --lake",
              file=sys.stderr)
        return 2
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.benchgen.io import load_queries
    from repro.lsh import LSHConfig, LSHTuner, TypeSignatureScheme, \
        frequent_types
    from repro.system import Thetis

    graph = load_graph(args.graph)
    lake = load_lake(args.lake)
    mapping = load_mapping(args.mapping)
    thetis = Thetis(lake, graph, mapping)
    query_set = load_queries(args.queries)
    sample = list(query_set.all_queries().values())[: args.sample]
    excluded = frequent_types(mapping, graph, lake.table_ids())
    tuner = LSHTuner(
        thetis.engine("types"),
        scheme_factory=lambda n: TypeSignatureScheme(
            graph, n, excluded_types=excluded
        ),
        k=args.k,
    )
    specs = args.config or ["32,8", "128,8", "30,10"]
    configs = tuple(
        LSHConfig(*map(int, spec.split(","))) for spec in specs
    )
    for outcome in tuner.sweep(sample, configs, votes_options=(1, 3)):
        print(outcome.format_row())
    best = tuner.recommend(sample, configs, votes_options=(1, 3),
                           min_retention=args.min_retention)
    print(f"recommended: {best.config} votes={best.votes}")
    return 0


def _parse_tuples(raw_tuples: Sequence[str]) -> Query:
    tuples: List[List[str]] = []
    for raw in raw_tuples:
        entities = [part.strip() for part in raw.split(",") if part.strip()]
        if entities:
            tuples.append(entities)
    return Query(tuples)


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.system import Thetis

    graph = load_graph(args.graph)
    lake = load_lake(args.lake)
    mapping = load_mapping(args.mapping)
    with Thetis(
        lake, graph, mapping,
        cache_size=args.cache_size,
        engine_kind=args.engine,
        index_dir=args.index,
    ) as thetis:
        if args.method == "embeddings":
            thetis.train_embeddings(
                dimensions=args.dimensions, seed=args.seed
            )
        query = _parse_tuples(args.tuple)
        results = thetis.search(
            query, k=args.k, method=args.method, votes=args.votes,
            mode=args.mode, task=args.task,
        )
        for rank, scored in enumerate(results, start=1):
            caption = lake.get(scored.table_id).metadata.get("caption", "")
            print(f"{rank:>3}. {scored.table_id:<24} "
                  f"{scored.score:.4f}  {caption}")
        if args.explain and len(results) > 0:
            best = results.table_ids(1)[0]
            print()
            print(thetis.explain(query, best,
                                 method=args.method).render(graph))
        if args.cache_stats:
            from repro.core.cache import format_cache_stats

            print()
            print("cache statistics:")
            print(format_cache_stats(thetis.cache_stats(args.method)))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeConfig, ThetisServer
    from repro.system import Thetis

    graph = load_graph(args.graph)
    lake = load_lake(args.lake)
    mapping = load_mapping(args.mapping)
    thetis = Thetis(
        lake, graph, mapping, engine_kind=args.engine, index_dir=args.index,
    )
    if args.method == "embeddings":
        thetis.train_embeddings(dimensions=args.dimensions, seed=args.seed)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        default_method=args.method,
        max_batch_size=args.max_batch,
        max_queue_depth=args.queue_depth,
        request_timeout=args.timeout,
        warm_on_start=not args.no_warm,
        prefilter_guardrail_every=args.guardrail_every,
    )
    banner = (
        f"serving {len(lake)} tables on "
        f"http://{config.host}:{{server.port}} "
        f"(method={args.method}, batch<= {config.max_batch_size}, "
        f"queue<= {config.max_queue_depth})"
    )
    return _run_node(banner, ThetisServer(thetis, config))


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.baselines import BM25TableSearch, text_query_from_labels
    from repro.benchgen.io import load_queries
    from repro.eval import (
        ExperimentRunner,
        build_ground_truth,
        compare_systems,
        write_markdown_report,
    )
    from repro.system import Thetis

    graph = load_graph(args.graph)
    lake = load_lake(args.lake)
    mapping = load_mapping(args.mapping)
    query_set = load_queries(args.queries)
    thetis = Thetis(
        lake, graph, mapping,
        cache_size=args.cache_size,
        engine_kind=args.engine,
    )
    bm25 = BM25TableSearch(lake)
    queries = query_set.all_queries()
    truths = {
        qid: build_ground_truth(
            lake, mapping, query,
            query_category=query_set.categories.get(qid),
            query_domain=query_set.domains.get(qid),
        )
        for qid, query in queries.items()
    }
    runner = ExperimentRunner(queries, truths)
    reports = runner.run_all(
        {
            "STST": lambda q, k: thetis.search(q, k=k),
            "STST+LSH": lambda q, k: thetis.search(
                q, k=k, mode="prefilter", votes=3
            ),
            "BM25": lambda q, k: bm25.search(
                text_query_from_labels(q, graph), k=k
            ),
        },
        k=args.k,
    )
    comparisons = {
        "STST vs BM25 (NDCG)": compare_systems(
            [o.ndcg for o in reports["STST"].outcomes],
            [o.ndcg for o in reports["BM25"].outcomes],
        ),
        "STST+LSH vs STST (NDCG)": compare_systems(
            [o.ndcg for o in reports["STST+LSH"].outcomes],
            [o.ndcg for o in reports["STST"].outcomes],
        ),
    }
    for report in reports.values():
        print(report.format_row())
    path = write_markdown_report(
        args.out,
        f"Semantic table search benchmark (k={args.k})",
        reports,
        comparisons,
        notes=[
            f"corpus: {args.lake} ({len(lake)} tables)",
            f"queries: {args.queries} ({len(queries)})",
        ],
    )
    print(f"report written to {path}")
    thetis.close()
    return 0


def _run_node(start_banner: str, server: object) -> int:
    """Run an asyncio server or cluster node until SIGINT/SIGTERM."""
    import asyncio
    import signal

    async def run() -> None:
        await server.start()  # type: ignore[attr-defined]
        print(start_banner.format(server=server))
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover (non-POSIX)
                pass
        try:
            await stop.wait()
        finally:
            print("shutting down ...", file=sys.stderr)
            await server.shutdown()  # type: ignore[attr-defined]

    asyncio.run(run())
    return 0


def _cmd_cluster_serve(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterConfig, ClusterCoordinator

    config = ClusterConfig(
        host=args.host,
        port=args.port,
        control_port=args.control_port,
        replication=args.replication,
        heartbeat_interval=args.heartbeat_interval,
        dead_after=args.dead_after,
        shard_timeout=args.shard_timeout,
        min_workers=args.min_workers,
    )
    coordinator = ClusterCoordinator(config)
    banner = (
        f"coordinator: http://{config.host}:{{server.port}} "
        f"(control {{server.control_port}}, "
        f"replication={config.replication})"
    )
    return _run_node(banner, coordinator)


def _cmd_cluster_worker(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterWorker, WorkerConfig
    from repro.system import Thetis

    graph = load_graph(args.graph)
    lake = load_lake(args.lake)
    mapping = load_mapping(args.mapping)
    thetis = Thetis(
        lake, graph, mapping, engine_kind=args.engine, index_dir=args.index,
    )
    config = WorkerConfig(
        worker_id=args.worker_id,
        host=args.host,
        port=args.port,
        coordinator_host=args.coordinator_host,
        coordinator_port=args.coordinator_port,
        advertise_host=args.advertise_host,
        method=args.method,
        warm_on_start=not args.no_warm,
    )
    worker = ClusterWorker(thetis, config)
    banner = (
        f"worker {config.worker_id}: {len(lake)} tables on "
        f"{config.host}:{{server.port}} "
        f"(coordinator {args.coordinator_host}:{args.coordinator_port})"
    )
    return _run_node(banner, worker)


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    import http.client

    connection = http.client.HTTPConnection(
        args.host, args.port, timeout=args.timeout
    )
    try:
        connection.request("GET", "/cluster/status")
        response = connection.getresponse()
        body = response.read().decode("utf-8")
    finally:
        connection.close()
    if response.status != 200:
        print(f"error: coordinator replied {response.status}: {body}",
              file=sys.stderr)
        return 1
    print(json.dumps(json.loads(body), indent=2, sort_keys=True))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run as run_lint

    return run_lint(args)


def _index_sigma(args: argparse.Namespace, thetis: Thetis):
    """The similarity the index is built/validated against."""
    if args.method == "embeddings":
        thetis.train_embeddings(dimensions=args.dimensions, seed=args.seed)
    return thetis.engine(args.method).sigma


def _cmd_index_build(args: argparse.Namespace) -> int:
    from repro.core.kernel import SegmentedCorpusIndex, save_index
    from repro.system import Thetis

    graph = load_graph(args.graph)
    lake = load_lake(args.lake)
    mapping = load_mapping(args.mapping)
    with Thetis(lake, graph, mapping, engine_kind="vectorized") as thetis:
        sigma = _index_sigma(args, thetis)
        index = SegmentedCorpusIndex.compile(
            lake, mapping, sigma, segment_tables=args.segment_tables
        )
        summary = save_index(index, args.out)
    print(f"indexed {summary['live_tables']} tables into "
          f"{summary['segments']} segment(s), "
          f"{summary['array_bytes']:,} array bytes -> {args.out}")
    return 0


def _cmd_index_load(args: argparse.Namespace) -> int:
    import time

    from repro.core.kernel import SegmentedCorpusIndex, load_index
    from repro.system import Thetis

    graph = load_graph(args.graph)
    lake = load_lake(args.lake)
    mapping = load_mapping(args.mapping)
    with Thetis(lake, graph, mapping, engine_kind="vectorized") as thetis:
        sigma = _index_sigma(args, thetis)
        start = time.perf_counter()
        index = load_index(args.index, sigma, mapping)
        load_seconds = time.perf_counter() - start
        stats = index.stats()
        mirrors = index.mirrors([table.table_id for table in lake])
        print(f"loaded {stats.live_tables} tables / {stats.segments} "
              f"segment(s) in {load_seconds * 1000:.1f} ms "
              f"(mirrors lake: {mirrors})")
        if args.compare_compile:
            start = time.perf_counter()
            SegmentedCorpusIndex.compile(lake, mapping, sigma)
            compile_seconds = time.perf_counter() - start
            speedup = compile_seconds / max(load_seconds, 1e-9)
            print(f"compile from scratch: {compile_seconds * 1000:.1f} ms "
                  f"({speedup:.1f}x slower than load)")
    return 0


def _cmd_index_inspect(args: argparse.Namespace) -> int:
    from repro.core.kernel import inspect_index

    summary = inspect_index(args.index, verify=args.verify)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that can add options on its first parse.

    ``generate`` and ``lint`` take option choices from
    ``repro.benchgen`` and ``repro.analysis``, which no serving command
    uses.  Their ``deferred`` callback imports them and adds those
    options only when the subcommand's arguments are parsed (its
    ``--help`` included), so ``thetis serve`` imports neither.
    """

    deferred: Optional[Callable[[argparse.ArgumentParser], None]] = None

    def parse_known_args(self, args=None, namespace=None):
        if self.deferred is not None:
            install, self.deferred = self.deferred, None
            install(self)
        return super().parse_known_args(args, namespace)


def _profile_argument(parser: argparse.ArgumentParser) -> None:
    from repro.benchgen import PROFILES

    parser.add_argument("--profile", choices=sorted(PROFILES),
                        default="wt2015")


def _lint_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(parser)


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for tests)."""
    parser = _Parser(
        prog="thetis",
        description="Semantic table search in semantic data lakes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser(
        "generate", help="generate a synthetic benchmark corpus"
    )
    generate.add_argument("--out", required=True, help="output directory")
    generate.deferred = _profile_argument
    generate.add_argument("--tables", type=int, default=500)
    generate.add_argument("--queries", type=int, default=10,
                          help="number of 1-/5-tuple query pairs")
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(func=_cmd_generate)

    link = sub.add_parser("link", help="entity-link a lake against a KG")
    link.add_argument("--graph", required=True)
    link.add_argument("--lake", required=True)
    link.add_argument("--out", required=True, help="mapping output path")
    link.add_argument("--exact-only", action="store_true",
                      help="disable fuzzy label matching")
    link.add_argument("--contextual", action="store_true",
                      help="disambiguate ambiguous labels by column "
                           "type coherence")
    link.set_defaults(func=_cmd_link)

    stats = sub.add_parser("stats", help="print corpus statistics")
    stats.add_argument("--lake", required=True)
    stats.add_argument("--mapping", default=None)
    stats.set_defaults(func=_cmd_stats)

    profile = sub.add_parser(
        "profile", help="profile a knowledge graph and/or tables"
    )
    profile.add_argument("--graph", default=None)
    profile.add_argument("--lake", default=None)
    profile.add_argument("--mapping", default=None)
    profile.add_argument("--table", action="append", default=None,
                         help="specific table id(s) to profile")
    profile.add_argument("--top", type=int, default=5,
                         help="top types / table count limit")
    profile.set_defaults(func=_cmd_profile)

    tune = sub.add_parser(
        "tune", help="auto-tune LSH configuration on sample queries"
    )
    tune.add_argument("--graph", required=True)
    tune.add_argument("--lake", required=True)
    tune.add_argument("--mapping", required=True)
    tune.add_argument("--queries", required=True,
                      help="queries.json written by 'generate'")
    tune.add_argument("--config", action="append",
                      default=None, help="candidate as 'vectors,band'")
    tune.add_argument("--sample", type=int, default=5)
    tune.add_argument("-k", type=int, default=10)
    tune.add_argument("--min-retention", type=float, default=0.9)
    tune.set_defaults(func=_cmd_tune)

    bench = sub.add_parser(
        "bench", help="run a BM25-vs-semantic benchmark, write a report"
    )
    bench.add_argument("--graph", required=True)
    bench.add_argument("--lake", required=True)
    bench.add_argument("--mapping", required=True)
    bench.add_argument("--queries", required=True)
    bench.add_argument("--out", required=True, help="markdown report path")
    bench.add_argument("-k", type=int, default=10)
    bench.add_argument("--cache-size", type=int,
                       default=DEFAULT_SIMILARITY_CACHE_SIZE,
                       help="the scalar engine's similarity-cache entry "
                            "bound (--engine scalar)")
    bench.add_argument("--engine", choices=ENGINE_KINDS,
                       default="vectorized",
                       help="scoring engine (scalar = the per-cell "
                            "Algorithm 1 reference)")
    bench.set_defaults(func=_cmd_bench)

    serve = sub.add_parser(
        "serve", help="run the online HTTP/JSON query service"
    )
    serve.add_argument("--graph", required=True)
    serve.add_argument("--lake", required=True)
    serve.add_argument("--mapping", required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="0 picks an ephemeral port")
    serve.add_argument("--method", choices=["types", "embeddings"],
                       default="types")
    serve.add_argument("--dimensions", type=int, default=32,
                       help="embedding width when --method embeddings")
    serve.add_argument("--engine", choices=["vectorized"],
                       default="vectorized",
                       help="scoring engine: the batched numpy kernel "
                            "over a compiled corpus index")
    serve.add_argument("--max-batch", type=int, default=8,
                       help="queries coalesced per engine pass")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="admission bound; 503 beyond it")
    serve.add_argument("--timeout", type=float, default=30.0,
                       help="per-request deadline (seconds; 504 past it)")
    serve.add_argument("--no-warm", action="store_true",
                       help="skip index warm-up (readyz flips immediately)")
    serve.add_argument("--index", default=None, metavar="DIR",
                       help="persisted index directory (built with "
                            "'thetis index build'); memmapped for a "
                            "zero-copy cold start")
    serve.add_argument("--guardrail-every", type=int, default=0,
                       metavar="N",
                       help="cross-check every Nth prefilter-mode query "
                            "against the exact ranking and record its "
                            "recall@k in /metrics (0 disables)")
    serve.add_argument("--seed", type=int, default=0)
    serve.set_defaults(func=_cmd_serve)

    search = sub.add_parser("search", help="semantic table search")
    search.add_argument("--graph", required=True)
    search.add_argument("--lake", required=True)
    search.add_argument("--mapping", required=True)
    search.add_argument(
        "--tuple", action="append", required=True,
        help="comma-separated entity URIs; repeat for multi-tuple queries",
    )
    search.add_argument("-k", type=int, default=10)
    search.add_argument("--method", choices=["types", "embeddings"],
                        default="types")
    search.add_argument("--dimensions", type=int, default=32,
                        help="embedding width when --method embeddings")
    search.add_argument("--votes", type=int, default=1)
    search.add_argument("--task", choices=["entity", "union", "join"],
                        default="entity",
                        help="search workload: 'entity' ranks by "
                             "entity-tuple relevance (the default), "
                             "'union' by attribute unionability, 'join' "
                             "by joinable-column overlap — union and "
                             "join run on the vectorized corpus kernels")
    search.add_argument("--mode", choices=["exact", "prefilter"],
                        default="exact",
                        help="retrieval mode: 'exact' scores every table, "
                             "'prefilter' generates an LSH candidate set "
                             "and rescores only the shortlist with "
                             "bound-based early termination")
    search.add_argument("--cache-size", type=int,
                        default=DEFAULT_SIMILARITY_CACHE_SIZE,
                        help="the scalar engine's similarity-cache entry "
                             "bound (--engine scalar, --explain)")
    search.add_argument("--engine", choices=ENGINE_KINDS,
                        default="vectorized",
                        help="scoring engine (vectorized = batched numpy "
                             "kernel over a compiled corpus index; scalar "
                             "= the per-cell Algorithm 1 reference; "
                             "identical rankings)")
    search.add_argument("--index", default=None, metavar="DIR",
                        help="persisted index directory (built with "
                             "'thetis index build'); memmapped for a "
                             "zero-copy cold start — requires --engine "
                             "vectorized")
    search.add_argument("--cache-stats", action="store_true",
                        help="print cache hit/miss statistics after "
                             "searching")
    search.add_argument("--explain", action="store_true",
                        help="explain the top result")
    search.add_argument("--seed", type=int, default=0)
    search.set_defaults(func=_cmd_search)

    index = sub.add_parser(
        "index", help="build/load/inspect a persistent segmented index"
    )
    index_sub = index.add_subparsers(dest="index_command", required=True)

    def _index_corpus_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument("--graph", required=True)
        p.add_argument("--lake", required=True)
        p.add_argument("--mapping", required=True)
        p.add_argument("--method", choices=["types", "embeddings"],
                       default="types",
                       help="similarity the index is compiled against")
        p.add_argument("--dimensions", type=int, default=32,
                       help="embedding width when --method embeddings")
        p.add_argument("--seed", type=int, default=0)

    index_build = index_sub.add_parser(
        "build", help="compile the lake and persist the index to disk"
    )
    _index_corpus_arguments(index_build)
    index_build.add_argument("--out", required=True,
                             help="index output directory")
    index_build.add_argument("--segment-tables", type=int, default=0,
                             help="tables per segment (0 = one segment; "
                                  "smaller segments make later updates "
                                  "cheaper at a small scan overhead)")
    index_build.set_defaults(func=_cmd_index_build)

    index_load = index_sub.add_parser(
        "load", help="memmap-load a persisted index and report timings"
    )
    _index_corpus_arguments(index_load)
    index_load.add_argument("--index", required=True,
                            help="index directory to load")
    index_load.add_argument("--compare-compile", action="store_true",
                            help="also time a compile-from-scratch for "
                                 "the cold-start speedup")
    index_load.set_defaults(func=_cmd_index_load)

    index_inspect = index_sub.add_parser(
        "inspect", help="summarize an index directory from its header"
    )
    index_inspect.add_argument("--index", required=True,
                               help="index directory to inspect")
    index_inspect.add_argument("--verify", action="store_true",
                               help="resolve every array against the "
                                    "payload (detects truncation)")
    index_inspect.set_defaults(func=_cmd_index_inspect)

    cluster = sub.add_parser(
        "cluster",
        help="sharded scatter-gather serving: coordinator + workers",
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command",
                                         required=True)

    cluster_serve = cluster_sub.add_parser(
        "serve", help="run the data-free scatter-gather coordinator"
    )
    cluster_serve.add_argument("--host", default="127.0.0.1")
    cluster_serve.add_argument("--port", type=int, default=8080,
                               help="HTTP front-door port (0 = ephemeral)")
    cluster_serve.add_argument("--control-port", type=int, default=8081,
                               help="worker register/heartbeat port "
                                    "(0 = ephemeral)")
    cluster_serve.add_argument("--replication", type=int, default=2,
                               help="R-way shard replication on the ring")
    cluster_serve.add_argument("--heartbeat-interval", type=float,
                               default=0.5,
                               help="seconds between worker pings")
    cluster_serve.add_argument("--dead-after", type=int, default=3,
                               help="consecutive failures before a worker "
                                    "is declared dead and replicas are "
                                    "promoted")
    cluster_serve.add_argument("--shard-timeout", type=float, default=10.0,
                               help="per-shard scatter deadline (seconds)")
    cluster_serve.add_argument("--min-workers", type=int, default=1,
                               help="live workers required for /readyz")
    cluster_serve.set_defaults(func=_cmd_cluster_serve)

    cluster_worker = cluster_sub.add_parser(
        "worker", help="run one shard-scoring worker and register it"
    )
    cluster_worker.add_argument("--graph", required=True)
    cluster_worker.add_argument("--lake", required=True)
    cluster_worker.add_argument("--mapping", required=True)
    cluster_worker.add_argument("--worker-id", required=True,
                                help="stable id on the hash ring")
    cluster_worker.add_argument("--host", default="127.0.0.1")
    cluster_worker.add_argument("--port", type=int, default=0,
                                help="shard-protocol port (0 = ephemeral)")
    cluster_worker.add_argument("--coordinator-host", required=True)
    cluster_worker.add_argument("--coordinator-port", type=int,
                                required=True,
                                help="the coordinator's control port")
    cluster_worker.add_argument("--advertise-host", default=None,
                                help="host the coordinator should dial "
                                     "back (defaults to --host)")
    cluster_worker.add_argument("--method",
                                choices=["types", "embeddings"],
                                default="types")
    cluster_worker.add_argument("--engine", choices=["vectorized"],
                                default="vectorized",
                                help="scoring engine: the batched numpy "
                                     "kernel, which memmaps --index for "
                                     "a zero-copy cold start")
    cluster_worker.add_argument("--index", default=None, metavar="DIR",
                                help="persisted index directory (built "
                                     "with 'thetis index build')")
    cluster_worker.add_argument("--no-warm", action="store_true",
                                help="skip engine warm-up before "
                                     "registering")
    cluster_worker.set_defaults(func=_cmd_cluster_worker)

    cluster_status = cluster_sub.add_parser(
        "status", help="print the coordinator's /cluster/status document"
    )
    cluster_status.add_argument("--host", default="127.0.0.1")
    cluster_status.add_argument("--port", type=int, default=8080,
                                help="the coordinator's HTTP port")
    cluster_status.add_argument("--timeout", type=float, default=10.0)
    cluster_status.set_defaults(func=_cmd_cluster_status)

    lint = sub.add_parser(
        "lint", help="run the repro.analysis static analyzer"
    )
    lint.deferred = _lint_arguments
    lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Library errors and missing files are reported on stderr with exit
    code 1 instead of a traceback; argparse errors keep their usual
    exit code 2.
    """
    from repro.exceptions import ReproError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
