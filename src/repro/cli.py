"""Command-line interface: experiments, batch queries, service and kernels.

Subcommands
-----------
``run`` (default)
    Reproduce the paper's tables and figures.  For backward compatibility the
    subcommand name may be omitted: ``python -m repro fig7`` works.
``batch-query``
    Evaluate a batch of dynamic-preference skyline queries over one synthetic
    workload — or a packed store (``--store``) — through
    :class:`~repro.engine.batch.BatchQueryEngine`.
``serve``
    Start the long-running JSON-over-TCP skyline query service
    (:mod:`repro.service`) over one synthetic workload or a packed store.
``query``
    Send one request (query / ping / stats / shutdown) to a running service.
``mutate``
    Send live mutations (insert / delete / compact) to a running service's
    delta plane.
``pack``
    Pack one synthetic workload into a single mmap-able dataset store file
    for instant cold starts (``--store`` on batch-query/serve).
``kernels``
    List the available dominance kernel backends.
``lint``
    Run the ``reprolint`` architectural-invariant checks (``tools/reprolint``)
    over the source tree — see README "Static analysis & invariants".

Examples
--------
Run one figure with the quick profile::

    python -m repro fig7

Answer 20 random preference queries over a 5k-tuple workload, forcing the
pure-Python kernel::

    python -m repro batch-query --cardinality 5000 --queries 20 --kernel purepython

Serve a 50k-tuple workload on 4 worker processes and query it::

    python -m repro serve --cardinality 50000 --workers 4 &
    python -m repro query --wait 30 --seed 3
    python -m repro query --stats
    python -m repro query --shutdown

Pack the same workload once, then serve it with a zero-copy mmap cold start::

    python -m repro pack --cardinality 50000 --out catalog.rpro
    python -m repro serve --store catalog.rpro --workers 4

Apply live updates to the served store through the delta plane::

    python -m repro mutate --insert-json rows.json
    python -m repro mutate --delete 17 42
    python -m repro mutate --compact
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.reporting import render_tables
from repro.bench.runner import BenchProfile
from repro.config import RuntimeConfig
from repro.exceptions import ExperimentError, ReproError
from repro.kernels import available_kernels, get_kernel, set_default_kernel


def _select_kernel(name: str | None) -> int:
    """Install the CLI kernel override; returns an exit code (0 = ok)."""
    if not name:
        return 0
    try:
        set_default_kernel(name)
    except ExperimentError as error:
        print(f"error: {error}", file=sys.stderr)
        print(f"available kernels: {', '.join(available_kernels())}", file=sys.stderr)
        return 2
    return 0


def _add_kernel_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kernel",
        default=None,
        help="dominance kernel backend (purepython/numpy; default: "
        "REPRO_KERNEL env var, else numpy when available)",
    )


def _add_sharding_options(parser: argparse.ArgumentParser) -> None:
    """``--workers`` mirrors ``--kernel``: flag, then REPRO_WORKERS, then 0."""
    parser.add_argument(
        "--workers",
        default=None,
        help="worker processes for sharded execution (default: REPRO_WORKERS "
        "env var, else 0 = single process)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="number of data shards (default: one per worker)",
    )
    parser.add_argument(
        "--partitioner",
        choices=("round-robin", "po-group"),
        default="round-robin",
        help="dataset sharding strategy",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="open this packed dataset store (written by 'repro pack') instead "
        "of generating a synthetic workload (default: REPRO_STORE env var)",
    )
    parser.add_argument(
        "--compact-threshold",
        type=int,
        default=None,
        metavar="N",
        help="fold the delta plane into a fresh base after N pending "
        "mutations; 0 disables auto-compaction (default: "
        "REPRO_COMPACT_THRESHOLD env var, else 8192)",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="deterministic fault-injection spec, e.g. "
        "'store.section_read:raise' or 'pool.worker_task:delay:ms=50' "
        "(chaos testing; default: REPRO_FAULTS env var, else off)",
    )


def _add_workload_options(parser: argparse.ArgumentParser) -> None:
    """The synthetic-workload knobs shared by batch-query and serve."""
    parser.add_argument("--cardinality", type=int, default=2000, help="dataset size N")
    parser.add_argument("--to", type=int, default=2, dest="num_total_order", help="|TO| attributes")
    parser.add_argument("--po", type=int, default=1, dest="num_partial_order", help="|PO| attributes")
    parser.add_argument("--height", type=int, default=6, help="PO lattice height h")
    parser.add_argument("--density", type=float, default=0.8, help="PO lattice density d")
    parser.add_argument(
        "--distribution",
        choices=("independent", "anticorrelated", "correlated"),
        default="independent",
    )
    parser.add_argument("--seed", type=int, default=7, help="workload / query seed")
    parser.add_argument(
        "--no-prefilter",
        action="store_true",
        help="disable the shared per-PO-group TO-Pareto prefilter",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=None,
        help="LRU bound of the per-topology result/encoding caches "
        f"(default {_default_cache_size()})",
    )


def _default_cache_size() -> int:
    from repro.engine.batch import DEFAULT_CACHE_SIZE

    return DEFAULT_CACHE_SIZE


def _build_workload(args, name: str):
    from repro.data.workloads import WorkloadSpec

    spec = WorkloadSpec(
        name=name,
        distribution=args.distribution,
        cardinality=args.cardinality,
        num_total_order=args.num_total_order,
        num_partial_order=args.num_partial_order,
        dag_height=args.height,
        dag_density=args.density,
        seed=args.seed,
    )
    return spec.build()


def _runtime_config(args) -> RuntimeConfig:
    """One resolved :class:`RuntimeConfig` from the CLI flags.

    Unset flags fall through to their ``REPRO_*`` environment variables.
    The kernel is a process-wide override (``_select_kernel`` installs it
    before any engine is built), so it is deliberately left unset here.
    """
    return RuntimeConfig.resolve(
        workers=args.workers,
        shards=args.shards,
        partitioner=args.partitioner,
        prefilter=not args.no_prefilter,
        cache_size=args.cache_size,
        store=args.store,
        compact_threshold=args.compact_threshold,
        faults=args.faults,
    )


def _open_engine(args, name: str):
    """The configured engine: a packed store when given, else a fresh workload."""
    from repro.api import open_dataset

    config = _runtime_config(args)
    if config.store is not None:
        return open_dataset(config.store, config=config)
    _, dataset = _build_workload(args, name)
    return open_dataset(dataset, config=config)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the tables and figures of 'Topologically Sorted Skylines "
        "for Partially Ordered Domains' (ICDE 2009).",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=f"experiment ids to run, or 'all'; available: {', '.join(sorted(EXPERIMENTS))}",
    )
    parser.add_argument(
        "--profile",
        choices=("quick", "full"),
        default=None,
        help="parameter grid size (default: REPRO_BENCH_PROFILE env var or 'quick')",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="also write the rendered tables to this file",
    )
    parser.add_argument(
        "--markdown",
        action="store_true",
        help="render tables as markdown instead of fixed-width text",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="additionally render each experiment as a text bar chart",
    )
    _add_kernel_option(parser)
    return parser


def build_batch_query_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro batch-query",
        description="Evaluate a batch of dynamic-preference skyline queries over one "
        "synthetic workload with shared dominance work and per-topology caching.",
    )
    _add_workload_options(parser)
    parser.add_argument("--queries", type=int, default=10, help="number of random queries")
    parser.add_argument("--repeat", type=int, default=1, help="repeat the query list this many times (exercises the cache)")
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print per-phase timings (encode / build / index_build / query / "
        "merge) with the summary",
    )
    parser.add_argument("--json", default=None, help="write results as JSON to this file")
    _add_kernel_option(parser)
    _add_sharding_options(parser)
    return parser


def batch_query_main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``batch-query`` subcommand."""
    from repro.engine.batch import BatchQuery, queries_from_seeds

    args = build_batch_query_parser().parse_args(argv)
    if (code := _select_kernel(args.kernel)) != 0:
        return code

    try:
        with _open_engine(args, "batch-query") as engine:
            schema = engine.schema
            queries = [BatchQuery("base")]
            queries += queries_from_seeds(schema, range(args.seed, args.seed + args.queries))
            queries = queries * max(1, args.repeat)

            rows = []
            for result in engine.run(queries):
                rows.append(
                    {
                        "query": result.name,
                        "skyline_size": len(result.skyline_ids),
                        "from_cache": result.from_cache,
                        "seconds": result.seconds,
                    }
                )
                source = "cache" if result.from_cache else f"{result.seconds * 1000:8.1f} ms"
                print(f"{result.name:>8}  |skyline|={len(result.skyline_ids):<5d}  {source}")

            summary = engine.summary()
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    workers = summary["workers"]
    sharded = f", workers={workers}" if workers else ""
    print(
        f"\n{summary['dataset_size']} tuples, {summary['candidates_after_prefilter']} "
        f"after prefilter; {summary['queries_evaluated']} evaluated, "
        f"{summary['cache_hits']} served from cache "
        f"({summary['cached_topologies']} cached topologies, kernel={summary['kernel']}"
        f"{sharded})"
    )
    if args.profile:
        phases = summary["phase_seconds"]
        total = sum(phases.values())
        rendered = " | ".join(
            f"{name} {phases[name] * 1000:.1f} ms"
            for name in ("encode", "build", "index_build", "query", "merge")
        )
        print(f"phases: {rendered} | total {total * 1000:.1f} ms")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"summary": summary, "results": rows}, handle, indent=2)
            handle.write("\n")
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve dynamic-preference skyline queries over one synthetic "
        "workload: JSON over TCP, shared result cache, optional sharded "
        "parallel execution.",
    )
    parser.add_argument("--host", default=None, help="bind address (default 127.0.0.1)")
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        help="TCP port (default 7409; 0 picks an ephemeral port)",
    )
    _add_workload_options(parser)
    _add_kernel_option(parser)
    _add_sharding_options(parser)
    return parser


def serve_main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``serve`` subcommand."""
    import asyncio

    from repro.service import DEFAULT_HOST, DEFAULT_PORT, QueryService

    args = build_serve_parser().parse_args(argv)
    if (code := _select_kernel(args.kernel)) != 0:
        return code

    async def _serve() -> None:
        service = QueryService(_open_engine(args, "serve"))
        # SIGTERM/SIGINT drain in-flight requests and close the pool, then
        # exit 0 — the same path a client 'shutdown' op takes.
        service.install_signal_handlers()
        host, port = await service.start(
            args.host if args.host is not None else DEFAULT_HOST,
            args.port if args.port is not None else DEFAULT_PORT,
        )
        summary = service.engine.summary()
        print(
            f"repro serve: listening on {host}:{port} "
            f"({summary['dataset_size']} tuples, "
            f"{summary['candidates_after_prefilter']} candidates, "
            f"kernel={summary['kernel']}, workers={summary['workers']})",
            flush=True,
        )
        await service.serve_until_shutdown()
        stats = service.stats()
        print(
            f"repro serve: shut down cleanly after {stats['queries']} queries "
            f"({stats['requests_served']} requests, "
            f"{stats['connections_served']} connections)",
            flush=True,
        )

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("repro serve: interrupted", file=sys.stderr)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def build_query_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro query",
        description="Send one request to a running 'repro serve' instance.",
    )
    parser.add_argument("--host", default=None, help="service address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=None, help="service port (default 7409)")
    parser.add_argument(
        "--wait",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="wait up to this long for the service to become ready first",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="per-response socket timeout (raise it for big cold queries)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1, help="send the query this many times (exercises the cache)"
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="per-request server-side deadline in milliseconds (expiry "
        "answers a typed deadline_exceeded error, never partial results)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="transport-failure retries for idempotent requests (default 2)",
    )
    parser.add_argument("--json", default=None, help="write the raw response(s) to this file")
    what = parser.add_mutually_exclusive_group()
    what.add_argument(
        "--seed",
        type=int,
        default=None,
        help="query with server-side random preferences drawn from this seed",
    )
    what.add_argument(
        "--overrides-json",
        default=None,
        metavar="FILE",
        help="query with explicit DAG overrides read from a JSON file "
        '({"po1": {"values": [...], "edges": [[u, v], ...]}})',
    )
    what.add_argument("--stats", action="store_true", help="fetch service statistics")
    what.add_argument("--ping", action="store_true", help="liveness probe")
    what.add_argument("--shutdown", action="store_true", help="stop the service cleanly")
    return parser


def query_main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``query`` subcommand."""
    from repro.service import DEFAULT_HOST, DEFAULT_PORT, ServiceClient, wait_for_service

    args = build_query_parser().parse_args(argv)
    host = args.host if args.host is not None else DEFAULT_HOST
    port = args.port if args.port is not None else DEFAULT_PORT

    overrides = None
    if args.overrides_json is not None:
        try:
            with open(args.overrides_json, encoding="utf-8") as handle:
                overrides = json.load(handle)
        except (OSError, ValueError) as error:
            print(f"error: cannot read overrides file: {error}", file=sys.stderr)
            return 2

    try:
        if args.wait > 0:
            wait_for_service(host, port, timeout=args.wait)
        responses: list[dict] = []
        with ServiceClient(
            host, port, timeout=args.timeout, retries=args.retries
        ) as client:
            if args.ping:
                responses.append(client.ping())
                print(f"pong (protocol {responses[-1]['protocol']})")
            elif args.stats:
                stats = client.stats()
                responses.append({"ok": True, "stats": stats})
                print(json.dumps(stats, indent=2))
            elif args.shutdown:
                responses.append(client.shutdown())
                print("service stopping")
            else:
                payload: dict[str, object] = {"op": "query", "omit_ids": True}
                if args.seed is not None:
                    payload["seed"] = args.seed
                elif overrides is not None:
                    payload["overrides"] = overrides
                if args.deadline_ms is not None:
                    payload["deadline_ms"] = args.deadline_ms
                for _ in range(max(1, args.repeat)):
                    response = client.checked_request(payload)
                    responses.append(response)
                    source = (
                        "cache"
                        if response["from_cache"]
                        else f"{float(response['seconds']) * 1000:8.1f} ms"
                    )
                    print(
                        f"{response['name']:>8}  |skyline|={response['skyline_size']:<5d}  {source}"
                    )
    except ReproError as error:
        # Covers ServiceError (connection/protocol) and server-relayed store
        # failures — e.g. '--stats'/'--shutdown' against a service whose
        # packed store went stale: the StoreError text names the store path
        # and the format version this build reads.
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(responses if len(responses) > 1 else responses[0], handle, indent=2)
            handle.write("\n")
    return 0


def build_mutate_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro mutate",
        description="Apply live mutations (insert / delete / compact) to a "
        "running 'repro serve' instance's delta plane.",
    )
    parser.add_argument("--host", default=None, help="service address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=None, help="service port (default 7409)")
    parser.add_argument(
        "--wait",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="wait up to this long for the service to become ready first",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="per-response socket timeout (raise it for big compactions)",
    )
    parser.add_argument(
        "--token",
        default=None,
        metavar="TOKEN",
        help="idempotency token: makes --insert-json/--delete retry-safe "
        "(the server replays the remembered response on re-delivery)",
    )
    parser.add_argument("--json", default=None, help="write the raw response(s) to this file")
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument(
        "--insert-json",
        default=None,
        metavar="FILE",
        help="insert the rows read from a JSON file: a list of attribute-value "
        "lists in schema order ([[1.5, 2.0, \"a\"], ...])",
    )
    what.add_argument(
        "--delete",
        type=int,
        nargs="+",
        default=None,
        metavar="ID",
        help="tombstone these stable record ids",
    )
    what.add_argument(
        "--compact",
        action="store_true",
        help="fold the delta plane into a fresh base now",
    )
    return parser


def mutate_main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``mutate`` subcommand."""
    from repro.service import DEFAULT_HOST, DEFAULT_PORT, ServiceClient, wait_for_service

    args = build_mutate_parser().parse_args(argv)
    host = args.host if args.host is not None else DEFAULT_HOST
    port = args.port if args.port is not None else DEFAULT_PORT

    rows = None
    if args.insert_json is not None:
        try:
            with open(args.insert_json, encoding="utf-8") as handle:
                rows = json.load(handle)
        except (OSError, ValueError) as error:
            print(f"error: cannot read rows file: {error}", file=sys.stderr)
            return 2

    response: dict[str, object]
    try:
        if args.wait > 0:
            wait_for_service(host, port, timeout=args.wait)
        with ServiceClient(host, port, timeout=args.timeout) as client:
            token = {"token": args.token} if args.token else {}
            if rows is not None:
                response = client.checked_request(
                    {"op": "insert", "rows": rows, **token}
                )
                ids = response["ids"]
                print(f"inserted {response['inserted']} rows -> ids {ids}")
            elif args.delete is not None:
                response = client.checked_request(
                    {"op": "delete", "ids": args.delete, **token}
                )
                print(f"deleted {response['deleted']} of {len(args.delete)} ids")
            else:
                response = client.checked_request({"op": "compact"})
                summary = response["compaction"]
                if summary.get("compacted"):
                    print(
                        f"compacted {summary['folded_mutations']} mutations into "
                        f"{summary['rows']} rows "
                        f"(generation {summary.get('generation', '-')}, "
                        f"{summary['seconds'] * 1000:.1f} ms)"
                    )
                else:
                    print("nothing to compact")
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(response, handle, indent=2)
            handle.write("\n")
    return 0


def build_pack_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro pack",
        description="Pack one synthetic workload into a single mmap-able "
        "dataset store file: encoded columns, prefiltered survivors, the "
        "base-topology mapping and its bulk-loaded spatial index.",
    )
    _add_workload_options(parser)
    parser.add_argument(
        "--out", required=True, metavar="PATH", help="store file to write"
    )
    parser.add_argument(
        "--max-entries",
        type=int,
        default=32,
        help="R-tree fanout persisted for the base topology (default 32)",
    )
    _add_kernel_option(parser)
    return parser


def pack_main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``pack`` subcommand."""
    from repro.api import pack

    args = build_pack_parser().parse_args(argv)
    if (code := _select_kernel(args.kernel)) != 0:
        return code

    _, dataset = _build_workload(args, "pack")
    try:
        summary = pack(dataset, args.out, max_entries=args.max_entries)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    base = summary["base"]
    artifacts = "frame"
    if base["has_mapping"]:
        artifacts += "+mapping"
    if base["has_index"]:
        artifacts += "+index"
    print(
        f"packed {summary['rows']} tuples -> {summary['path']} "
        f"({summary['bytes']} bytes, format v{summary['format_version']}, "
        f"{summary['survivors']} survivors, {artifacts})"
    )
    return 0


def lint_main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``lint`` subcommand — delegates to tools/reprolint.

    The linter is a dev tool shipped in the source checkout (not the wheel);
    it is importable either directly (``PYTHONPATH=tools``) or by resolving
    ``tools/`` relative to this file / the working directory.
    """
    try:
        from reprolint.cli import main as reprolint_main
    except ImportError:
        import pathlib

        for base in (pathlib.Path(__file__).resolve().parents[2], pathlib.Path.cwd()):
            candidate = base / "tools"
            if (candidate / "reprolint" / "__init__.py").is_file():
                sys.path.insert(0, str(candidate))
                break
        try:
            from reprolint.cli import main as reprolint_main
        except ImportError:
            print(
                "error: reprolint not found — 'repro lint' needs the "
                "tools/reprolint package of a source checkout",
                file=sys.stderr,
            )
            return 2
    return reprolint_main(list(argv) if argv is not None else [])


def kernels_main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``kernels`` subcommand."""
    argparse.ArgumentParser(
        prog="repro kernels",
        description="List the available dominance kernel backends.",
    ).parse_args(argv)
    try:
        default = get_kernel().name
    except ExperimentError as error:  # e.g. a bogus REPRO_KERNEL env var
        print(f"error: {error}", file=sys.stderr)
        default = None
    for name in available_kernels():
        marker = " (default)" if name == default else ""
        print(f"{name}{marker}")
    return 0 if default is not None else 2


def main(argv: Sequence[str] | None = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "batch-query":
        return batch_query_main(arguments[1:])
    if arguments and arguments[0] == "serve":
        return serve_main(arguments[1:])
    if arguments and arguments[0] == "query":
        return query_main(arguments[1:])
    if arguments and arguments[0] == "mutate":
        return mutate_main(arguments[1:])
    if arguments and arguments[0] == "pack":
        return pack_main(arguments[1:])
    if arguments and arguments[0] == "kernels":
        return kernels_main(arguments[1:])
    if arguments and arguments[0] == "lint":
        return lint_main(arguments[1:])
    if arguments and arguments[0] == "run":
        arguments = arguments[1:]

    args = build_parser().parse_args(arguments)
    if (code := _select_kernel(args.kernel)) != 0:
        return code
    if args.profile is None:
        profile = BenchProfile.from_env()
    else:
        profile = BenchProfile.full() if args.profile == "full" else BenchProfile.quick()

    requested = list(args.experiments)
    if any(item == "all" for item in requested):
        requested = sorted(EXPERIMENTS)

    unknown = [item for item in requested if item not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
        return 2

    tables = []
    for experiment_id in requested:
        print(f"running {experiment_id} (profile={profile.name}) ...", file=sys.stderr)
        tables.append(run_experiment(experiment_id, profile))

    if args.markdown:
        rendered = "\n\n".join(table.to_markdown() for table in tables)
    else:
        rendered = render_tables(tables)
    if args.chart:
        from repro.bench.charts import render_experiment_chart

        rendered += "\n\n" + "\n\n".join(render_experiment_chart(table) for table in tables)
    print(rendered)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
