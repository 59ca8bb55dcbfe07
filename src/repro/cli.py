"""Command-line interface: ``python -m repro.cli <command>``.

Gives the reproduction a front door without writing any code:

* ``demo`` — the quickstart pipeline (deploy, train, elect, query);
* ``experiment <id>`` — regenerate one of the paper's tables/figures
  (``fig6`` .. ``fig15``, ``table3``) and print the paper-style report;
* ``query "<sql>"`` — run one query against a freshly trained network
  and show the plan, the participants and the answer;
* ``report`` — run a seeded maintenance workload with full
  observability and print the :class:`~repro.obs.report.RunReport`
  summary (optionally exporting JSONL/CSV and a wall-clock profile);
* ``serve`` — stand up the query serving front-end against a freshly
  trained network, fire a concurrent client workload at it, and print
  throughput, latency percentiles and epoch-cache statistics;
* ``run`` — train and elect a large deployment (2,000 nodes at the
  degree-12 radius by default) and print its traffic and wall time;

Examples::

    python -m repro.cli demo --classes 4 --threshold 1.0
    python -m repro.cli experiment fig6 --repetitions 2
    python -m repro.cli query "SELECT AVG(value) FROM sensors USE SNAPSHOT"
    python -m repro.cli report --nodes 100 --rounds 5 --jsonl run.jsonl
    python -m repro.cli serve --queries 500 --clients 8
    python -m repro.cli run -n 20000 --duration 4
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.config import ProtocolConfig
from repro.core.runtime import SnapshotRuntime
from repro.data.random_walk import RandomWalkConfig, generate_random_walk
from repro.experiments import (
    coverage_under_failure,
    figure6_vary_classes,
    figure7_vary_message_loss,
    figure8_vary_cache_size,
    figure9_vary_transmission_range,
    figure10_lifetime,
    figure11_vary_threshold,
    figure12_estimation_error,
    figure13_spurious_representatives,
    figure14_snapshot_size_over_time,
    figure15_messages_per_update,
    format_multi_series,
    format_rows,
    format_series,
    format_table3,
    table3_savings,
)
from repro.network.topology import uniform_random_topology
from repro.query.executor import QueryExecutor
from repro.query.formatting import format_query
from repro.query.parser import parse_query
from repro.query.planner import QueryPlanner

__all__ = ["main", "build_parser", "UsageError"]


class UsageError(Exception):
    """A command-line value the command cannot run with.

    :func:`main` prints it as one ``repro: error: ...`` line and exits
    with status 2, as ``argparse`` does for values it rejects itself.
    """


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise UsageError(message)


def _check_network(
    n_nodes: int, n_classes: int, transmission_range: Optional[float] = None
) -> None:
    """Reject a deployment the dataset or topology builders cannot make."""
    _require(n_nodes >= 1, f"--nodes must be at least 1, got {n_nodes}")
    _require(
        1 <= n_classes <= n_nodes,
        f"--classes must be between 1 and --nodes ({n_nodes}), got {n_classes}",
    )
    if transmission_range is not None:
        _require(
            transmission_range > 0,
            f"--range must be positive, got {transmission_range:g}",
        )


def _build_network(
    n_nodes: int, n_classes: int, threshold: float, transmission_range: float, seed: int
) -> SnapshotRuntime:
    _check_network(n_nodes, n_classes, transmission_range)
    rng = np.random.default_rng(seed)
    dataset, __ = generate_random_walk(
        RandomWalkConfig(n_nodes=n_nodes, n_classes=n_classes), rng
    )
    topology = uniform_random_topology(n_nodes, transmission_range, rng)
    runtime = SnapshotRuntime(
        topology, dataset, ProtocolConfig(threshold=threshold), seed=seed
    )
    runtime.train(duration=10)
    runtime.advance_to(100)
    return runtime


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def cmd_demo(args: argparse.Namespace) -> int:
    runtime = _build_network(
        args.nodes, args.classes, args.threshold, args.range, args.seed
    )
    view = runtime.run_election()
    print(f"network: {view.n_nodes} nodes, {args.classes} hidden classes, "
          f"T={args.threshold}, range={args.range}")
    print(f"snapshot: {view.size} representatives "
          f"({100 * view.fraction():.0f}% of the network)")
    print(f"max protocol messages by any node: "
          f"{runtime.stats.max_protocol_messages_any_node()}")
    for representative in view.representatives[:10]:
        members = view.members_of(representative)
        print(f"  node {representative:>3} answers for {len(members)} node(s)")
    if view.size > 10:
        print(f"  ... and {view.size - 10} more representatives")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    try:
        query = parse_query(args.sql)
    except ValueError as error:
        print(f"syntax error: {error}", file=sys.stderr)
        return 2
    runtime = _build_network(
        args.nodes, args.classes, args.threshold, args.range, args.seed
    )
    runtime.run_election()
    if args.plan:
        planner = QueryPlanner(runtime)
        plan, result = planner.execute(query, sink=args.sink)
        print(f"plan: {plan.reason}")
        print(f"ran : {format_query(result.query)}")
    else:
        result = QueryExecutor(runtime).execute(query, sink=args.sink)
    print(f"participants: {result.n_participants} "
          f"({len(result.responders)} responders, {len(result.routers)} routers)")
    if result.query.is_aggregate:
        print(f"answer: {result.aggregate_value}")
    else:
        estimated = sum(1 for __, (___, est) in result.reports.items() if est)
        print(f"answer: {len(result.reports)} measurements "
              f"({estimated} estimated by representatives)")
        for origin in sorted(result.reports)[:10]:
            value, est = result.reports[origin]
            marker = "~" if est else " "
            print(f"  node {origin:>3}: {marker}{value:.3f}")
        if len(result.reports) > 10:
            print(f"  ... and {len(result.reports) - 10} more")
    print(f"coverage: {100 * result.coverage():.0f}%")
    return 0


def _experiment_runners(
    repetitions: int,
) -> dict[str, Callable[[], str]]:
    return {
        "fig6": lambda: format_series(
            figure6_vary_classes(repetitions=repetitions), "Figure 6"
        ),
        "fig7": lambda: format_series(
            figure7_vary_message_loss(repetitions=repetitions), "Figure 7"
        ),
        "fig8": lambda: format_multi_series(
            figure8_vary_cache_size(repetitions=repetitions), "cache bytes", "Figure 8"
        ),
        "fig9": lambda: format_multi_series(
            {
                f"K={k}": series
                for k, series in figure9_vary_transmission_range(
                    repetitions=repetitions
                ).items()
            },
            "range",
            "Figure 9",
        ),
        "table3": lambda: format_table3(table3_savings()),
        "fig10": lambda: _format_lifetime(figure10_lifetime()),
        "fig11": lambda: format_series(
            figure11_vary_threshold(repetitions=repetitions), "Figure 11"
        ),
        "fig12": lambda: format_series(
            figure12_estimation_error(repetitions=repetitions), "Figure 12"
        ),
        "fig13": lambda: format_multi_series(
            figure13_spurious_representatives(repetitions=repetitions),
            "P_loss",
            "Figure 13",
        ),
        "fig14": lambda: _format_maintenance(
            figure14_snapshot_size_over_time(), "snapshot size"
        ),
        "fig15": lambda: _format_maintenance(
            figure15_messages_per_update(), "messages/node"
        ),
        "failure": lambda: format_multi_series(
            coverage_under_failure(repetitions=repetitions),
            "death rate / period",
            "Coverage under failure",
        ),
    }


def _format_lifetime(result) -> str:
    n = len(result.regular.samples)
    bucket = max(1, n // 10)
    rows = [
        (
            f"{i}-{i + bucket}",
            f"{sum(result.regular.samples[i:i + bucket]) / bucket:.2f}",
            f"{sum(result.snapshot.samples[i:i + bucket]) / bucket:.2f}",
        )
        for i in range(0, n, bucket)
    ]
    rows.append(("AUC", f"{result.regular.area:.0f}", f"{result.snapshot.area:.0f}"))
    return format_rows(("queries", "regular", "snapshot"), rows, title="Figure 10")


def _format_maintenance(runs, metric: str) -> str:
    rows = [
        (f"range {reach:g}", f"{run.mean_size:.1f}", f"{run.mean_messages:.2f}")
        for reach, run in sorted(runs.items())
    ]
    return format_rows(
        ("configuration", "mean snapshot size", "mean msgs/node"),
        rows,
        title=f"Figures 14/15 ({metric})",
    )


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.harness import NetworkSetup, run_report_experiment

    _check_network(args.nodes, args.classes, args.range)
    _require(args.rounds >= 1, f"--rounds must be at least 1, got {args.rounds}")
    _require(args.period > 0, f"--period must be positive, got {args.period:g}")
    setup = NetworkSetup(
        n_nodes=args.nodes,
        threshold=args.threshold,
        transmission_range=args.range,
        heartbeat_period=args.period,
        cache_policy=args.cache_policy,
    )
    run = run_report_experiment(
        setup,
        seed=args.seed,
        rounds=args.rounds,
        n_classes=args.classes,
        profile=args.profile,
    )
    print(run.report.format_summary())
    if args.profile:
        print(run.runtime.simulator.profiler.format_table())
    if args.jsonl:
        with open(args.jsonl, "w", encoding="utf-8") as handle:
            handle.write(run.report.to_jsonl())
        print(f"wrote {args.jsonl}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(run.report.to_csv())
        print(f"wrote {args.csv}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import time

    from repro.query.ast import Aggregate, Query
    from repro.query.spatial import random_square
    from repro.serving import QueryFrontEnd

    _require(args.queries >= 1, f"--queries must be at least 1, got {args.queries}")
    _require(args.clients >= 1, f"--clients must be at least 1, got {args.clients}")
    _require(
        args.max_queue >= 1, f"--max-queue must be at least 1, got {args.max_queue}"
    )
    runtime = _build_network(
        args.nodes, args.classes, args.threshold, args.range, args.seed
    )
    view = runtime.run_election()
    workload_rng = np.random.default_rng(args.seed + 1)
    templates = [
        Query(
            region=random_square(0.25, workload_rng),
            aggregate=Aggregate.AVG,
            use_snapshot=True,
        )
        for _ in range(max(1, args.templates))
    ]
    requests = [templates[i % len(templates)] for i in range(args.queries)]
    frontend = QueryFrontEnd(
        runtime,
        max_queue=args.max_queue,
        max_cost=args.max_cost,
        cache=not args.no_cache,
        default_sink=args.sink,
    )
    with frontend:
        start = time.perf_counter()
        results = frontend.run_workload(requests, clients=args.clients)
        elapsed = time.perf_counter() - start
    stats = frontend.stats()
    hits = sum(1 for served in results if served.cached)
    print(f"network: {view.n_nodes} nodes, {view.size} representatives, "
          f"epoch {runtime.current_epoch}")
    print(f"served : {len(results)} queries from {args.clients} clients "
          f"over {len(templates)} templates "
          f"(cache {'off' if args.no_cache else 'on'})")
    print(f"qps    : {len(results) / elapsed:.0f} "
          f"({elapsed:.3f}s wall)")
    print(f"latency: p50 {1e3 * stats['p50_seconds']:.2f} ms, "
          f"p99 {1e3 * stats['p99_seconds']:.2f} ms")
    print(f"cache  : {hits}/{len(results)} served cached "
          f"({stats['cache_invalidations']} invalidations, "
          f"{stats['trees_built']} trees built)")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    import math
    import time

    _check_network(args.nodes, args.classes, args.range)
    _require(args.duration > 0, f"--duration must be positive, got {args.duration:g}")
    rng = np.random.default_rng(args.seed)
    dataset, __ = generate_random_walk(
        RandomWalkConfig(n_nodes=args.nodes, n_classes=args.classes), rng
    )
    # Default the radius to the paper's degree-12 connectivity regime so
    # ``-n 20000`` does not build a near-complete radio graph.
    radius = (
        args.range
        if args.range is not None
        else math.sqrt(12.0 / (math.pi * args.nodes))
    )
    topology = uniform_random_topology(
        args.nodes, radius, np.random.default_rng(args.seed + 1)
    )
    runtime = SnapshotRuntime(
        topology,
        dataset,
        ProtocolConfig(threshold=args.threshold),
        seed=args.seed,
        metrics_enabled=False,
    )
    print(f"network: {args.nodes} nodes, {args.classes} hidden classes, "
          f"T={args.threshold}, range={radius:.3f}")
    start = time.perf_counter()
    runtime.train(duration=args.duration)
    runtime.run_election()
    elapsed = time.perf_counter() - start
    print(f"ran    : {args.duration:g} measurement ticks + election "
          f"to t={runtime.now:g} in {elapsed:.2f}s wall")
    print(f"traffic: {runtime.stats.total_sent()} messages sent")
    if args.digest:
        print(f"digest : {runtime.state_digest().whole}")
    return 0


def cmd_checkpoint(args: argparse.Namespace) -> int:
    _require(args.rounds >= 0, f"--rounds must not be negative, got {args.rounds}")
    runtime = _build_network(
        args.nodes, args.classes, args.threshold, args.range, args.seed
    )
    view = runtime.run_election()
    runtime.start_maintenance()
    period = runtime.config.heartbeat_period
    runtime.advance_to(runtime.now + args.rounds * period)
    digest = runtime.checkpoint(
        args.path,
        meta={"seed": args.seed, "nodes": args.nodes, "rounds_run": args.rounds},
    )
    print(f"froze t={runtime.now:g} after {args.rounds} maintenance round(s)")
    print(f"snapshot: {view.size} representatives, "
          f"{runtime.simulator.events_processed} events processed, "
          f"{runtime.stats.total_sent()} messages sent")
    print(f"digest: {digest.whole}")
    print(f"wrote {args.path}")
    return 0


def cmd_resume(args: argparse.Namespace) -> int:
    from repro.persist import CheckpointError, read_header

    _require(args.rounds >= 0, f"--rounds must not be negative, got {args.rounds}")
    try:
        header = read_header(args.path)
        runtime = SnapshotRuntime.restore(args.path, verify=not args.no_verify)
    except (OSError, CheckpointError, TypeError) as error:
        print(f"cannot resume: {error}", file=sys.stderr)
        return 2
    meta = header.get("meta") or {}
    print(f"resumed t={runtime.now:g} "
          f"(format v{header['format']}, meta {meta if meta else '{}'})")
    period = runtime.config.heartbeat_period
    before = runtime.simulator.events_processed
    runtime.advance_to(runtime.now + args.rounds * period)
    view = runtime.snapshot()
    print(f"ran {args.rounds} more round(s) to t={runtime.now:g}: "
          f"{runtime.simulator.events_processed - before} events fired, "
          f"{runtime.stats.total_sent()} messages sent in total")
    print(f"snapshot: {view.size} representatives "
          f"({len(runtime.alive_ids())} nodes alive)")
    print(f"digest: {runtime.state_digest().whole}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    runners = _experiment_runners(args.repetitions)
    if args.id not in runners:
        print(
            f"unknown experiment {args.id!r}; choose from {sorted(runners)}",
            file=sys.stderr,
        )
        return 2
    print(runners[args.id]())
    return 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def _add_network_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=100, help="network size")
    parser.add_argument("--classes", type=int, default=4, help="correlation classes")
    parser.add_argument("--threshold", type=float, default=1.0, help="error threshold T")
    parser.add_argument("--range", type=float, default=0.7, help="transmission range")
    parser.add_argument("--seed", type=int, default=2005, help="random seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Snapshot Queries (ICDE 2005) reproduction CLI",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="deploy, train, elect, report")
    _add_network_options(demo)
    demo.set_defaults(handler=cmd_demo)

    query = commands.add_parser("query", help="run one query against a fresh network")
    query.add_argument("sql", help="query text, e.g. 'SELECT AVG(value) FROM sensors'")
    query.add_argument("--sink", type=int, default=None, help="collecting node id")
    query.add_argument(
        "--plan", action="store_true",
        help="let the energy-based planner choose the execution mode",
    )
    _add_network_options(query)
    query.set_defaults(handler=cmd_query)

    experiment = commands.add_parser(
        "experiment", help="regenerate one of the paper's tables/figures"
    )
    experiment.add_argument(
        "id",
        help="fig6..fig15, table3 or failure (see DESIGN.md for the index)",
    )
    experiment.add_argument(
        "--repetitions", type=int, default=2, help="averaging repetitions"
    )
    experiment.set_defaults(handler=cmd_experiment)

    report = commands.add_parser(
        "report", help="run an observed maintenance workload; print its RunReport"
    )
    _add_network_options(report)
    report.add_argument(
        "--rounds", type=int, default=5, help="maintenance rounds to run"
    )
    report.add_argument(
        "--period", type=float, default=100.0, help="maintenance period (time units)"
    )
    report.add_argument(
        "--cache-policy", default="model-aware",
        choices=("model-aware", "round-robin"), help="per-node cache policy",
    )
    report.add_argument(
        "--profile", action="store_true",
        help="also profile wall-clock time per event kind",
    )
    report.add_argument("--jsonl", default=None, help="write the report as JSONL here")
    report.add_argument("--csv", default=None, help="write the report rows as CSV here")
    report.set_defaults(handler=cmd_report)

    serve = commands.add_parser(
        "serve", help="serve a concurrent query workload; print QPS/latency"
    )
    _add_network_options(serve)
    serve.add_argument(
        "--queries", type=int, default=500, help="total queries to serve"
    )
    serve.add_argument(
        "--clients", type=int, default=8, help="concurrent client threads"
    )
    serve.add_argument(
        "--templates", type=int, default=16,
        help="distinct query shapes cycled through the workload",
    )
    serve.add_argument(
        "--max-queue", type=int, default=256, help="admission queue bound"
    )
    serve.add_argument(
        "--max-cost", type=float, default=None,
        help="reject queries whose estimated transmissions exceed this",
    )
    serve.add_argument(
        "--sink", type=int, default=None,
        help="collecting node id (smallest alive id by default)",
    )
    serve.add_argument(
        "--no-cache", action="store_true",
        help="disable the epoch-keyed result cache",
    )
    serve.set_defaults(handler=cmd_serve)

    run = commands.add_parser(
        "run",
        help="train and elect a large deployment; print its traffic and time",
    )
    run.add_argument(
        "-n", "--nodes", type=int, default=2000, help="network size"
    )
    run.add_argument("--classes", type=int, default=4, help="correlation classes")
    run.add_argument(
        "--threshold", type=float, default=1.0, help="error threshold T"
    )
    run.add_argument(
        "--range", type=float, default=None,
        help="transmission range (default: the degree-12 radius for -n)",
    )
    run.add_argument("--seed", type=int, default=2005, help="random seed")
    run.add_argument(
        "--duration", type=float, default=10.0,
        help="measurement ticks to run before the election",
    )
    run.add_argument(
        "--digest", action="store_true",
        help="also print the state digest (slow at large -n)",
    )
    run.set_defaults(handler=cmd_run)

    checkpoint = commands.add_parser(
        "checkpoint",
        help="run a seeded maintenance workload and freeze it to a file",
    )
    checkpoint.add_argument("path", help="checkpoint file to write")
    _add_network_options(checkpoint)
    checkpoint.add_argument(
        "--rounds", type=int, default=2,
        help="maintenance rounds to run before freezing",
    )
    checkpoint.set_defaults(handler=cmd_checkpoint)

    resume = commands.add_parser(
        "resume", help="restore a frozen run and continue its maintenance"
    )
    resume.add_argument("path", help="checkpoint file written by 'repro checkpoint'")
    resume.add_argument(
        "--rounds", type=int, default=2,
        help="additional maintenance rounds to run after restoring",
    )
    resume.add_argument(
        "--no-verify", action="store_true",
        help="skip the restore-time digest integrity check",
    )
    resume.set_defaults(handler=cmd_resume)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
