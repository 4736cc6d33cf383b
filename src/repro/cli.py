"""Command-line interface.

Thirteen subcommands mirroring the paper's workflow::

    python -m repro measure    # Section 3: synthesize + analyse a crawl
    python -m repro evaluate   # Section 4: one method on one infrastructure
    python -m repro sweep      # a grid of deployments through the runner
    python -m repro scenario   # list/describe/run/compare workload scenarios
    python -m repro advise     # guidance: recommend a method from rates
    python -m repro report     # regenerate the EXPERIMENTS.md report
    python -m repro trace      # run one traced deployment, dump JSONL events
    python -m repro watch      # tail a running sweep's live progress
    python -m repro analyze    # anomaly screens over BENCH_*.json + HTML
    python -m repro lint       # determinism/purity static analysis (REPxxx)
    python -m repro sanitize   # schedule sanitizer: tie-order perturbation
    python -m repro metrics    # harness-telemetry rollup (JSON / Prometheus)
    python -m repro profile    # top-N span table from a run's telemetry

``sweep`` and ``report`` accept ``--workers`` to fan deployments over a
process pool, and ``--registry`` to memoize completed runs on disk.
Runs with a registry also append a harness-telemetry rollup to
``<registry>.telemetry.json``, which ``metrics`` and ``profile`` read
back (see docs/observability.md).  ``sweep --trace-dir`` streams a
sampled trace of every executed deployment.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, List, Optional

__all__ = ["main", "build_parser"]


def _workers_argument(value: str) -> str:
    if value.strip().lower() != "auto":
        try:
            int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "expected an integer or 'auto', got %r" % value
            )
    return value


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        default=1,
        type=_workers_argument,
        help='parallel worker count; "auto" or 0 = one per CPU '
        "(default: 1 = serial)",
    )
    parser.add_argument(
        "--registry",
        default=None,
        metavar="PATH",
        help="run-registry JSON file memoizing completed deployments "
        "(default: no memoization)",
    )


def _add_telemetry_source_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "artifact", nargs="?", default=None, metavar="TELEMETRY_JSON",
        help="telemetry artifact path (default: derived from --registry "
        "as <registry>.telemetry.json)",
    )
    parser.add_argument(
        "--registry", default=None, metavar="PATH",
        help="run-registry path whose telemetry artifact to read",
    )
    parser.add_argument(
        "--run", type=int, default=-1, metavar="N",
        help="which recorded run entry to show; negative counts from the "
        "end (default: -1 = latest)",
    )


def _resolve_telemetry_artifact(args: argparse.Namespace) -> str:
    from .obs.telemetry import default_artifact_path

    if args.artifact:
        return args.artifact
    if not args.registry:
        raise SystemExit("no telemetry source: pass TELEMETRY_JSON or --registry")
    return default_artifact_path(args.registry)


def _load_run_entry(path: str, run: int):
    """(artifact, entry) for entry index *run*; exits with code 2 on error."""
    from .obs.telemetry import load_artifact

    try:
        artifact = load_artifact(path)
    except ValueError as error:
        raise SystemExit(str(error))
    runs = artifact["runs"]
    if not runs:
        print("telemetry artifact %s has no recorded runs" % path, file=sys.stderr)
        raise SystemExit(2)
    try:
        entry = runs[run]
    except IndexError:
        print(
            "run index %d out of range (%d run(s) recorded)" % (run, len(runs)),
            file=sys.stderr,
        )
        raise SystemExit(2)
    return artifact, entry


def build_parser() -> argparse.ArgumentParser:
    from .consistency.registry import infrastructure_choices, method_choices
    from .obs.tracer import EVENT_KINDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Measuring and Evaluating Live Content "
        "Consistency in a Large-Scale CDN' (ICDCS'14 / TPDS'15)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    measure = sub.add_parser(
        "measure", help="synthesize a CDN crawl and run the Section 3 analyses"
    )
    measure.add_argument("--servers", type=int, default=150)
    measure.add_argument("--days", type=int, default=5)
    measure.add_argument("--seed", type=int, default=0)
    measure.add_argument("--save", metavar="PATH", help="save the trace as JSON")

    evaluate = sub.add_parser(
        "evaluate", help="run one update method on one infrastructure (Section 4)"
    )
    evaluate.add_argument("--method", default="ttl", choices=method_choices())
    evaluate.add_argument(
        "--infrastructure", default="unicast", choices=infrastructure_choices()
    )
    evaluate.add_argument("--servers", type=int, default=60)
    evaluate.add_argument("--users-per-server", type=int, default=3)
    evaluate.add_argument("--updates", type=int, default=100)
    evaluate.add_argument("--duration", type=float, default=2920.0)
    evaluate.add_argument("--server-ttl", type=float, default=10.0)
    evaluate.add_argument("--seed", type=int, default=0)

    sweep = sub.add_parser(
        "sweep",
        help="run a (method x infrastructure x TTL x seed) grid through "
        "the parallel runner",
    )
    sweep.add_argument(
        "--methods", nargs="+", default=["push", "invalidation", "ttl"],
        choices=method_choices(), metavar="METHOD",
    )
    sweep.add_argument(
        "--infrastructures", nargs="+", default=["unicast"],
        choices=infrastructure_choices(), metavar="INFRA",
    )
    sweep.add_argument(
        "--systems", nargs="+", default=None, metavar="SYSTEM",
        help="sweep full Section 5 systems (push/invalidation/ttl/self/"
        "hybrid/hat) instead of method x infrastructure cells",
    )
    sweep.add_argument("--seeds", nargs="+", type=int, default=[0])
    sweep.add_argument(
        "--server-ttls", nargs="+", type=float, default=None, metavar="SECONDS",
        help="sweep the content-server TTL over these values",
    )
    sweep.add_argument(
        "--scenarios", nargs="+", default=None, metavar="SCENARIO",
        help="also sweep these workload scenarios (names or aliases from "
        "'repro scenario list'); catalog scenarios expand into one run "
        "per object cell",
    )
    sweep.add_argument(
        "--scale", choices=("smoke", "ci", "paper", "planet"), default="smoke",
        help="base config scale; 'planet' uses aggregate user metrics "
        "and Section-5 cadence (see docs/scalability.md)",
    )
    sweep.add_argument(
        "--servers", type=int, default=None, metavar="N",
        help="override the scale's server count",
    )
    sweep.add_argument(
        "--users-per-server", type=int, default=None, metavar="N",
        help="override the scale's users-per-server count",
    )
    sweep.add_argument(
        "--user-shards", type=int, default=1, metavar="K",
        help="split each cell's user population over K shard runs "
        "(requires --user-metrics aggregate; shard metrics merge "
        "exactly back into one row)",
    )
    sweep.add_argument(
        "--user-metrics", choices=("per-user", "aggregate"), default=None,
        help="user-metrics layout (default: the scale's; 'aggregate' "
        "keys user metrics by home server and is required for "
        "--user-shards > 1)",
    )
    _add_runner_arguments(sweep)
    sweep.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="stream a deterministic sampled trace of every executed "
        "deployment to rotating <label>-<hash>.trace.jsonl sinks in DIR",
    )
    sweep.add_argument(
        "--sample-rate", type=float, default=None, metavar="RATE",
        help="per-kind keep rate (0..1) under --trace-dir (default: 1.0)",
    )
    sweep.add_argument(
        "--budget", type=int, default=None, metavar="N",
        help="per-kind reservoir budget under --trace-dir (default: 256)",
    )

    scenario = sub.add_parser(
        "scenario",
        help="list, describe, run or compare workload scenarios "
        "(workload + catalog + perturbations bundles)",
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    scn_list = scenario_sub.add_parser(
        "list", help="list the registered scenarios"
    )
    scn_list.add_argument("--json", action="store_true", help="machine-readable")
    scn_describe = scenario_sub.add_parser(
        "describe", help="show one scenario's cells and perturbations"
    )
    scn_describe.add_argument("name", metavar="SCENARIO")
    scn_describe.add_argument(
        "--scale", choices=("smoke", "small", "ci", "paper"), default="smoke",
        help="config scale the cells are expanded for (default: smoke; "
        "'small' is an alias of smoke)",
    )
    scn_describe.add_argument("--json", action="store_true", help="machine-readable")
    scn_run = scenario_sub.add_parser(
        "run", help="run one scenario end to end and print its rollup"
    )
    scn_run.add_argument("name", metavar="SCENARIO")
    scn_run.add_argument("--method", default="ttl", choices=method_choices())
    scn_run.add_argument(
        "--infrastructure", default="unicast", choices=infrastructure_choices()
    )
    scn_run.add_argument(
        "--system", default=None,
        choices=("push", "invalidation", "ttl", "self", "hybrid", "hat"),
        help="run a full Section 5 system under the scenario instead of "
        "a method x infrastructure cell",
    )
    scn_run.add_argument(
        "--scale", choices=("smoke", "small", "ci", "paper"), default="smoke",
        help="config scale (default: smoke; 'small' is an alias of smoke)",
    )
    scn_run.add_argument("--seed", type=int, default=0)
    scn_run.add_argument("--json", action="store_true", help="machine-readable")
    _add_runner_arguments(scn_run)
    scn_compare = scenario_sub.add_parser(
        "compare",
        help="run several scenarios under one method and rank them "
        "(Section-5-style cross-scenario figure)",
    )
    scn_compare.add_argument(
        "names", nargs="*", metavar="SCENARIO",
        help="scenarios to compare (default: every registered scenario)",
    )
    scn_compare.add_argument("--method", default="ttl", choices=method_choices())
    scn_compare.add_argument(
        "--infrastructure", default="unicast", choices=infrastructure_choices()
    )
    scn_compare.add_argument(
        "--scale", choices=("smoke", "small", "ci", "paper"), default="smoke",
        help="config scale (default: smoke; 'small' is an alias of smoke)",
    )
    scn_compare.add_argument("--seed", type=int, default=0)
    scn_compare.add_argument("--json", action="store_true", help="machine-readable")
    _add_runner_arguments(scn_compare)

    advise = sub.add_parser(
        "advise", help="recommend an update method from workload rates"
    )
    advise.add_argument("--update-rate", type=float, required=True,
                        help="updates per second at the origin")
    advise.add_argument("--visit-rate", type=float, required=True,
                        help="visits per second per edge server")
    advise.add_argument("--servers", type=int, required=True)
    advise.add_argument("--tolerance", type=float, required=True,
                        help="staleness tolerance in seconds")
    advise.add_argument("--silence-fraction", type=float, default=0.0)
    advise.add_argument("--update-size-kb", type=float, default=10.0)

    trace = sub.add_parser(
        "trace",
        help="run one traced deployment and dump its structured events "
        "as JSON Lines",
    )
    trace.add_argument("--method", default="ttl", choices=method_choices())
    trace.add_argument(
        "--infrastructure", default="unicast", choices=infrastructure_choices()
    )
    trace.add_argument(
        "--system", default=None,
        choices=("push", "invalidation", "ttl", "self", "hybrid", "hat"),
        help="trace a full Section 5 system instead of a "
        "method x infrastructure cell",
    )
    trace.add_argument("--servers", type=int, default=20)
    trace.add_argument("--users-per-server", type=int, default=2)
    trace.add_argument("--updates", type=int, default=30)
    trace.add_argument("--duration", type=float, default=876.0)
    trace.add_argument("--server-ttl", type=float, default=10.0)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--node", default=None, metavar="NODE_ID",
        help="only events attributed to this node",
    )
    trace.add_argument(
        "--kind", nargs="+", default=None, choices=sorted(EVENT_KINDS),
        metavar="KIND", help="only these event kinds (see repro.obs.tracer)",
    )
    trace.add_argument(
        "--since", type=float, default=None, metavar="SECONDS",
        help="only events at or after this simulated time",
    )
    trace.add_argument(
        "--until", type=float, default=None, metavar="SECONDS",
        help="only events strictly before this simulated time",
    )
    trace.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="write at most N events",
    )
    trace.add_argument(
        "--out", default=None, metavar="PATH",
        help="write JSONL here instead of stdout",
    )
    trace.add_argument(
        "--attribution", action="store_true",
        help="also print the per-layer cause-attribution table (stderr)",
    )

    trace.add_argument(
        "--sample-rate", type=float, default=None, metavar="RATE",
        help="deterministic sampled tracing at this per-kind keep rate "
        "(0..1) instead of a full dump; exact kind totals are always kept",
    )
    trace.add_argument(
        "--sample-seed", type=int, default=None, metavar="SEED",
        help="seed of the sampling decision stream (default: --seed)",
    )
    trace.add_argument(
        "--budget", type=int, default=256, metavar="N",
        help="per-kind reservoir budget under --sample-rate (default: 256)",
    )

    report = sub.add_parser("report", help="regenerate the EXPERIMENTS.md report")
    report.add_argument(
        "--scale", choices=("small", "medium"), default="medium",
        help="report scale (default: medium, the committed EXPERIMENTS.md's)",
    )
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--out", default="EXPERIMENTS.md")
    _add_runner_arguments(report)

    watch = sub.add_parser(
        "watch",
        help="tail a running sweep's live progress "
        "(<registry>.progress.json + per-shard worker heartbeats)",
    )
    watch.add_argument(
        "progress", nargs="?", default=None, metavar="PROGRESS_JSON",
        help="progress file path (default: derived from --registry as "
        "<registry>.progress.json)",
    )
    watch.add_argument(
        "--registry", default=None, metavar="PATH",
        help="run-registry path whose progress file to tail",
    )
    watch.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh period (default: 2s)",
    )
    watch.add_argument(
        "--once", action="store_true",
        help="render one snapshot and exit (no tailing)",
    )

    analyze = sub.add_parser(
        "analyze",
        help="screen BENCH_*.json benchmark trajectories for "
        "regressions (trailing-median outliers and change points) and "
        "render them as text or a self-contained HTML report",
    )
    analyze.add_argument(
        "trajectories", nargs="*", metavar="BENCH_JSON",
        help="benchmark trajectory files (default: BENCH_*.json in the "
        "working directory)",
    )
    analyze.add_argument(
        "--html", default=None, metavar="PATH",
        help="write the self-contained HTML report here",
    )
    analyze.add_argument(
        "--json", dest="json_out", default=None, metavar="PATH",
        help="write the raw analysis dict as JSON here",
    )
    analyze.add_argument(
        "--telemetry", default=None, metavar="TELEMETRY_JSON",
        help="also screen a telemetry artifact's wall/RSS trajectories",
    )
    analyze.add_argument(
        "--window", type=int, default=5,
        help="trailing-median window (default: 5)",
    )
    analyze.add_argument(
        "--threshold", type=float, default=1.5,
        help="outlier ratio threshold against the trailing median "
        "(default: 1.5)",
    )

    # `repro lint` and `repro sanitize` own their argument surfaces
    # (lint is also runnable as `python -m repro.lint`): main() forwards
    # everything after the subcommand name before this parser ever runs,
    # so the entries here only exist for `repro --help`.
    sub.add_parser(
        "lint",
        help="determinism & purity static analysis (rules REP001-REP011; "
        "see docs/static-analysis.md)",
        add_help=False,
    )
    sub.add_parser(
        "sanitize",
        help="schedule sanitizer: perturb same-instant event ties and "
        "assert metrics/traces stay bit-identical "
        "(see docs/static-analysis.md)",
        add_help=False,
    )

    metrics = sub.add_parser(
        "metrics",
        help="print a run's harness-telemetry rollup (JSON or Prometheus "
        "text exposition)",
    )
    _add_telemetry_source_arguments(metrics)
    metrics.add_argument(
        "--format", choices=("json", "prom"), default="json",
        help="output format (default: json)",
    )
    metrics.add_argument(
        "--merged", action="store_true",
        help="merge every recorded run's rollup instead of showing one run",
    )
    metrics.add_argument(
        "--check", action="store_true",
        help="smoke mode: exit 0 iff the artifact holds at least one "
        "run with a non-empty rollup (prints a one-line summary)",
    )

    profile = sub.add_parser(
        "profile",
        help="top-N telemetry span table (self/cumulative wall time) for "
        "a run",
    )
    _add_telemetry_source_arguments(profile)
    profile.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="show only the top N spans (default: all)",
    )
    profile.add_argument(
        "--sort", choices=("self", "cum", "count"), default="cum",
        help="ranking column (default: cum)",
    )
    profile.add_argument(
        "--compare", default=None, metavar="RUN",
        help="delta view against another run: an entry index into the "
        "same artifact, or a path to another telemetry artifact "
        "(its latest run)",
    )

    return parser


def _cmd_measure(args: argparse.Namespace) -> int:
    import numpy as np

    from .metrics import Cdf
    from .trace import (
        SynthesisConfig,
        TraceSynthesizer,
        all_inconsistencies,
        infer_ttl,
        provider_inconsistencies,
        theory_rmse,
        tree_existence_analysis,
    )

    config = SynthesisConfig(n_servers=args.servers, n_days=args.days)
    trace = TraceSynthesizer(config, master_seed=args.seed).synthesize()
    if args.save:
        trace.save(args.save)
    lengths = all_inconsistencies(trace)
    cdf = Cdf(lengths)
    inference = infer_ttl(lengths)
    provider = provider_inconsistencies(trace)
    evidence = tree_existence_analysis(trace)
    print("trace: %d servers x %d days, %d polls" % (
        trace.n_servers, trace.n_days, trace.total_polls()))
    print("inconsistency: mean %.1f s, %.1f%% < 10 s, %.1f%% > 50 s" % (
        lengths.mean(), 100 * cdf.at(10.0), 100 * cdf.fraction_above(50.0)))
    print("inferred TTL: %.0f s (rmse@60=%.3f, rmse@80=%.3f)" % (
        inference.ttl_s, theory_rmse(lengths, 60.0), theory_rmse(lengths, 80.0)))
    print("provider inconsistency: mean %.2f s (%.0f%% < 10 s)" % (
        provider.mean(), 100 * float(np.mean(provider < 10.0))))
    print("infrastructure: %s" % evidence.summary())
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .experiments import TestbedConfig, build_deployment

    config = TestbedConfig(
        n_servers=args.servers,
        users_per_server=args.users_per_server,
        n_updates=args.updates,
        game_duration_s=args.duration,
        server_ttl_s=args.server_ttl,
        seed=args.seed,
    )
    metrics = build_deployment(config, args.method, args.infrastructure).run()
    print("deployment: %s" % metrics.name)
    print("mean server inconsistency: %.2f s" % metrics.mean_server_lag)
    print("mean end-user inconsistency: %.2f s" % metrics.mean_user_lag)
    print("traffic cost: %.3e km*KB" % metrics.cost_km_kb)
    print("messages: %d update bodies, %d light" % (
        metrics.update_messages, metrics.light_messages))
    print("provider sent: %d update/response messages" % (
        metrics.provider_response_messages))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments.config import ci_scale, paper_scale, planet_scale, smoke_scale
    from .runner import Runner, RunSpec, TraceSettings

    base = {
        "smoke": smoke_scale,
        "ci": ci_scale,
        "paper": paper_scale,
        "planet": planet_scale,
    }[args.scale]()
    size_overrides = {}
    if args.servers is not None:
        size_overrides["n_servers"] = args.servers
    if args.users_per_server is not None:
        size_overrides["users_per_server"] = args.users_per_server
    if args.user_metrics is not None:
        size_overrides["user_metrics"] = args.user_metrics
    if size_overrides:
        base = base.with_overrides(**size_overrides)
    ttls = args.server_ttls if args.server_ttls else [base.server_ttl_s]

    # Without --scenarios, every spec runs the default scenario.
    scenario_cells = [{}]
    if getattr(args, "scenarios", None):
        from .scenarios import resolve_scenario

        scenario_cells = []
        for name in args.scenarios:
            resolved = resolve_scenario(name)
            for index in range(resolved.n_cells(base)):
                scenario_cells.append(
                    {"scenario": resolved.name, "scenario_cell": index}
                )

    specs = []
    if args.systems:
        for system in args.systems:
            for ttl in ttls:
                for seed in args.seeds:
                    for extra in scenario_cells:
                        specs.append(
                            RunSpec(
                                config=base.with_overrides(
                                    server_ttl_s=ttl, seed=seed
                                ),
                                method=system,
                                kind="system",
                                **extra,
                            )
                        )
    else:
        for method in args.methods:
            for infrastructure in args.infrastructures:
                for ttl in ttls:
                    for seed in args.seeds:
                        for extra in scenario_cells:
                            specs.append(
                                RunSpec(
                                    config=base.with_overrides(
                                        server_ttl_s=ttl, seed=seed
                                    ),
                                    method=method,
                                    infrastructure=infrastructure,
                                    **extra,
                                )
                            )

    trace = None
    if args.trace_dir is not None:
        trace = TraceSettings(
            args.trace_dir,
            rate=1.0 if args.sample_rate is None else args.sample_rate,
            budget=256 if args.budget is None else args.budget,
        )
    runner = Runner(workers=args.workers, registry=args.registry, trace=trace)
    if args.user_shards > 1:
        from .experiments.sharding import (
            merge_shard_metrics,
            shard_specs,
            shard_user_counts,
        )

        weights = shard_user_counts(base.users_per_server, args.user_shards)
        expanded = [shard_specs(spec, args.user_shards) for spec in specs]
        outcome = runner.run(
            [shard for cell in expanded for shard in cell]
        )
        rows = []
        cursor = 0
        for spec, cell in zip(specs, expanded):
            merged = merge_shard_metrics(
                outcome.metrics[cursor : cursor + len(cell)], weights
            )
            cursor += len(cell)
            rows.append((spec, merged))
    else:
        outcome = runner.run(specs)
        rows = outcome.pairs()

    header = ("spec", "ttl_s", "server_lag_s", "user_lag_s", "cost_km_kb")
    print("%-48s %8s %14s %12s %14s" % header)
    for spec, metrics in rows:
        print(
            "%-48s %8g %14.3f %12.3f %14.4g"
            % (
                spec.label,
                spec.config.server_ttl_s,
                metrics.mean_server_lag,
                metrics.mean_user_lag,
                metrics.cost_km_kb,
            )
        )
    print(outcome.stats.summary())
    return 0


def _check_trace_flags(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """``sweep --sample-rate/--budget`` only tune ``--trace-dir``; reject
    them (exit 2) before any deployment runs."""
    if args.trace_dir is None:
        for flag, value in (
            ("--sample-rate", args.sample_rate), ("--budget", args.budget),
        ):
            if value is not None:
                parser.error("sweep: %s requires --trace-dir" % flag)
    if args.sample_rate is not None and not 0.0 <= args.sample_rate <= 1.0:
        parser.error("sweep: --sample-rate must be in [0, 1]")
    if args.budget is not None and args.budget < 0:
        parser.error("sweep: --budget must be >= 0")


def _scenario_scale_config(scale: str, seed: int):
    """Config for a scenario CLI scale name ('small' aliases smoke)."""
    from .experiments.config import ci_scale, paper_scale, smoke_scale

    factory = {
        "smoke": smoke_scale,
        "small": smoke_scale,
        "ci": ci_scale,
        "paper": paper_scale,
    }[scale]
    return factory(seed=seed)


def _cmd_scenario(args: argparse.Namespace) -> int:
    import json

    from .scenarios import resolve_scenario, scenario_names
    from .scenarios.registry import SCENARIO_REGISTRY

    if args.scenario_command == "list":
        rows = []
        for name in scenario_names():
            entry = SCENARIO_REGISTRY[name]
            rows.append(
                {
                    "name": name,
                    "aliases": list(entry.aliases),
                    "tags": list(entry.tags),
                    "summary": entry.summary,
                }
            )
        if args.json:
            json.dump(rows, sys.stdout, indent=2)
            sys.stdout.write("\n")
        else:
            print("%-16s %-22s %s" % ("scenario", "aliases", "summary"))
            for row in rows:
                print(
                    "%-16s %-22s %s"
                    % (row["name"], ", ".join(row["aliases"]) or "-", row["summary"])
                )
        return 0

    if args.scenario_command == "describe":
        try:
            resolved = resolve_scenario(args.name)
        except ValueError as error:
            raise SystemExit(str(error))
        config = _scenario_scale_config(args.scale, seed=0)
        description = resolved.describe(config)
        if args.json:
            json.dump(description, sys.stdout, indent=2)
            sys.stdout.write("\n")
        else:
            print("%s: %s" % (description["name"], description["summary"]))
            print("tags: %s" % (", ".join(description["tags"]) or "-"))
            print("cells (%s scale): %d" % (args.scale, description["n_cells"]))
            for cell in description["cells"]:
                overrides = ", ".join(
                    "%s=%s" % kv for kv in sorted(cell["config_overrides"].items())
                )
                perturbations = "; ".join(cell["perturbations"]) or "none"
                print(
                    "  [%d] %-14s weight=%.3f overrides={%s} perturbations: %s"
                    % (
                        cell["index"],
                        cell["label"],
                        cell["weight"],
                        overrides,
                        perturbations,
                    )
                )
        return 0

    from .runner import Runner

    runner = Runner(workers=args.workers, registry=args.registry)
    config = _scenario_scale_config(args.scale, seed=args.seed)

    if args.scenario_command == "run":
        from .scenarios import run_scenario

        kind = "system" if args.system else "deployment"
        method = args.system if args.system else args.method
        try:
            figure = run_scenario(
                args.name,
                config,
                method=method,
                infrastructure=args.infrastructure,
                kind=kind,
                runner=runner,
            )
        except ValueError as error:
            raise SystemExit(str(error))
        if args.json:
            json.dump(figure.to_dict(), sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
            return 0
        target = (
            "system:%s" % method
            if kind == "system"
            else "%s/%s" % (method, args.infrastructure)
        )
        print("scenario: %s (%s)" % (figure.params["scenario"], target))
        print(
            "cells: %d; mean server lag %.3f s; mean user lag %.3f s; "
            "stale fraction %.4f"
            % (
                figure.summary["n_cells"],
                figure.summary["mean_server_lag"],
                figure.summary["mean_user_lag"],
                figure.summary["mean_stale_fraction"],
            )
        )
        print(
            "traffic: %.4g km*KB; %d update, %d light, %d dropped message(s)"
            % (
                figure.summary["cost_km_kb"],
                figure.summary["update_messages"],
                figure.summary["light_messages"],
                figure.summary["dropped_messages"],
            )
        )
        if figure.summary["node_downtime_s"]:
            print("node downtime: %.1f s" % figure.summary["node_downtime_s"])
        if figure.stats is not None:
            print(figure.stats.summary())
        return 0

    # compare
    from .scenarios import compare_scenarios

    names = list(args.names) if args.names else list(scenario_names())
    try:
        figure = compare_scenarios(
            names,
            config,
            method=args.method,
            infrastructure=args.infrastructure,
            runner=runner,
        )
    except ValueError as error:
        raise SystemExit(str(error))
    if args.json:
        json.dump(figure.to_dict(), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    print(
        "%-18s %6s %14s %12s %10s %14s"
        % ("scenario", "cells", "server_lag_s", "user_lag_s", "stale", "cost_km_kb")
    )
    for name in figure.summary["user_lag_ordering"]:
        rollup = figure.series[name]
        print(
            "%-18s %6d %14.3f %12.3f %10.4f %14.4g"
            % (
                name,
                rollup["n_cells"],
                rollup["mean_server_lag"],
                rollup["mean_user_lag"],
                rollup["mean_stale_fraction"],
                rollup["cost_km_kb"],
            )
        )
    print(
        "best: %s; worst: %s (by mean user lag)"
        % (figure.summary["best_scenario"], figure.summary["worst_scenario"])
    )
    if figure.stats is not None:
        print(figure.stats.summary())
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from .core import MethodAdvisor, WorkloadProfile

    profile = WorkloadProfile(
        update_rate_per_s=args.update_rate,
        visit_rate_per_s=args.visit_rate,
        n_servers=args.servers,
        silence_fraction=args.silence_fraction,
    )
    advisor = MethodAdvisor(update_size_kb=args.update_size_kb)
    rec = advisor.recommend(profile, staleness_tolerance_s=args.tolerance)
    print("recommendation: %s on %s" % (rec.method, rec.infrastructure))
    if rec.ttl_s is not None:
        print("ttl: %.0f s" % rec.ttl_s)
    print("expected replica staleness: %.1f s" % rec.expected_staleness_s)
    print("expected load: %.0f messages/h, %.0f KB/h" % (
        rec.expected_messages_per_hour, rec.expected_kb_per_hour))
    print("reason: %s" % rec.reason)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .experiments import TestbedConfig, build_deployment, build_system
    from .obs.attribution import format_attribution_table
    from .obs.sampling import SamplingTracer, StreamTracer

    config = TestbedConfig(
        n_servers=args.servers,
        users_per_server=args.users_per_server,
        n_updates=args.updates,
        game_duration_s=args.duration,
        server_ttl_s=args.server_ttl,
        seed=args.seed,
    )
    # Events stream to the output as they are emitted -- nothing buffers
    # the full event list, so a planet-scale dump's memory stays flat.
    # Under --sample-rate a deterministic SamplingTracer keeps a bounded
    # stratified reservoir instead (dumped after the run).
    handle = open(args.out, "w") if args.out else sys.stdout
    filters = dict(
        node=args.node,
        kinds=args.kind,
        since=args.since,
        until=args.until,
    )
    sampling = args.sample_rate is not None
    tracer: Any
    if sampling:
        tracer = SamplingTracer(
            seed=args.sample_seed if args.sample_seed is not None else args.seed,
            rate=args.sample_rate,
            per_kind_budget=args.budget,
        )
    else:
        tracer = StreamTracer(handle, limit=args.limit, **filters)
    try:
        if args.system is not None:
            deployment = build_system(config, args.system, tracer=tracer)
        else:
            deployment = build_deployment(
                config, args.method, args.infrastructure, tracer=tracer
            )
        metrics = deployment.run()
        if sampling:
            written = 0
            for event in tracer.events(**filters):
                if args.limit is not None and written >= args.limit:
                    break
                handle.write(event.to_json())
                handle.write("\n")
                written += 1
        else:
            written = tracer.written
    finally:
        if args.out:
            handle.close()

    log = sys.stderr
    log.write("deployment: %s\n" % metrics.name)
    total = sum(tracer.kind_counts().values())
    log.write(
        "trace: %d event(s) recorded, %d written%s\n"
        % (total, written, " to %s" % args.out if args.out else "")
    )
    if sampling:
        held = len(tracer)
        log.write(
            "sampling: rate=%g budget=%d seed=%d; %d event(s) held\n"
            % (tracer.rate, tracer.per_kind_budget, tracer.seed, held)
        )
    counts = tracer.kind_counts()
    log.write(
        "kinds: %s\n"
        % ", ".join("%s=%d" % (kind, counts[kind]) for kind in sorted(counts))
    )
    fabric = deployment.fabric.counters.to_dict()
    log.write(
        "fabric: %s\n"
        % ", ".join(
            "%s=%s" % (key, "%.3f" % value if isinstance(value, float) else value)
            for key, value in sorted(fabric.items())
        )
    )
    if args.attribution:
        for line in format_attribution_table({metrics.name: metrics}):
            log.write(line + "\n")
    return 0


def _resolve_progress_path(args: argparse.Namespace) -> str:
    from .obs.live import default_progress_path

    if args.progress:
        return args.progress
    if not args.registry:
        raise SystemExit("no progress source: pass PROGRESS_JSON or --registry")
    return default_progress_path(args.registry)


def _cmd_watch(args: argparse.Namespace) -> int:
    import time

    from .obs.live import (
        heartbeat_dir,
        read_heartbeats,
        read_progress,
        render_watch,
    )

    path = _resolve_progress_path(args)
    beats_dir = heartbeat_dir(path)
    while True:
        progress = read_progress(path)
        beats = read_heartbeats(beats_dir)
        for line in render_watch(progress, beats):
            print(line)
        if args.once:
            return 0
        if progress is not None and progress.get("status") in (
            "done", "failed",
        ):
            return 0 if progress.get("status") == "done" else 1
        print()
        sys.stdout.flush()
        time.sleep(max(0.1, args.interval))


def _default_trajectories() -> List[str]:
    import glob

    return sorted(glob.glob("BENCH_*.json"))


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json

    from .experiments.analysis import (
        analyze_trajectories,
        render_html,
        render_text,
    )

    paths = args.trajectories or _default_trajectories()
    if not paths:
        # A fresh checkout has no trajectories yet: nothing to analyze
        # is not an error (the same rule as benchmarks/check_bench.py).
        print(
            "analyze: WARNING no BENCH_*.json trajectories found; skipping "
            "(record one with `make bench`)",
            file=sys.stderr,
        )
        return 0
    try:
        analysis = analyze_trajectories(
            paths,
            window=args.window,
            threshold=args.threshold,
            telemetry_path=args.telemetry,
        )
    except ValueError as error:
        print("analyze: %s" % error, file=sys.stderr)
        return 2
    for line in render_text(analysis):
        print(line)
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(analysis, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.json_out, file=sys.stderr)
    if args.html:
        with open(args.html, "w") as handle:
            handle.write(render_html(analysis))
        print("wrote %s" % args.html, file=sys.stderr)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.report import ReportScale, generate_report
    from .runner import Runner

    scale = (
        ReportScale.small(args.seed)
        if args.scale == "small"
        else ReportScale.medium(args.seed)
    )
    runner = Runner(workers=args.workers, registry=args.registry)
    markdown = generate_report(scale, log=sys.stderr, runner=runner)
    with open(args.out, "w") as handle:
        handle.write(markdown)
    print("wrote %s" % args.out)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from .obs.telemetry import merged_rollup, prometheus_exposition

    path = _resolve_telemetry_artifact(args)
    artifact, entry = _load_run_entry(path, args.run)
    if args.check:
        rollup = entry.get("rollup") or {}
        populated = bool(rollup.get("spans") or rollup.get("counters"))
        print(
            "telemetry %s: %d run(s); latest: %d spec(s), %d worker(s), "
            "%.2f s wall, rollup %s"
            % (
                path,
                len(artifact["runs"]),
                entry.get("n_specs", 0),
                entry.get("workers", 0),
                entry.get("wall_time_s", 0.0),
                "ok" if populated else "EMPTY",
            )
        )
        return 0 if populated else 2
    snapshot = merged_rollup(artifact) if args.merged else entry.get("rollup") or {}
    if args.format == "prom":
        sys.stdout.write(prometheus_exposition(snapshot))
    else:
        json.dump(snapshot, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .obs.telemetry import format_span_table, span_total_s

    path = _resolve_telemetry_artifact(args)
    artifact, entry = _load_run_entry(path, args.run)
    rollup = entry.get("rollup") or {}
    if args.compare is not None:
        try:
            other_entry = _load_run_entry(path, int(args.compare))[1]
        except ValueError:
            other_entry = _load_run_entry(args.compare, -1)[1]
        base = other_entry.get("rollup") or {}
        print(
            "span deltas (this run minus baseline; negative self = faster):"
        )
        print(
            "%-38s %8s %12s %12s"
            % ("span", "dcount", "dself (s)", "dcum (s)")
        )
        names = sorted(
            set(rollup.get("spans", {})) | set(base.get("spans", {}))
        )
        zero = {"count": 0, "cum_s": 0.0, "self_s": 0.0}
        for name in names:
            ours = rollup.get("spans", {}).get(name, zero)
            theirs = base.get("spans", {}).get(name, zero)
            print(
                "%-38s %+8d %+12.4f %+12.4f"
                % (
                    name,
                    ours["count"] - theirs["count"],
                    ours["self_s"] - theirs["self_s"],
                    ours["cum_s"] - theirs["cum_s"],
                )
            )
        print(
            "total self: %.4f s vs %.4f s"
            % (span_total_s(rollup), span_total_s(base))
        )
        return 0
    for line in format_span_table(rollup, top=args.top, sort=args.sort):
        print(line)
    print(
        "recorded wall time: %.4f s (%d spec(s), %d worker(s))"
        % (
            entry.get("wall_time_s", 0.0),
            entry.get("n_specs", 0),
            entry.get("workers", 0),
        )
    )
    return 0


_COMMANDS = {
    "measure": _cmd_measure,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "scenario": _cmd_scenario,
    "advise": _cmd_advise,
    "report": _cmd_report,
    "trace": _cmd_trace,
    "watch": _cmd_watch,
    "analyze": _cmd_analyze,
    "metrics": _cmd_metrics,
    "profile": _cmd_profile,
}


def main(argv: Optional[List[str]] = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "lint":
        from .lint.cli import main as lint_main

        return lint_main(arguments[1:])
    if arguments and arguments[0] == "sanitize":
        from .experiments.sanitize import main as sanitize_main

        return sanitize_main(arguments[1:])
    parser = build_parser()
    args = parser.parse_args(arguments)
    if args.command == "sweep":
        _check_trace_flags(parser, args)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
