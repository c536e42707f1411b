"""Command-line interface to the Frost platform.

Snowman exposes its functionality through a CLI next to GUI and API
(§3.3 lists CLI among the interface KPIs; Appendix A.5 describes
Snowman's CLI).  This module provides the same entry points over the
file-based import formats::

    python -m repro metrics  --dataset d.csv --gold g.csv --experiment e.csv
    python -m repro diagram  --dataset d.csv --gold g.csv --experiment e.csv
    python -m repro venn     --dataset d.csv --gold g.csv --experiment a.csv --experiment b.csv
    python -m repro profile  --dataset d.csv [--dataset other.csv]
    python -m repro categorize --dataset d.csv --gold g.csv --experiment e.csv

The ``engine`` commands route the same evaluations through the parallel
job engine (:mod:`repro.engine`) with its content-addressed result
cache; ``--store cache.db`` persists cached results across invocations::

    python -m repro engine run    --dataset d.csv --gold g.csv --experiment e.csv --job metrics
    python -m repro engine sweep  --dataset d.csv --gold g.csv --experiment e.csv --thresholds 0.5:0.9:5
    python -m repro engine status --store cache.db

The ``stream`` commands manage durable incremental matching sessions
(:mod:`repro.streaming`): ``init`` registers a session in a store,
``ingest`` folds a CSV batch in (delta blocking + incremental
clustering), ``snapshot`` prints the current duplicate clusters, and
``status`` shows the snapshot lineage::

    python -m repro stream init    --store s.db --name crm --key-attribute last_name --similarity first_name=jaro_winkler --similarity last_name=jaro_winkler
    python -m repro stream ingest  --store s.db --name crm --dataset day1.csv
    python -m repro stream snapshot --store s.db --name crm
    python -m repro stream status  --store s.db

``--blocker lsh --num-perm 128 --bands 32`` (on ``stream init``)
selects approximate MinHash-LSH blocking (:mod:`repro.matching.lsh`)
instead of an exact key scheme — typo-robust candidate generation whose
banding stays exactly delta-decomposable.

The ``serve`` command exposes a store over the concurrent HTTP
front-end (:mod:`repro.server.http` + :mod:`repro.serving`): every
dataset/experiment/gold in the store is loaded into a platform and
served with read-through payload caching and request coalescing.
``--port 0`` binds an ephemeral port (announced on stdout) and SIGINT/
SIGTERM shut the server down gracefully::

    python -m repro serve --store results.db --port 0 --workers 8 --cache-size 2048

The ``trace`` command runs a fully traced matching pipeline through the
engine (:mod:`repro.telemetry`): the span tree — pipeline stages,
engine jobs with cache-hit annotations, columnar comparison kernels
— prints to stdout together with the Prometheus metric snapshot, and
``--output DIR`` persists both as ``spans.jsonl``/``metrics.json``::

    python -m repro trace --generate 600 --repeat 2
    python -m repro trace --dataset d.csv --gold g.csv --similarity name=jaro_winkler

Every command reads CSV files (``--separator`` configures the dialect)
and prints plain text to stdout.  Diagnostics go through :mod:`logging`
(stderr; ``--log-level`` selects verbosity) — the only machine-read
lines, like ``serve``'s bound-port announcement, stay on stdout.
"""

from __future__ import annotations

import argparse
import logging
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.core.confusion import ConfusionMatrix
from repro.core.diagrams import compute_diagram_optimized
from repro.core.experiment import Experiment, GoldStandard
from repro.core.records import Dataset
from repro.io.csvio import CsvFormat
from repro.io.importers import (
    PairFormatImporter,
    import_dataset,
    import_gold_standard,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser behind ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Frost: benchmark and explore data matching results.",
    )
    parser.add_argument(
        "--separator", default=",", help="CSV separator (default ',')"
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
        help="logging verbosity on stderr (default info)",
    )
    parser.add_argument(
        "--log-format",
        choices=("text", "json"),
        default="text",
        help="log line format on stderr: human-readable text (default) "
        "or structured JSON with request ids",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_io_arguments(sub: argparse.ArgumentParser, experiments: str) -> None:
        sub.add_argument("--dataset", required=True, help="dataset CSV path")
        sub.add_argument("--id-column", default="id")
        sub.add_argument("--gold", required=True, help="gold standard CSV path")
        sub.add_argument(
            "--gold-format", choices=("pairs", "clusters"), default="pairs"
        )
        if experiments == "one":
            sub.add_argument("--experiment", required=True, help="result CSV path")
        elif experiments == "many":
            sub.add_argument(
                "--experiment",
                action="append",
                required=True,
                help="result CSV path (repeatable)",
            )

    metrics = commands.add_parser(
        "metrics", help="quality metrics of experiments against a gold standard"
    )
    add_io_arguments(metrics, experiments="many")
    metrics.add_argument(
        "--metric",
        action="append",
        help="metric name (repeatable; default: precision, recall, f1)",
    )

    diagram = commands.add_parser(
        "diagram", help="precision/recall/f1 over similarity thresholds"
    )
    add_io_arguments(diagram, experiments="one")
    diagram.add_argument("--samples", type=int, default=20)

    venn = commands.add_parser(
        "venn", help="set-based comparison of experiments and the gold standard"
    )
    add_io_arguments(venn, experiments="many")

    profile = commands.add_parser(
        "profile", help="profile one dataset, or compare two"
    )
    profile.add_argument(
        "--dataset",
        action="append",
        required=True,
        help="dataset CSV path (repeat to compare two datasets)",
    )
    profile.add_argument("--id-column", default="id")

    categorize = commands.add_parser(
        "categorize", help="categorize the errors of an experiment"
    )
    add_io_arguments(categorize, experiments="one")
    categorize.add_argument(
        "--limit", type=int, default=None, help="categorize at most N FNs and FPs"
    )

    engine = commands.add_parser(
        "engine", help="run evaluations through the cached parallel job engine"
    )
    engine_commands = engine.add_subparsers(dest="engine_command", required=True)

    def add_engine_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--store",
            default=None,
            help="SQLite path persisting the result cache across invocations",
        )
        sub.add_argument(
            "--workers", type=int, default=4, help="worker pool width (default 4)"
        )

    engine_run = engine_commands.add_parser(
        "run", help="run metrics/diagram jobs for each experiment"
    )
    add_io_arguments(engine_run, experiments="many")
    engine_run.add_argument(
        "--job", choices=("metrics", "diagram"), default="metrics"
    )
    engine_run.add_argument(
        "--metric", action="append", help="metric name (repeatable)"
    )
    engine_run.add_argument("--samples", type=int, default=20)
    engine_run.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="submit the same jobs N times (re-runs are served from cache)",
    )
    add_engine_arguments(engine_run)

    engine_sweep = engine_commands.add_parser(
        "sweep", help="batch threshold sweep of the metrics of one experiment"
    )
    add_io_arguments(engine_sweep, experiments="one")
    engine_sweep.add_argument(
        "--thresholds",
        default="0.5:0.9:5",
        help="LOW:HIGH:STEPS threshold grid (default 0.5:0.9:5)",
    )
    engine_sweep.add_argument(
        "--metric", action="append", help="metric name (repeatable)"
    )
    add_engine_arguments(engine_sweep)

    engine_status = engine_commands.add_parser(
        "status", help="inspect a persisted result cache"
    )
    engine_status.add_argument(
        "--store", required=True, help="SQLite path of the result cache"
    )

    stream = commands.add_parser(
        "stream", help="incremental streaming matching sessions"
    )
    stream_commands = stream.add_subparsers(dest="stream_command", required=True)

    stream_init = stream_commands.add_parser(
        "init", help="create a durable streaming session"
    )
    stream_init.add_argument(
        "--store", required=True, help="SQLite path holding the session state"
    )
    stream_init.add_argument("--name", required=True, help="stream name")
    stream_init.add_argument(
        "--blocker",
        choices=("key", "lsh"),
        default="key",
        help="candidate generation family: exact key-based blocking "
             "(--key-kind) or approximate MinHash-LSH (default key)",
    )
    stream_init.add_argument(
        "--key-kind",
        choices=("first_token", "prefix", "soundex", "token"),
        default=None,
        help="key-based delta blocking scheme "
             "(default first_token; needs --blocker key)",
    )
    stream_init.add_argument(
        "--num-perm",
        type=int,
        default=None,
        help="LSH signature length (default 128; needs --blocker lsh)",
    )
    stream_init.add_argument(
        "--bands",
        type=int,
        default=None,
        help="LSH band count; rows = num-perm / bands "
             "(default 32; needs --blocker lsh)",
    )
    stream_init.add_argument(
        "--lsh-seed",
        type=int,
        default=None,
        help="seed of the MinHash permutations (default 1; needs --blocker lsh)",
    )
    stream_init.add_argument(
        "--key-attribute", help="blocking attribute (key-based kinds)"
    )
    stream_init.add_argument(
        "--prefix-length",
        type=int,
        default=None,
        help="prefix key length (default 3; needs --key-kind prefix)",
    )
    stream_init.add_argument(
        "--token-attributes",
        help="comma-separated attributes considered by token and lsh "
             "blocking (default: all)",
    )
    stream_init.add_argument(
        "--min-token-length",
        type=int,
        default=None,
        help="shortest token considered by token/lsh blocking "
             "(defaults: 3 for token, 2 for lsh)",
    )
    stream_init.add_argument(
        "--max-block-size",
        type=int,
        default=None,
        help="stop emitting pairs once a block reaches this size",
    )
    stream_init.add_argument(
        "--similarity",
        action="append",
        required=True,
        metavar="ATTR=MEASURE",
        help="per-attribute similarity, e.g. name=jaro_winkler (repeatable)",
    )
    stream_init.add_argument(
        "--threshold", type=float, default=0.5, help="match threshold"
    )
    stream_init.add_argument(
        "--lowercase",
        action="store_true",
        help="also lowercase values during preparation",
    )
    stream_init.add_argument(
        "--blocking-storage",
        choices=("memory", "disk"),
        default=None,
        help="where block membership lives: 'disk' spills blocking keys "
             "into SQLite and joins candidates there (identical output, "
             "bounded Python memory; default memory)",
    )
    stream_init.add_argument(
        "--graph",
        action="store_true",
        help="maintain a persisted match graph, updated per batch "
             "(query it with 'repro graph ...')",
    )

    stream_ingest = stream_commands.add_parser(
        "ingest", help="fold one CSV record batch into a session"
    )
    stream_ingest.add_argument("--store", required=True)
    stream_ingest.add_argument("--name", required=True)
    stream_ingest.add_argument(
        "--dataset", required=True, help="batch CSV path"
    )
    stream_ingest.add_argument("--id-column", default="id")

    stream_snapshot = stream_commands.add_parser(
        "snapshot", help="print the clusters of the latest snapshot"
    )
    stream_snapshot.add_argument("--store", required=True)
    stream_snapshot.add_argument("--name", required=True)
    stream_snapshot.add_argument(
        "--limit", type=int, default=None, help="print at most N clusters"
    )

    stream_status = stream_commands.add_parser(
        "status", help="list sessions and their snapshot lineage"
    )
    stream_status.add_argument("--store", required=True)
    stream_status.add_argument(
        "--name", default=None, help="show one stream's full lineage"
    )

    graph = commands.add_parser(
        "graph", help="query persisted match graphs (traversal, evidence)"
    )
    graph_commands = graph.add_subparsers(dest="graph_command", required=True)

    def add_graph_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--store", required=True, help="SQLite path holding the graph"
        )
        sub.add_argument("--name", required=True, help="graph name")

    graph_build = graph_commands.add_parser(
        "build", help="build a graph from a stored experiment's matches"
    )
    add_graph_arguments(graph_build)
    graph_build.add_argument(
        "--dataset", required=True, help="stored dataset name"
    )
    graph_build.add_argument(
        "--experiment", required=True, help="stored experiment name"
    )
    graph_build.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="edge acceptance threshold (default: weakest stored match)",
    )

    graph_neighbors = graph_commands.add_parser(
        "neighbors", help="k-hop BFS neighborhood of one record"
    )
    add_graph_arguments(graph_neighbors)
    graph_neighbors.add_argument("--record", required=True)
    graph_neighbors.add_argument("--k", type=int, default=1, help="hop limit")
    graph_neighbors.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="traverse ALL candidate edges scoring >= this instead of "
             "only accepted ones",
    )

    graph_path = graph_commands.add_parser(
        "path", help="fewest-hops path between two records"
    )
    add_graph_arguments(graph_path)
    graph_path.add_argument("--from", dest="from_record", required=True)
    graph_path.add_argument("--to", dest="to_record", required=True)
    graph_path.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="traverse ALL candidate edges scoring >= this instead of "
             "only accepted ones",
    )

    graph_component = graph_commands.add_parser(
        "component", help="one record's connected component with stats"
    )
    add_graph_arguments(graph_component)
    graph_component.add_argument("--record", required=True)

    graph_explain = graph_commands.add_parser(
        "explain",
        help="why are two records in one cluster? (max-min-score "
             "evidence path)",
    )
    add_graph_arguments(graph_explain)
    graph_explain.add_argument("--from", dest="from_record", required=True)
    graph_explain.add_argument("--to", dest="to_record", required=True)

    serve = commands.add_parser(
        "serve", help="serve a store over the concurrent HTTP front-end"
    )
    serve.add_argument(
        "--store",
        required=True,
        help="SQLite path holding the datasets/experiments/golds to serve",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="TCP port; 0 binds an ephemeral port (announced on stdout)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=4,
        help="engine worker-pool width behind /jobs (default 4)",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        help="serving-layer payload cache capacity (default 1024)",
    )

    trace = commands.add_parser(
        "trace",
        help="run a fully traced matching pipeline and print the span tree",
    )
    trace.add_argument(
        "--generate",
        type=int,
        default=None,
        metavar="N",
        help="generate an N-record synthetic person benchmark "
             "(alternative to --dataset)",
    )
    trace.add_argument(
        "--seed", type=int, default=42, help="generator seed (default 42)"
    )
    trace.add_argument("--dataset", default=None, help="dataset CSV path")
    trace.add_argument("--id-column", default="id")
    trace.add_argument(
        "--gold", default=None, help="gold standard CSV path (enables metrics)"
    )
    trace.add_argument(
        "--gold-format", choices=("pairs", "clusters"), default="pairs"
    )
    trace.add_argument(
        "--similarity",
        action="append",
        metavar="ATTR=MEASURE",
        help="per-attribute similarity, e.g. name=jaro_winkler "
             "(repeatable; default: person-benchmark measures)",
    )
    trace.add_argument(
        "--key-kind",
        choices=("first_token", "prefix", "soundex", "token"),
        default="first_token",
        help="blocking key scheme (default first_token)",
    )
    trace.add_argument(
        "--key-attribute",
        default="last_name",
        help="blocking attribute (default last_name)",
    )
    trace.add_argument(
        "--threshold", type=float, default=0.8, help="match threshold"
    )
    trace.add_argument(
        "--blocking-storage",
        choices=("memory", "disk"),
        default=None,
        help="run candidate generation through the SQL-pushdown disk "
             "path (identical candidates; default memory)",
    )
    trace.add_argument(
        "--repeat",
        type=int,
        default=2,
        help="submit the pipeline job N times — re-runs are engine "
             "cache hits and show up as such (default 2)",
    )
    trace.add_argument(
        "--output",
        default=None,
        metavar="DIR",
        help="also write spans.jsonl and metrics.json to this directory",
    )
    trace.add_argument(
        "--profile",
        action="store_true",
        help="sample wall-clock stacks during the run and print the "
        "hottest collapsed stacks",
    )
    trace.add_argument(
        "--profile-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="sampling interval for --profile (default 0.005)",
    )
    trace.add_argument(
        "--store",
        default=None,
        metavar="DB",
        help="persist the run (spans, metrics, profile) into this "
        "telemetry warehouse database",
    )
    trace.add_argument(
        "--run-name",
        default="trace",
        help="run name recorded in the warehouse (default 'trace')",
    )

    telemetry = commands.add_parser(
        "telemetry",
        help="query and curate a persisted telemetry warehouse",
    )
    telemetry_commands = telemetry.add_subparsers(
        dest="telemetry_command", required=True
    )

    def add_store_argument(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--store",
            required=True,
            metavar="DB",
            help="telemetry warehouse database path",
        )

    telemetry_list = telemetry_commands.add_parser(
        "list", help="stored runs, newest first"
    )
    add_store_argument(telemetry_list)
    telemetry_show = telemetry_commands.add_parser(
        "show", help="one run's span tree, metrics, and profile"
    )
    add_store_argument(telemetry_show)
    telemetry_show.add_argument("run", help="run id or run name (latest)")
    telemetry_slowest = telemetry_commands.add_parser(
        "slowest", help="slowest spans, warehouse-wide or per run"
    )
    add_store_argument(telemetry_slowest)
    telemetry_slowest.add_argument(
        "--run", default=None, help="restrict to one run id or name"
    )
    telemetry_slowest.add_argument(
        "--limit", type=int, default=10, help="rows to print (default 10)"
    )
    telemetry_diff = telemetry_commands.add_parser(
        "diff", help="per-stage wall-time deltas between two runs"
    )
    add_store_argument(telemetry_diff)
    telemetry_diff.add_argument("run_a", help="baseline run id or name")
    telemetry_diff.add_argument("run_b", help="candidate run id or name")
    telemetry_prune = telemetry_commands.add_parser(
        "prune", help="delete old runs by count and/or age"
    )
    add_store_argument(telemetry_prune)
    telemetry_prune.add_argument(
        "--keep", type=int, default=None, help="retain only the newest N runs"
    )
    telemetry_prune.add_argument(
        "--older-than",
        type=float,
        default=None,
        metavar="SECONDS",
        help="delete runs recorded more than SECONDS ago",
    )
    return parser


def _load_dataset(path: str, id_column: str, fmt: CsvFormat) -> Dataset:
    return import_dataset(
        Path(path), id_column=id_column, fmt=fmt, name=Path(path).stem
    )


def _load_gold(path: str, format_: str, fmt: CsvFormat) -> GoldStandard:
    return import_gold_standard(Path(path), format_=format_, fmt=fmt)


def _load_experiment(path: str, fmt: CsvFormat) -> Experiment:
    importer = PairFormatImporter(fmt=fmt)
    return importer.import_experiment(Path(path), name=Path(path).stem)


def _matrix(
    dataset: Dataset, experiment: Experiment, gold: GoldStandard
) -> ConfusionMatrix:
    return ConfusionMatrix.from_clusterings(
        experiment.clustering(), gold.clustering, dataset.total_pairs()
    )


def _command_metrics(args: argparse.Namespace, fmt: CsvFormat) -> int:
    from repro.metrics.registry import default_registry

    dataset = _load_dataset(args.dataset, args.id_column, fmt)
    gold = _load_gold(args.gold, args.gold_format, fmt)
    names = args.metric or ["precision", "recall", "f1"]
    registry = default_registry()
    print("experiment  " + "  ".join(names))
    for path in args.experiment:
        experiment = _load_experiment(path, fmt)
        values = registry.evaluate(_matrix(dataset, experiment, gold), names)
        cells = "  ".join(f"{values[name]:.4f}" for name in names)
        print(f"{experiment.name}  {cells}")
    return 0


def _command_diagram(args: argparse.Namespace, fmt: CsvFormat) -> int:
    from repro.metrics.pairwise import f1_score, precision, recall

    dataset = _load_dataset(args.dataset, args.id_column, fmt)
    gold = _load_gold(args.gold, args.gold_format, fmt)
    experiment = _load_experiment(args.experiment, fmt)
    points = compute_diagram_optimized(dataset, experiment, gold, args.samples)
    print("threshold  precision  recall  f1")
    for point in points:
        threshold = (
            "inf" if point.threshold == float("inf") else f"{point.threshold:.4f}"
        )
        print(
            f"{threshold}  {precision(point.matrix):.4f}  "
            f"{recall(point.matrix):.4f}  {f1_score(point.matrix):.4f}"
        )
    return 0


def _command_venn(args: argparse.Namespace, fmt: CsvFormat) -> int:
    from repro.exploration.setops import SetComparison

    dataset = _load_dataset(args.dataset, args.id_column, fmt)
    gold = _load_gold(args.gold, args.gold_format, fmt)
    inputs: dict[str, Experiment | GoldStandard] = {"gold": gold}
    for path in args.experiment:
        experiment = _load_experiment(path, fmt)
        inputs[experiment.name] = experiment
    comparison = SetComparison(dataset, inputs)
    for label, size in sorted(comparison.region_sizes().items()):
        print(f"{label}: {size}")
    return 0


def _command_profile(args: argparse.Namespace, fmt: CsvFormat) -> int:
    from repro.profiling import profile_dataset, vocabulary_similarity

    datasets = [_load_dataset(p, args.id_column, fmt) for p in args.dataset]
    for dataset in datasets:
        profile = profile_dataset(dataset)
        print(
            f"{dataset.name}: records={profile.tuple_count} "
            f"sparsity={profile.sparsity:.3f} textuality={profile.textuality:.2f} "
            f"schema_complexity={profile.schema_complexity}"
        )
    if len(datasets) == 2:
        similarity = vocabulary_similarity(datasets[0], datasets[1])
        print(f"vocabulary similarity: {similarity:.3f}")
    return 0


def _command_categorize(args: argparse.Namespace, fmt: CsvFormat) -> int:
    from repro.exploration.error_categories import categorize_errors

    dataset = _load_dataset(args.dataset, args.id_column, fmt)
    gold = _load_gold(args.gold, args.gold_format, fmt)
    experiment = _load_experiment(args.experiment, fmt)
    categorization = categorize_errors(
        dataset, experiment, gold, limit=args.limit
    )
    print(categorization.render_report())
    weakness = categorization.dominant_weakness()
    if weakness is not None:
        print(f"dominant weakness among missed duplicates: {weakness.value}")
    return 0


def _engine_platform(args: argparse.Namespace, fmt: CsvFormat):
    """Platform + engine over the CLI's file-based inputs."""
    from repro.core.platform import FrostPlatform
    from repro.engine.runner import ExperimentEngine

    platform = FrostPlatform()
    dataset = _load_dataset(args.dataset, args.id_column, fmt)
    platform.add_dataset(dataset)
    gold = _load_gold(args.gold, args.gold_format, fmt)
    platform.add_gold(dataset.name, gold)
    paths = args.experiment if isinstance(args.experiment, list) else [args.experiment]
    experiment_names = []
    for path in paths:
        experiment = _load_experiment(path, fmt)
        platform.add_experiment(dataset.name, experiment)
        experiment_names.append(experiment.name)
    store = None
    if args.store:
        from repro.storage.database import FrostStore

        store = FrostStore(args.store)
    engine = ExperimentEngine(platform, store=store, max_workers=args.workers)
    return engine, dataset.name, gold.name, experiment_names


def _print_engine_summary(engine) -> None:
    stats = engine.cache.stats()
    print(
        f"engine: {engine.computed_jobs} computed, {engine.cached_jobs} cached "
        f"(cache hits={stats['hits']} misses={stats['misses']})"
    )


def _command_engine_run(args: argparse.Namespace, fmt: CsvFormat) -> int:
    from repro.engine.jobs import JobSpec

    engine, dataset_name, gold_name, experiment_names = _engine_platform(args, fmt)
    metric_names = args.metric or ["precision", "recall", "f1"]
    for round_index in range(max(1, args.repeat)):
        specs = []
        for name in experiment_names:
            if args.job == "metrics":
                params = {
                    "dataset": dataset_name,
                    "gold": gold_name,
                    "experiments": [name],
                    "metrics": metric_names,
                }
            else:
                params = {
                    "dataset": dataset_name,
                    "gold": gold_name,
                    "experiment": name,
                    "samples": args.samples,
                }
            specs.append(
                JobSpec(args.job, params, job_id=f"{args.job}:{name}#{round_index}")
            )
        results = engine.run(specs)
        for job_id, result in results.items():
            if result.state.value != "succeeded":
                print(f"{job_id}: {result.state.value} ({result.error})")
                continue
            tag = "cached" if result.cached else "computed"
            if args.job == "metrics":
                for name, row in result.value["metrics"].items():
                    cells = "  ".join(
                        f"{metric}={row[metric]:.4f}" for metric in metric_names
                    )
                    print(f"{name}  {cells}  [{tag}]")
            else:
                print(
                    f"{result.value['experiment']}: "
                    f"{len(result.value['points'])} diagram points  [{tag}]"
                )
    _print_engine_summary(engine)
    return 0


def _parse_threshold_grid(grid: str) -> list[float]:
    try:
        low_text, high_text, steps_text = grid.split(":")
        low, high, steps = float(low_text), float(high_text), int(steps_text)
    except ValueError:
        raise ValueError(
            f"--thresholds must be LOW:HIGH:STEPS, got {grid!r}"
        ) from None
    if steps < 1:
        raise ValueError("--thresholds needs at least one step")
    if steps == 1:
        return [round(low, 6)]
    width = (high - low) / (steps - 1)
    grid = [round(low + index * width, 6) for index in range(steps)]
    # A degenerate grid (low == high) would fan out duplicate job ids.
    return list(dict.fromkeys(grid))


def _command_engine_sweep(args: argparse.Namespace, fmt: CsvFormat) -> int:
    from repro.engine.jobs import JobSpec

    engine, dataset_name, gold_name, experiment_names = _engine_platform(args, fmt)
    metric_names = args.metric or ["precision", "recall", "f1"]
    thresholds = _parse_threshold_grid(args.thresholds)
    base = JobSpec(
        "metrics",
        {
            "dataset": dataset_name,
            "gold": gold_name,
            "experiments": experiment_names,
            "metrics": metric_names,
        },
        job_id="sweep",
    )
    job_ids = engine.sweep(base, "threshold", thresholds)
    engine.start()
    engine.join(job_ids)
    print("threshold  " + "  ".join(metric_names))
    for job_id, threshold in zip(job_ids, thresholds):
        result = engine.result(job_id)
        if result.state.value != "succeeded":
            print(f"{threshold:.4f}  {result.state.value} ({result.error})")
            continue
        row = result.value["metrics"][experiment_names[0]]
        cells = "  ".join(f"{row[metric]:.4f}" for metric in metric_names)
        suffix = "  [cached]" if result.cached else ""
        print(f"{threshold:.4f}  {cells}{suffix}")
    _print_engine_summary(engine)
    return 0


def _command_engine_status(args: argparse.Namespace, fmt: CsvFormat) -> int:
    from repro.storage.database import FrostStore

    with FrostStore(args.store) as store:
        entries = store.cache_entries()
        by_kind: dict[str, int] = {}
        for _, kind in entries:
            by_kind[kind] = by_kind.get(kind, 0) + 1
        print(f"cached results: {len(entries)}")
        for kind in sorted(by_kind):
            print(f"  {kind}: {by_kind[kind]}")
    return 0


def _command_engine(args: argparse.Namespace, fmt: CsvFormat) -> int:
    handlers = {
        "run": _command_engine_run,
        "sweep": _command_engine_sweep,
        "status": _command_engine_status,
    }
    return handlers[args.engine_command](args, fmt)


def _stream_config_from_args(args: argparse.Namespace) -> dict:
    """The JSON stream config described by the ``stream init`` flags.

    Flags of the family that was *not* selected fail loudly instead of
    being dropped — a silently ignored blocking flag yields a very
    different candidate set with nothing to point at the mistake.
    """
    if args.blocker == "lsh":
        if args.key_attribute:
            raise ValueError(
                "--key-attribute does not apply to --blocker lsh "
                "(it hashes whole records); restrict attributes with "
                "--token-attributes instead"
            )
        for flag, value in (("--key-kind", args.key_kind),
                            ("--prefix-length", args.prefix_length)):
            if value is not None:
                raise ValueError(f"{flag} needs --blocker key")
        key: dict[str, object] = {"kind": "lsh"}
        if args.num_perm is not None:
            key["num_perm"] = args.num_perm
        if args.bands is not None:
            key["bands"] = args.bands
        if args.lsh_seed is not None:
            key["seed"] = args.lsh_seed
        if args.token_attributes:
            key["attributes"] = [
                name for name in args.token_attributes.split(",") if name
            ]
        if args.min_token_length is not None:
            key["min_token_length"] = args.min_token_length
    else:
        for flag, value in (("--num-perm", args.num_perm),
                            ("--bands", args.bands),
                            ("--lsh-seed", args.lsh_seed)):
            if value is not None:
                raise ValueError(f"{flag} needs --blocker lsh")
        kind = args.key_kind or "first_token"
        if args.prefix_length is not None and kind != "prefix":
            raise ValueError("--prefix-length needs --key-kind prefix")
        key = {"kind": kind}
        if kind == "token":
            if args.key_attribute:
                raise ValueError(
                    "--key-attribute does not apply to --key-kind token; "
                    "restrict attributes with --token-attributes instead"
                )
            if args.token_attributes:
                key["attributes"] = [
                    name for name in args.token_attributes.split(",") if name
                ]
            key["min_token_length"] = (
                3 if args.min_token_length is None else args.min_token_length
            )
        else:
            if args.token_attributes:
                raise ValueError(
                    "--token-attributes needs --key-kind token or "
                    "--blocker lsh"
                )
            if args.min_token_length is not None:
                raise ValueError(
                    "--min-token-length needs --key-kind token or "
                    "--blocker lsh"
                )
            if not args.key_attribute:
                raise ValueError(
                    f"--key-kind {kind} needs --key-attribute"
                )
            key["attribute"] = args.key_attribute
            if kind == "prefix":
                key["length"] = (
                    3 if args.prefix_length is None else args.prefix_length
                )
    if args.max_block_size is not None:
        key["max_block_size"] = args.max_block_size
    similarities: dict[str, str] = {}
    for entry in args.similarity:
        attribute, separator, measure = entry.partition("=")
        if not separator or not attribute or not measure:
            raise ValueError(
                f"--similarity must be ATTR=MEASURE, got {entry!r}"
            )
        similarities[attribute] = measure
    preparers = ["normalize_whitespace"]
    if args.lowercase:
        preparers.append("lowercase_values")
    config: dict = {
        "key": key,
        "similarities": similarities,
        "threshold": args.threshold,
        "preparers": preparers,
    }
    if getattr(args, "blocking_storage", None):
        config["blocking_storage"] = args.blocking_storage
    if getattr(args, "graph", False):
        config["graph"] = True
    return config


def _command_stream_init(args: argparse.Namespace, fmt: CsvFormat) -> int:
    from repro.storage.database import FrostStore
    from repro.streaming import build_session

    config = _stream_config_from_args(args)
    with FrostStore(args.store) as store:
        session = build_session(config, store=store, name=args.name)
        print(
            f"stream {session.name!r} created "
            f"(key={config['key']['kind']}, threshold={config['threshold']})"
        )
    return 0


def _command_stream_ingest(args: argparse.Namespace, fmt: CsvFormat) -> int:
    from repro.storage.database import FrostStore
    from repro.streaming import open_session

    with FrostStore(args.store) as store:
        session = open_session(store, args.name)
        batch = _load_dataset(args.dataset, args.id_column, fmt)
        snapshot = session.ingest(batch)
        print(
            f"stream {args.name!r} v{snapshot.version}: "
            f"+{len(batch)} records ({snapshot.record_count} total), "
            f"{snapshot.delta_candidates} delta candidates, "
            f"{snapshot.accepted_matches} accepted, "
            f"{snapshot.cluster_count} clusters"
        )
    return 0


def _command_stream_snapshot(args: argparse.Namespace, fmt: CsvFormat) -> int:
    from repro.storage.database import FrostStore
    from repro.streaming import open_session

    with FrostStore(args.store) as store:
        session = open_session(store, args.name)
        clusters = sorted(session.clusters().clusters)
        print(
            f"stream {args.name!r} v{session.version}: "
            f"{session.record_count} records, "
            f"{len(clusters)} duplicate clusters"
        )
        shown = clusters if args.limit is None else clusters[: args.limit]
        for members in shown:
            print("  " + " ".join(members))
        if len(shown) < len(clusters):
            print(f"  ... {len(clusters) - len(shown)} more")
    return 0


def _command_stream_status(args: argparse.Namespace, fmt: CsvFormat) -> int:
    from repro.storage.database import FrostStore

    with FrostStore(args.store) as store:
        names = [args.name] if args.name else store.stream_names()
        if not names:
            print("no streams stored")
            return 0
        for name in names:
            lineage = store.stream_snapshot_lineage(name)
            if not lineage:
                print(f"{name}: empty (no batches ingested)")
                continue
            latest = lineage[-1]
            print(
                f"{name}: v{latest['version']}, "
                f"{latest['record_count']} records, "
                f"{latest['cluster_count']} clusters, "
                f"{latest['pair_count']} intra-cluster pairs"
            )
            if args.name:
                for snapshot in lineage:
                    print(
                        f"  v{snapshot['version']}: "
                        f"records={snapshot['record_count']} "
                        f"delta_candidates={snapshot['delta_candidates']} "
                        f"accepted={snapshot['accepted_matches']} "
                        f"clusters={snapshot['cluster_count']}"
                    )
    return 0


def _command_serve(args: argparse.Namespace, fmt: CsvFormat) -> int:
    from repro.engine.runner import ExperimentEngine
    from repro.server.api import FrostApi
    from repro.server.http import serve
    from repro.serving import ServingLayer, platform_from_store
    from repro.storage.database import FrostStore

    logger = logging.getLogger("repro.serve")

    def announce(message: str) -> None:
        # The port line is machine-read contract output and stays on
        # stdout; everything else the server says goes through logging.
        # Flushed eagerly: integration tests read the bound port from a
        # pipe before the first request, and the process blocks next.
        print(message, flush=True)

    # serve is a read surface: opening a mistyped path would silently
    # create and serve a brand-new empty database.
    if not Path(args.store).exists():
        raise ValueError(f"store {args.store!r} does not exist")
    with FrostStore(args.store) as store:
        platform = platform_from_store(store)
        engine = ExperimentEngine(
            platform, store=store, max_workers=args.workers
        )
        serving = ServingLayer(platform, max_entries=args.cache_size)
        api = FrostApi(platform, engine=engine, store=store, serving=serving)
        logger.info(
            "serving %d dataset(s) from %s (workers=%d, cache_size=%d)",
            len(platform.dataset_names()),
            args.store,
            args.workers,
            args.cache_size,
        )
        serve(api, host=args.host, port=args.port, announce=announce)
        logger.info("shut down cleanly")
    return 0


def _command_trace(args: argparse.Namespace, fmt: CsvFormat) -> int:
    from repro.core.platform import FrostPlatform
    from repro.engine.jobs import JobSpec
    from repro.engine.runner import ExperimentEngine
    from repro.streaming import build_pipeline_and_index
    from repro.telemetry import (
        get_metrics,
        get_tracer,
        maybe_profile,
        render_prometheus,
        render_span_tree,
        write_metrics_json,
        write_spans_jsonl,
    )
    from repro.telemetry.profile import DEFAULT_INTERVAL_SECONDS

    if (args.generate is None) == (args.dataset is None):
        raise ValueError("trace needs exactly one of --generate N or --dataset")

    tracer = get_tracer()
    registry = get_metrics()
    tracer.reset()
    registry.reset()
    tracer.enable()
    profiler = maybe_profile(
        args.profile,
        interval=args.profile_interval or DEFAULT_INTERVAL_SECONDS,
    )
    try:
        platform = FrostPlatform()
        if args.generate is not None:
            from repro.datagen import make_person_benchmark

            benchmark = make_person_benchmark(args.generate, seed=args.seed)
            dataset, gold = benchmark.dataset, benchmark.gold
        else:
            dataset = _load_dataset(args.dataset, args.id_column, fmt)
            gold = (
                _load_gold(args.gold, args.gold_format, fmt)
                if args.gold
                else None
            )
        platform.add_dataset(dataset)
        if gold is not None:
            platform.add_gold(dataset.name, gold)

        similarities: dict[str, str] = {}
        for entry in args.similarity or []:
            attribute, separator, measure = entry.partition("=")
            if not separator or not attribute or not measure:
                raise ValueError(
                    f"--similarity must be ATTR=MEASURE, got {entry!r}"
                )
            similarities[attribute] = measure
        if not similarities:
            # the attributes of the generated person benchmark
            similarities = {
                "first_name": "jaro_winkler",
                "last_name": "jaro_winkler",
                "city": "jaro_winkler",
            }
        trace_config: dict[str, object] = {
            "key": {"kind": args.key_kind, "attribute": args.key_attribute},
            "similarities": similarities,
            "threshold": args.threshold,
        }
        if args.blocking_storage:
            trace_config["blocking_storage"] = args.blocking_storage
        pipeline, _ = build_pipeline_and_index(trace_config)

        engine = ExperimentEngine(platform, max_workers=2)
        with tracer.span(
            "trace.run", dataset=dataset.name, records=len(dataset)
        ), profiler:
            # Chained, not fanned out: each re-run starts after the
            # previous one finished, so it is a genuine cache hit
            # instead of a concurrent duplicate computation.
            pipeline_ids: list[str] = []
            for index in range(max(1, args.repeat)):
                pipeline_ids.append(engine.submit(JobSpec(
                    "pipeline",
                    {
                        "pipeline": pipeline,
                        "dataset": dataset.name,
                        "register_as": "traced",
                    },
                    job_id=f"trace:pipeline#{index}",
                    depends_on=tuple(pipeline_ids[-1:]),
                )))
            if gold is not None:
                engine.submit(JobSpec(
                    "metrics",
                    {
                        "dataset": dataset.name,
                        "gold": gold.name,
                        "experiments": ["traced"],
                    },
                    job_id="trace:metrics",
                    depends_on=(pipeline_ids[0],),
                ))
            results = engine.run()
    finally:
        tracer.disable()

    failures = 0
    for job_id, result in results.items():
        if result.state.value != "succeeded":
            failures += 1
            print(f"{job_id}: {result.state.value} ({result.error})")
    for root in tracer.roots():
        print(render_span_tree(root))
    print()
    print(render_prometheus(registry), end="")
    if args.profile:
        samples = profiler.samples()
        print()
        print(
            f"profile: {sum(samples.values())} samples across "
            f"{len(samples)} distinct stacks"
        )
        for stack, count in list(samples.items())[:10]:
            leaf = stack.rsplit(";", 1)[-1]
            print(f"  {count:6d}  {leaf}  ({stack.count(';') + 1} frames)")
    if args.store:
        from repro.telemetry.store import TelemetryStore

        with TelemetryStore(args.store) as warehouse:
            run_id = warehouse.record_run(
                args.run_name,
                tracer.roots(),
                registry,
                profile_samples=profiler.samples() or None,
                context={
                    "dataset": dataset.name,
                    "records": len(dataset),
                    "repeat": args.repeat,
                },
            )
        print()
        print(f"run {run_id} recorded in {args.store}")
    if args.output:
        output = Path(args.output)
        output.mkdir(parents=True, exist_ok=True)
        write_spans_jsonl(output / "spans.jsonl", tracer.roots())
        write_metrics_json(output / "metrics.json", registry)
        logging.getLogger("repro.trace").info(
            "telemetry written to %s", output
        )
    return 1 if failures else 0


def _command_stream(args: argparse.Namespace, fmt: CsvFormat) -> int:
    handlers = {
        "init": _command_stream_init,
        "ingest": _command_stream_ingest,
        "snapshot": _command_stream_snapshot,
        "status": _command_stream_status,
    }
    return handlers[args.stream_command](args, fmt)


def _command_graph_build(args: argparse.Namespace, fmt: CsvFormat) -> int:
    from repro.graph import build_graph_from_experiment
    from repro.storage.database import FrostStore

    with FrostStore(args.store) as store:
        dataset = store.load_dataset(args.dataset)
        experiment = store.load_experiment(args.dataset, args.experiment)
        graph = build_graph_from_experiment(
            store, args.name, dataset, experiment, threshold=args.threshold
        )
        summary = graph.summary()
        print(
            f"graph {args.name!r} built from {args.experiment!r}: "
            f"{summary['node_count']} nodes, {summary['edge_count']} edges, "
            f"{summary['cluster_count']} clusters "
            f"(threshold {summary['threshold']:g})"
        )
    return 0


def _format_edge(edge: dict) -> str:
    mark = "=" if edge["accepted"] else "~"
    return f"{edge['first']} {mark}[{edge['score']:.3f}]{mark} {edge['second']}"


def _command_graph_neighbors(args: argparse.Namespace, fmt: CsvFormat) -> int:
    from repro.graph import load_graph
    from repro.storage.database import FrostStore

    with FrostStore(args.store) as store:
        graph = load_graph(store, args.name)
        result = graph.neighbors(args.record, k=args.k, threshold=args.threshold)
    print(
        f"{result['record']}: {len(result['neighbors']) - 1} records "
        f"within {result['k']} hops"
    )
    for row in result["neighbors"]:
        print(f"  hop {row['hops']}: {row['record']}")
    for edge in result["edges"]:
        print(f"  {_format_edge(edge)}")
    return 0


def _command_graph_path(args: argparse.Namespace, fmt: CsvFormat) -> int:
    from repro.graph import load_graph
    from repro.storage.database import FrostStore

    with FrostStore(args.store) as store:
        graph = load_graph(store, args.name)
        result = graph.path(
            args.from_record, args.to_record, threshold=args.threshold
        )
    if not result["found"]:
        print(
            f"no path from {args.from_record!r} to {args.to_record!r} "
            "(different components)"
        )
        return 1
    print(" -> ".join(result["path"]))
    for edge in result["edges"]:
        print(f"  {_format_edge(edge)}")
    return 0


def _command_graph_component(args: argparse.Namespace, fmt: CsvFormat) -> int:
    from repro.graph import load_graph
    from repro.storage.database import FrostStore

    with FrostStore(args.store) as store:
        graph = load_graph(store, args.name)
        result = graph.component_of(args.record)
    bounds = (
        f", scores {result['min_score']:.3f}..{result['max_score']:.3f}"
        if result["min_score"] is not None
        else ""
    )
    print(
        f"component of {args.record!r}: {result['size']} records, "
        f"{result['edge_count']} edges, density {result['density']:.2f}"
        f"{bounds}"
    )
    print("  " + " ".join(result["records"]))
    return 0


def _command_graph_explain(args: argparse.Namespace, fmt: CsvFormat) -> int:
    from repro.graph import load_graph
    from repro.storage.database import FrostStore

    with FrostStore(args.store) as store:
        graph = load_graph(store, args.name)
        result = graph.evidence_path(args.from_record, args.to_record)
    if not result["found"]:
        print(
            f"{args.from_record!r} and {args.to_record!r} are not in "
            "the same cluster"
        )
        return 1
    print(
        " -> ".join(result["path"])
        + (
            f"  (weakest link {result['bottleneck']:.3f})"
            if result["bottleneck"] is not None
            else ""
        )
    )
    for edge in result["edges"]:
        print(f"  {_format_edge(edge)}")
        for attribute, value in sorted((edge.get("evidence") or {}).items()):
            rendered = "null" if value is None else f"{value:.3f}"
            print(f"      {attribute}: {rendered}")
    return 0


def _command_graph(args: argparse.Namespace, fmt: CsvFormat) -> int:
    handlers = {
        "build": _command_graph_build,
        "neighbors": _command_graph_neighbors,
        "path": _command_graph_path,
        "component": _command_graph_component,
        "explain": _command_graph_explain,
    }
    return handlers[args.graph_command](args, fmt)


def _format_ms(seconds: float | None) -> str:
    return "?" if seconds is None else f"{seconds * 1000:.2f}ms"


def _command_telemetry_list(args: argparse.Namespace, warehouse) -> int:
    runs = warehouse.list_runs()
    if not runs:
        print("no runs recorded")
        return 0
    for run in runs:
        profiled = (
            f", {run['profile_samples']} profile samples"
            if run["profile_samples"]
            else ""
        )
        print(
            f"run {run['run_id']}: {run['name']}, {run['spans']} spans, "
            f"{_format_ms(run['wall_seconds'])}{profiled}"
        )
    return 0


def _command_telemetry_show(args: argparse.Namespace, warehouse) -> int:
    from repro.telemetry import render_span_tree

    run_id = warehouse.resolve_run(args.run)
    print(f"run {run_id}")
    for root in warehouse.run_spans(run_id):
        print(render_span_tree(root))
    metrics = warehouse.run_metrics(run_id)
    if metrics:
        print()
        for name, snapshot in metrics.items():
            print(f"{name}: {snapshot}")
    profile = warehouse.run_profile(run_id)
    if profile:
        print()
        print(
            f"profile: {sum(profile.values())} samples across "
            f"{len(profile)} distinct stacks"
        )
        for stack, count in list(profile.items())[:10]:
            print(f"  {count:6d}  {stack.rsplit(';', 1)[-1]}")
    return 0


def _command_telemetry_slowest(args: argparse.Namespace, warehouse) -> int:
    rows = warehouse.slowest_spans(run=args.run, limit=args.limit)
    if not rows:
        print("no spans recorded")
        return 0
    for row in rows:
        print(
            f"run {row['run_id']} ({row['run_name']}): {row['name']}  "
            f"{_format_ms(row['seconds'])}"
        )
    return 0


def _command_telemetry_diff(args: argparse.Namespace, warehouse) -> int:
    run_a = warehouse.resolve_run(args.run_a)
    run_b = warehouse.resolve_run(args.run_b)
    print(f"run {run_a} -> run {run_b} (per-stage wall time)")
    for row in warehouse.diff_runs(run_a, run_b):
        if row["delta_seconds"] is None:
            side = "only in A" if row["seconds_a"] is not None else "only in B"
            seconds = (
                row["seconds_a"]
                if row["seconds_a"] is not None
                else row["seconds_b"]
            )
            print(f"  {row['stage']}: {side} ({_format_ms(seconds)})")
            continue
        sign = "+" if row["delta_seconds"] >= 0 else "-"
        ratio = (
            f" ({row['ratio']:.2f}x)" if row["ratio"] is not None else ""
        )
        print(
            f"  {row['stage']}: {_format_ms(row['seconds_a'])} -> "
            f"{_format_ms(row['seconds_b'])}  "
            f"{sign}{_format_ms(abs(row['delta_seconds']))}{ratio}"
        )
    return 0


def _command_telemetry_prune(args: argparse.Namespace, warehouse) -> int:
    if args.keep is None and args.older_than is None:
        raise ValueError("prune needs --keep and/or --older-than")
    deleted = warehouse.prune(
        keep=args.keep, older_than_seconds=args.older_than
    )
    print(f"pruned {deleted} run(s), {len(warehouse.list_runs())} kept")
    return 0


def _command_telemetry(args: argparse.Namespace, fmt: CsvFormat) -> int:
    from repro.telemetry.store import TelemetryError, TelemetryStore

    handlers = {
        "list": _command_telemetry_list,
        "show": _command_telemetry_show,
        "slowest": _command_telemetry_slowest,
        "diff": _command_telemetry_diff,
        "prune": _command_telemetry_prune,
    }
    # A warehouse query against a mistyped path must not silently
    # create and inspect a brand-new empty database.
    if not Path(args.store).exists():
        raise ValueError(f"telemetry store {args.store!r} does not exist")
    try:
        with TelemetryStore(args.store) as warehouse:
            return handlers[args.telemetry_command](args, warehouse)
    except TelemetryError as error:
        raise ValueError(str(error)) from None


_COMMANDS = {
    "metrics": _command_metrics,
    "diagram": _command_diagram,
    "venn": _command_venn,
    "profile": _command_profile,
    "categorize": _command_categorize,
    "engine": _command_engine,
    "stream": _command_stream,
    "graph": _command_graph,
    "serve": _command_serve,
    "trace": _command_trace,
    "telemetry": _command_telemetry,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    from repro.engine.runner import EngineError
    from repro.storage.database import StorageError
    from repro.streaming import StreamError

    parser = build_parser()
    args = parser.parse_args(argv)
    # force=True: each CLI invocation (tests call main() repeatedly in
    # one process) re-binds the handler to the *current* stderr.
    if args.log_format == "json":
        from repro.telemetry.logging import configure_structured_logging

        configure_structured_logging(
            level=getattr(logging, args.log_level.upper()), stream=sys.stderr
        )
    else:
        logging.basicConfig(
            level=getattr(logging, args.log_level.upper()),
            stream=sys.stderr,
            format="%(levelname)s %(name)s: %(message)s",
            force=True,
        )
    fmt = CsvFormat(separator=args.separator)
    try:
        return _COMMANDS[args.command](args, fmt)
    except (
        OSError, ValueError, KeyError, EngineError, StorageError, StreamError
    ) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
