"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main

DATASET = """id,name,city
r1,john smith,springfield
r2,jon smith,springfield
r3,mary jones,riverside
r4,mary jones,riverside
r5,alice brown,salem
"""

GOLD_PAIRS = """p1,p2
r1,r2
r3,r4
"""

GOLD_CLUSTERS = """id,cluster
r1,c1
r2,c1
r3,c2
r4,c2
r5,c3
"""

EXPERIMENT = """p1,p2,score
r1,r2,0.95
r3,r4,0.85
r1,r5,0.55
"""


@pytest.fixture
def files(tmp_path):
    (tmp_path / "d.csv").write_text(DATASET)
    (tmp_path / "g.csv").write_text(GOLD_PAIRS)
    (tmp_path / "gc.csv").write_text(GOLD_CLUSTERS)
    (tmp_path / "e.csv").write_text(EXPERIMENT)
    return tmp_path


def run(capsys, *argv):
    code = main([str(part) for part in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--store", "x.db"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.workers == 4
        assert args.cache_size == 1024

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--store", "x.db", "--port", "0",
             "--workers", "8", "--cache-size", "64"]
        )
        assert args.port == 0
        assert args.workers == 8
        assert args.cache_size == 64

    def test_serve_requires_store(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["stream", "init", "--store", "x.db", "--name", "crm",
             "--key-attribute", "last", "--similarity", "last=exact"],
            ["stream", "ingest", "--store", "x.db", "--name", "crm",
             "--dataset", "d.csv"],
            ["trace", "--generate", "100"],
        ],
        ids=["stream-init", "stream-ingest", "trace"],
    )
    def test_retired_sharding_flags_rejected(self, argv, capsys):
        """Comparison runs one way, so the sharding flags are gone; a
        script still passing them fails loudly."""
        build_parser().parse_args(argv)
        for flag in (["--workers", "2"], ["--shards", "4"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv + flag)
            assert "unrecognized arguments" in capsys.readouterr().err


class TestMetrics:
    def test_default_metrics(self, files, capsys):
        code, out, _ = run(
            capsys,
            "metrics",
            "--dataset", files / "d.csv",
            "--gold", files / "g.csv",
            "--experiment", files / "e.csv",
        )
        assert code == 0
        assert "precision" in out
        # 2 TP, 1 FP, 0 FN -> precision 2/3, recall 1
        assert "0.6667" in out
        assert "1.0000" in out

    def test_cluster_format_gold(self, files, capsys):
        code, out, _ = run(
            capsys,
            "metrics",
            "--dataset", files / "d.csv",
            "--gold", files / "gc.csv",
            "--gold-format", "clusters",
            "--experiment", files / "e.csv",
        )
        assert code == 0
        assert "0.6667" in out

    def test_custom_metric_selection(self, files, capsys):
        code, out, _ = run(
            capsys,
            "metrics",
            "--dataset", files / "d.csv",
            "--gold", files / "g.csv",
            "--experiment", files / "e.csv",
            "--metric", "matthews_correlation",
        )
        assert code == 0
        assert "matthews_correlation" in out

    def test_unknown_metric_fails_cleanly(self, files, capsys):
        code, _, err = run(
            capsys,
            "metrics",
            "--dataset", files / "d.csv",
            "--gold", files / "g.csv",
            "--experiment", files / "e.csv",
            "--metric", "nonsense",
        )
        assert code == 1
        assert "error:" in err

    def test_missing_file_fails_cleanly(self, files, capsys):
        code, _, err = run(
            capsys,
            "metrics",
            "--dataset", files / "missing.csv",
            "--gold", files / "g.csv",
            "--experiment", files / "e.csv",
        )
        assert code == 1
        assert "error:" in err


class TestDiagram:
    def test_prints_threshold_rows(self, files, capsys):
        code, out, _ = run(
            capsys,
            "diagram",
            "--dataset", files / "d.csv",
            "--gold", files / "g.csv",
            "--experiment", files / "e.csv",
            "--samples", "4",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("threshold")
        assert len(lines) == 5  # header + 4 samples
        assert lines[1].startswith("inf")


class TestVenn:
    def test_region_sizes(self, files, capsys):
        code, out, _ = run(
            capsys,
            "venn",
            "--dataset", files / "d.csv",
            "--gold", files / "g.csv",
            "--experiment", files / "e.csv",
        )
        assert code == 0
        assert "gold ∩ e: 2" in out
        assert "e \\ gold: 1" in out


class TestProfile:
    def test_single_dataset(self, files, capsys):
        code, out, _ = run(capsys, "profile", "--dataset", files / "d.csv")
        assert code == 0
        assert "records=5" in out

    def test_two_datasets_report_vocabulary(self, files, capsys):
        code, out, _ = run(
            capsys,
            "profile",
            "--dataset", files / "d.csv",
            "--dataset", files / "d.csv",
        )
        assert code == 0
        assert "vocabulary similarity: 1.000" in out


class TestCategorize:
    def test_report_printed(self, files, capsys):
        code, out, _ = run(
            capsys,
            "categorize",
            "--dataset", files / "d.csv",
            "--gold", files / "g.csv",
            "--experiment", files / "e.csv",
        )
        assert code == 0
        assert "Error categorization" in out

    def test_separator_option(self, tmp_path, capsys):
        (tmp_path / "d.csv").write_text("id;name\nr1;a\nr2;b\n")
        (tmp_path / "g.csv").write_text("p1;p2\nr1;r2\n")
        (tmp_path / "e.csv").write_text("p1;p2;score\nr1;r2;0.9\n")
        code, out, _ = run(
            capsys,
            "--separator", ";",
            "metrics",
            "--dataset", tmp_path / "d.csv",
            "--gold", tmp_path / "g.csv",
            "--experiment", tmp_path / "e.csv",
        )
        assert code == 0
        assert "1.0000" in out


class TestEngine:
    def test_run_repeat_serves_from_cache(self, files, capsys):
        code, out, _ = run(
            capsys,
            "engine", "run",
            "--dataset", files / "d.csv",
            "--gold", files / "g.csv",
            "--experiment", files / "e.csv",
            "--repeat", "2",
        )
        assert code == 0
        assert "[computed]" in out
        assert "[cached]" in out
        assert "1 computed, 1 cached" in out

    def test_run_diagram_job(self, files, capsys):
        code, out, _ = run(
            capsys,
            "engine", "run",
            "--dataset", files / "d.csv",
            "--gold", files / "g.csv",
            "--experiment", files / "e.csv",
            "--job", "diagram",
            "--samples", "4",
        )
        assert code == 0
        assert "4 diagram points" in out

    def test_sweep_prints_threshold_table(self, files, capsys):
        code, out, _ = run(
            capsys,
            "engine", "sweep",
            "--dataset", files / "d.csv",
            "--gold", files / "g.csv",
            "--experiment", files / "e.csv",
            "--thresholds", "0.5:0.9:3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("threshold")
        assert any(line.startswith("0.5000") for line in lines)
        assert any(line.startswith("0.9000") for line in lines)

    def test_store_persists_cache_between_invocations(self, files, capsys):
        store = files / "cache.db"
        argv = [
            "engine", "run",
            "--dataset", files / "d.csv",
            "--gold", files / "g.csv",
            "--experiment", files / "e.csv",
            "--store", store,
        ]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "[computed]" in out
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "[cached]" in out
        code, out, _ = run(capsys, "engine", "status", "--store", store)
        assert code == 0
        assert "cached results: 1" in out
        assert "metrics: 1" in out

    def test_degenerate_threshold_grid_deduplicates(self, files, capsys):
        code, out, _ = run(
            capsys,
            "engine", "sweep",
            "--dataset", files / "d.csv",
            "--gold", files / "g.csv",
            "--experiment", files / "e.csv",
            "--thresholds", "0.7:0.7:3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert sum(line.startswith("0.7000") for line in lines) == 1

    def test_bad_threshold_grid_fails_cleanly(self, files, capsys):
        code, _, err = run(
            capsys,
            "engine", "sweep",
            "--dataset", files / "d.csv",
            "--gold", files / "g.csv",
            "--experiment", files / "e.csv",
            "--thresholds", "nope",
        )
        assert code == 1
        assert "error:" in err


class TestTrace:
    def test_traced_run_prints_span_tree_and_metrics(self, capsys):
        code, out, _ = run(
            capsys,
            "trace", "--generate", "150", "--repeat", "2",
        )
        assert code == 0
        # the span tree covers submission, engine jobs, every pipeline
        # stage, and the columnar comparison kernels
        for name in (
            "trace.run",
            "engine.job",
            "pipeline.run",
            "pipeline.candidates",
            "pipeline.similarity",
            "comparison.columnar",
            "pipeline.clustering",
        ):
            assert name in out, f"span {name!r} missing from trace output"
        # the chained re-run is served from the engine cache, visible
        # both as a span annotation and as a registry counter
        assert "cached=True" in out
        assert "frost_engine_cache_hits_total 1" in out
        assert "# TYPE frost_engine_cache_hits_total counter" in out

    def test_columnar_comparison_nests_under_similarity(self, capsys):
        """The kernels' span sits directly under pipeline.similarity and
        covers every scored vector."""
        code, out, _ = run(capsys, "trace", "--generate", "150", "--repeat", "1")
        assert code == 0
        lines = out.splitlines()
        (index,) = [
            i for i, line in enumerate(lines) if "pipeline.similarity" in line
        ]
        similarity, columnar = lines[index], lines[index + 1]
        assert "comparison.columnar" in columnar
        assert columnar.index("comparison.columnar") > similarity.index(
            "pipeline.similarity"
        )
        vectors = re.search(r"vectors=(\d+)", similarity).group(1)
        assert f"pairs={vectors} " in columnar
        assert "comparison.serial" not in out

    def test_traced_csv_run_with_gold_metrics_job(self, files, capsys):
        code, out, _ = run(
            capsys,
            "trace",
            "--dataset", files / "d.csv",
            "--gold", files / "g.csv",
            "--similarity", "name=jaro_winkler",
            "--key-attribute", "name",
            "--repeat", "1",
        )
        assert code == 0
        assert "trace.run" in out
        assert "engine.job" in out
        assert "job=trace:metrics" in out

    def test_output_directory_receives_spans_and_metrics(self, tmp_path, capsys):
        import json

        code, out, _ = run(
            capsys,
            "trace", "--generate", "80", "--repeat", "1",
            "--output", tmp_path / "telemetry",
        )
        assert code == 0
        spans = [
            json.loads(line)
            for line in (tmp_path / "telemetry" / "spans.jsonl")
            .read_text().splitlines()
        ]
        assert any(row["name"] == "pipeline.run" for row in spans)
        metrics = json.loads(
            (tmp_path / "telemetry" / "metrics.json").read_text()
        )
        assert metrics["frost_blocking_candidates_total"]["value"] > 0

    def test_trace_leaves_the_tracer_disabled(self, capsys):
        from repro.telemetry import get_tracer

        code, _, _ = run(capsys, "trace", "--generate", "60", "--repeat", "1")
        assert code == 0
        assert get_tracer().enabled is False

    def test_generate_and_dataset_are_mutually_exclusive(self, files, capsys):
        code, _, err = run(
            capsys, "trace", "--generate", "50", "--dataset", files / "d.csv"
        )
        assert code == 1
        assert "error:" in err
        code, _, err = run(capsys, "trace")
        assert code == 1
        assert "error:" in err


class TestTelemetryWarehouse:
    @pytest.fixture
    def warehouse_db(self, tmp_path, capsys):
        """A warehouse holding two traced, profiled runs."""
        db = tmp_path / "warehouse.db"
        for name in ("baseline", "candidate"):
            code, out, _ = run(
                capsys,
                "trace", "--generate", "80", "--repeat", "1",
                "--profile", "--store", db, "--run-name", name,
            )
            assert code == 0
            assert f"recorded in {db}" in out
        return db

    def test_trace_store_records_and_list_shows_runs(
        self, warehouse_db, capsys
    ):
        code, out, _ = run(capsys, "telemetry", "list", "--store", warehouse_db)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        # newest first, with span counts and profiler attribution
        assert "candidate" in lines[0]
        assert "baseline" in lines[1]
        assert "spans" in lines[0]

    def test_show_renders_tree_metrics_and_profile(self, warehouse_db, capsys):
        code, out, _ = run(
            capsys, "telemetry", "show", "--store", warehouse_db, "baseline"
        )
        assert code == 0
        assert "trace.run" in out
        assert "pipeline.run" in out
        assert "frost_blocking_candidates_total" in out

    def test_slowest_spans_globally_and_scoped(self, warehouse_db, capsys):
        code, out, _ = run(
            capsys, "telemetry", "slowest", "--store", warehouse_db,
            "--limit", "3",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 3
        assert "ms" in out
        code, out, _ = run(
            capsys, "telemetry", "slowest", "--store", warehouse_db,
            "--run", "candidate", "--limit", "2",
        )
        assert code == 0
        assert all("(candidate)" in line for line in out.strip().splitlines())

    def test_diff_reports_per_stage_deltas(self, warehouse_db, capsys):
        code, out, _ = run(
            capsys, "telemetry", "diff", "--store", warehouse_db,
            "baseline", "candidate",
        )
        assert code == 0
        assert "per-stage wall time" in out
        assert "pipeline.similarity" in out
        assert "->" in out

    def test_diff_against_itself_is_clean(self, warehouse_db, capsys):
        code, out, _ = run(
            capsys, "telemetry", "diff", "--store", warehouse_db,
            "baseline", "baseline",
        )
        assert code == 0
        assert "only in" not in out

    def test_prune_keeps_newest(self, warehouse_db, capsys):
        code, out, _ = run(
            capsys, "telemetry", "prune", "--store", warehouse_db,
            "--keep", "1",
        )
        assert code == 0
        assert "pruned 1 run(s), 1 kept" in out
        code, out, _ = run(capsys, "telemetry", "list", "--store", warehouse_db)
        assert code == 0
        assert "candidate" in out
        assert "baseline" not in out

    def test_prune_requires_a_policy(self, warehouse_db, capsys):
        code, _, err = run(
            capsys, "telemetry", "prune", "--store", warehouse_db
        )
        assert code == 1
        assert "--keep and/or --older-than" in err

    def test_missing_store_fails_cleanly(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "telemetry", "list", "--store", tmp_path / "ghost.db"
        )
        assert code == 1
        assert "does not exist" in err

    def test_unknown_run_fails_cleanly(self, warehouse_db, capsys):
        code, _, err = run(
            capsys, "telemetry", "show", "--store", warehouse_db, "ghost"
        )
        assert code == 1
        assert "no telemetry run" in err
