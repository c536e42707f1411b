"""Smoke test of the benchmark itself, at the tiny "smoke" scale.

Run from the repository root::

    python3 -m pytest -q frostbench/smoke.py

The file name keeps it out of the default test collection: it starts
about twenty child processes and takes roughly half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
# The layers each workload exercises: their metrics must be measured (> 0).
OWN_LAYERS = {
    "batch-match": (
        "matching.prepare_s", "matching.block_s", "matching.candidates",
        "matching.compare_s", "matching.compare_pairs_per_s", "matching.decide_s",
        "matching.cluster_s", "matching.matches", "metrics.evaluate_s",
        "engine.serialize_s", "storage.cache_put_s", "engine.key_s",
        "storage.cache_get_s", "engine.deserialize_s", "unattributed_s",
    ),
    "stream-ingest": (
        "streaming.ingest_s", "matching.prepare_s", "blocking_disk.delta_s",
        "streaming.delta_candidates", "matching.compare_s", "matching.decide_s",
        "storage.append_s", "graph.apply_s", "graph.edges",
        "storage.bytes_per_record", "unattributed_s",
    ),
    "explore-serve": (
        "metrics.table_s", "core.diagram_s", "core.timeline_s",
        "exploration.categorize_s", "exploration.intersection_s", "graph.load_s",
        "graph.query_s", "streaming.batch_post_s", "serving.hit_ratio",
        "serving.computations", "server.hit_p50_ms", "unattributed_s",
    ),
}


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 1):
    return subprocess.run(
        [sys.executable, "frostbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_every_metric_printed_and_every_check_passes(workload, trace):
    completed = _run(workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, completed.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], float)
    measured = OWN_LAYERS[workload] if trace else [e["name"] for e in declared]
    for name in measured:
        assert result["metrics"][name]["value"] > 0, name


def test_other_seed_passes_checks():
    completed = _run("batch-match", 0, seed=2)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "frostbench", tmp_path / "frostbench",
        ignore=shutil.ignore_patterns("_work", "__pycache__"),
    )
    completed = _run("batch-match", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
