"""Run one workload of the end-to-end Frost benchmark and print its metrics.

Usage, from the repository root::

    python3 frostbench/run.py --workload batch-match --seed 1 --seconds 20 --trace 0

Every measured repetition runs in a fresh child process
(``python3 -m frostbench.child``), because the comparison kernels'
``lru_cache`` memos and the engine's fingerprint memo would otherwise
make every repetition after the first a warm one.  Repetitions start
until ``--seconds`` have passed.  With ``--trace 0`` the last line of
standard output is a JSON object with every end-to-end metric named in
``BENCHMARK.json``; with ``--trace 1`` it has every per-layer metric,
medians over traced repetitions that alternate with untraced ones (the
ratio of their walls is the tracing overhead).  Layers a workload does not
exercise read 0.  Lines before the JSON are a human-readable report.

The exit code is non-zero, and no result is printed, when a repetition
crashes or the program under test (``src/repro``) is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from frostbench.common import SCALES, digest  # noqa: E402

WORKLOADS = ("batch-match", "stream-ingest", "explore-serve")
DEFAULT_SEED = 1
DIGESTS = Path(__file__).resolve().parent / "digests.json"
# Every child must finish before the run's 180 s limit.
DEADLINE_S = 170.0
MIN_REPETITIONS = 3
# What one operation is, per workload, in the report.
OPERATION = {
    "batch-match": "store-tier re-run of the pipeline and metrics jobs",
    "stream-ingest": "batch ingest",
    "explore-serve": "HTTP request",
}
UNATTRIBUTED_FLAG = 0.10
TRACE_PAIRS = 2


class ChildFailed(RuntimeError):
    """A repetition exited non-zero or printed no result."""


class Runner:
    """Starts the child processes of one benchmark run."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.started = time.perf_counter()
        self.workdir = ROOT / "frostbench" / "_work" / f"{args.workload}-{os.getpid()}"
        self.count = 0

    def child(self, mode: str) -> dict:
        self.count += 1
        workdir = self.workdir / f"{self.count}-{mode}"
        workdir.mkdir(parents=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        # Disk blocking's scratch databases go to TMPDIR: keep them in
        # the checkout.  A fixed hash seed removes one source of
        # run-to-run variation (outputs do not depend on it).
        env["TMPDIR"] = str(workdir)
        env["PYTHONHASHSEED"] = "0"
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise ChildFailed("out of time before the repetition started")
        command = [
            sys.executable, "-m", "frostbench.child",
            "--workload", self.args.workload, "--mode", mode,
            "--seed", str(self.args.seed), "--scale", self.args.scale,
            "--workdir", str(workdir),
        ]
        try:
            completed = subprocess.run(
                command, cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{mode} repetition timed out") from None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            sys.stderr.write(completed.stderr)
            raise ChildFailed(
                f"{mode} repetition exited with code {completed.returncode}"
            )
        return json.loads(lines[-1])

    def repetitions(self, mode: str) -> list[dict]:
        """Fresh-process repetitions filling ``--seconds``.

        Another repetition starts while it is expected (from the median
        duration so far) to end within ``--seconds``; at least
        ``MIN_REPETITIONS`` run.
        """
        results = []
        durations = []
        measured_from = time.perf_counter()
        while len(results) < MIN_REPETITIONS or (
            time.perf_counter() - measured_from + statistics.median(durations)
            <= self.args.seconds
        ):
            started = time.perf_counter()
            results.append(self.child(mode))
            durations.append(time.perf_counter() - started)
        return results

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still used by a concurrent run
            self.workdir.parent.rmdir()


class Checks:
    """Operations attempted and failed, with the names of failed checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def operations(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, passed: bool) -> None:
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.failures.append(name)

    def child_checks(self, result: dict) -> None:
        self.operations(result["ops"], result["ops_failed"])
        for name, passed in result["checks"].items():
            self.check(name, passed)


def _digest_checks(
    checks: Checks, args: argparse.Namespace, digests: list[str]
) -> str:
    """Check that repetitions agree, and the recorded digest on the default seed."""
    checks.check("repetitions produce the same output", len(set(digests)) == 1)
    if args.seed == DEFAULT_SEED:
        recorded = json.loads(DIGESTS.read_text())[args.scale][args.workload]
        checks.check("output matches the recorded digest", digests[0] == recorded)
    return f"output digest {digests[0]}"


def _percentile(values: list[float], percent: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def _explore_responses(checks: Checks, results: list[dict], replay: dict) -> None:
    """Count each HTTP request that is missing, not 200, or not byte-identical
    to the single-threaded replay's response as a failed operation."""
    expected = replay["responses"]
    checks.check(
        "replay answers every request with 200",
        all(status == 200 for client in expected for status, _ in client),
    )
    for result in results:
        answered = sum(len(client) for client in result["responses"])
        wrong = sum(
            got != want or got[0] != 200
            for client, want_client in zip(result["responses"], expected)
            for got, want in zip(client, want_client)
        )
        checks.operations(result["ops"], result["ops"] - answered + wrong)
        if wrong:
            checks.failures.append(
                f"{wrong} responses are not 200 or differ from the replay"
            )


def measure(runner: Runner, args: argparse.Namespace, checks: Checks):
    """The untraced run: end-to-end metrics over fresh-process repetitions."""
    results = runner.repetitions("measure")
    if args.workload == "explore-serve":
        replay = runner.child("replay")
        _explore_responses(checks, results, replay)
        digests = [_response_digest(replay)]
    else:
        for result in results:
            checks.child_checks(result)
        digests = [result["digest"] for result in results]
    digest_line = _digest_checks(checks, args, digests)

    operations = [latency for result in results for latency in result["ops_ms"]]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
        "work_s": statistics.median(r["work_s"] for r in results),
        "op_p50_ms": _percentile(operations, 50),
        "op_p90_ms": _percentile(operations, 90),
    }
    throughput = statistics.median(r["units"] / r["work_s"] for r in results)
    report = [
        f"{len(results)} fresh-process repetitions; one operation = "
        f"{OPERATION[args.workload]}; {len(operations)} operation samples",
    ]
    if args.workload == "batch-match":
        info = results[0]["info"]
        report += [
            f"match_s = {metrics['work_s']:.4f} s  (cold pipeline + metrics job)",
            f"rerun_p50_ms = {metrics['op_p50_ms']:.3f} ms, rerun_p90_ms = "
            f"{metrics['op_p90_ms']:.3f} ms  ({len(operations)} re-runs)",
            f"input: {info['records']} records, {info['matches']} matches, "
            f"F1 {info['f1']:.4f}, largest closure component {info['largest_component']}",
        ]
    elif args.workload == "stream-ingest":
        info = results[0]["info"]
        report += [
            f"ingest_records_per_s = {throughput:.1f} 1/s",
            f"batch_p50_ms = {metrics['op_p50_ms']:.3f} ms, batch_p90_ms = "
            f"{metrics['op_p90_ms']:.3f} ms  ({len(operations)} batches)",
            f"input: {info['records']} records in {info['batches']} batches, "
            f"{info['delta_candidates']} delta candidates, "
            f"largest closure component {info['largest_component']}",
        ]
    else:
        report += [
            f"requests_per_s = {throughput:.2f} 1/s",
            f"request_p50_ms = {metrics['op_p50_ms']:.3f} ms, request_p90_ms = "
            f"{metrics['op_p90_ms']:.3f} ms, request_p95_ms = "
            f"{_percentile(operations, 95):.3f} ms  ({len(operations)} requests)",
            f"first-time (computed) share of GET requests: "
            f"{replay['first_time_share']:.3f}",
            "largest closure component per experiment: "
            + ", ".join(
                f"{name} {size}"
                for name, size in results[0]["largest_components"].items()
            ),
        ]
    report += [
        f"setup_s = {metrics['setup_s']:.4f} s, peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB",
        digest_line,
    ]
    return metrics, report


def _response_digest(replay: dict) -> str:
    return digest(replay["responses"])


def trace(runner: Runner, args: argparse.Namespace, checks: Checks):
    """The traced run: per-layer metrics, medians over traced repetitions.

    Traced and untraced repetitions alternate; the ratio of their median
    walls is the tracing overhead.
    """
    explore = args.workload == "explore-serve"
    untraced, traced = [], []
    for _ in range(TRACE_PAIRS):
        untraced.append(runner.child("replay" if explore else "measure"))
        traced.append(runner.child("replay-trace" if explore else "trace"))
    if explore:
        served = runner.child("measure")
        _explore_responses(checks, [served], untraced[0])
        checks.check(
            "replays answer identically",
            all(r["responses"] == untraced[0]["responses"] for r in untraced + traced),
        )
        digest_line = _digest_checks(checks, args, [_response_digest(traced[0])])
        counts = _explore_counts(served, traced[0])
    else:
        for result in untraced + traced:
            checks.child_checks(result)
        digest_line = _digest_checks(
            checks, args, [result["digest"] for result in untraced + traced]
        )
        counts = traced[0]["counts"]

    def median(key: str, results: list[dict]) -> float:
        return statistics.median(result[key] for result in results)

    layers = {
        name: statistics.median(result["layers"][name] for result in traced)
        for name in traced[0]["layers"]
    }
    wall = median("wall_s", traced)
    overhead = median("traced_wall_s", traced) / median("work_s", untraced)
    metrics = {**layers, **counts}
    metrics["unattributed_s"] = median("unattributed_s", traced)
    metrics["unattributed_share"] = metrics["unattributed_s"] / wall
    metrics["trace.overhead_ratio"] = overhead
    report = [
        f"{TRACE_PAIRS} traced and {TRACE_PAIRS} untraced fresh-process "
        f"repetitions; traced wall {wall:.4f} s; tracing overhead "
        f"(traced / untraced wall) {overhead:.3f}",
        digest_line,
    ]
    for name, seconds in sorted(layers.items(), key=lambda item: -item[1]):
        if seconds:
            report.append(f"  {name:32s} {seconds:10.4f} s  {100.0 * seconds / wall:5.1f}%")
    report.append(
        f"  {'unattributed_s':32s} {metrics['unattributed_s']:10.4f} s  "
        f"{100.0 * metrics['unattributed_share']:5.1f}%"
    )
    if metrics["unattributed_share"] > UNATTRIBUTED_FLAG:
        report.append(
            f"FLAG: {100.0 * metrics['unattributed_share']:.1f}% of the traced "
            f"wall time is unattributed (more than {100 * UNATTRIBUTED_FLAG:.0f}%)"
        )
    return metrics, report


def _explore_counts(untraced: dict, traced: dict) -> dict:
    """Serving counters from the HTTP repetition, classified by the replay."""
    flags = traced["first_time"]
    latencies = [latency for client in untraced["latencies_ms"] for latency in client]
    hits = [
        latency for latency, flag in zip(latencies, flags) if flag is False
    ]
    stats = untraced["stats"]
    counts = {
        "serving.hit_ratio": 1.0 - stats["computations"] / stats["requests"],
        "serving.computations": stats["computations"],
        "serving.first_time_share": traced["first_time_share"],
        "server.hit_p50_ms": statistics.median(hits) if hits else 0.0,
    }
    for name, size in untraced["largest_components"].items():
        counts[f"explore.largest_component.{name}"] = size
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default="default",
        help="input sizes; 'smoke' is a tiny configuration for testing",
    )
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing: {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = contract["per_layer" if args.trace else "end_to_end"]

    runner = Runner(args)
    checks = Checks()
    try:
        metrics, report = (trace if args.trace else measure)(runner, args, checks)
    except ChildFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    print(f"workload {args.workload}, seed {args.seed}, scale {args.scale}, "
          f"trace {args.trace}")
    for line in report:
        print(line)
    for failure in checks.failures:
        print(f"FAILED CHECK: {failure}")
    print(f"operations attempted {checks.attempted}, failed {checks.failed}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            entry["name"]: {
                "value": float(metrics.get(entry["name"], 0.0)),
                "unit": entry["unit"],
            }
            for entry in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
