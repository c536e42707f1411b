"""stream-ingest: fold the corpus into a durable streaming session.

One repetition (one fresh process) creates a durable
:class:`~repro.streaming.StreamingMatcher` on a file store, with
disk-backed delta blocking and a match graph attached through
``attach_graph``, and ingests the person corpus in fixed-size batches.
The output check compares the final clustering with the batch
pipeline's clustering of the same records.
"""

from __future__ import annotations

import os
import time

from frostbench.common import (
    STREAM_CONFIG,
    LayerClock,
    digest,
    peak_rss_mb,
    value_sharing,
)

STREAM = "ingest"


def _setup(seed: int, sizes: dict, workdir: str):
    from repro.datagen import make_person_benchmark
    from repro.graph.build import GraphUpdater
    from repro.storage.database import FrostStore
    from repro.streaming import StreamingMatcher, build_pipeline_and_index

    bench = make_person_benchmark(sizes["stream_records"], seed=seed)
    store = FrostStore(os.path.join(workdir, "stream.db"))
    pipeline, index = build_pipeline_and_index(STREAM_CONFIG)
    session = StreamingMatcher(
        pipeline, index, store=store, name=STREAM, config=STREAM_CONFIG
    )
    updater = GraphUpdater.create(store, STREAM, pipeline.threshold)
    session.attach_graph(updater)
    records = list(bench.dataset)
    size = -(-len(records) // sizes["stream_batches"])
    batches = [records[i : i + size] for i in range(0, len(records), size)]
    return bench, store, pipeline, index, session, updater, batches


def _ingest(session, batches):
    batch_ms = []
    snapshots = []
    started = time.perf_counter()
    for batch in batches:
        batch_started = time.perf_counter()
        snapshots.append(session.ingest(batch))
        batch_ms.append((time.perf_counter() - batch_started) * 1000.0)
    return time.perf_counter() - started, batch_ms, snapshots


def _check(bench, session, store, snapshots):
    """Compare the stream with a batch pipeline run over the same records."""
    from repro.streaming import build_pipeline_and_index

    batch_pipeline, _ = build_pipeline_and_index(
        {**STREAM_CONFIG, "blocking_storage": "memory"}
    )
    run = batch_pipeline.run(bench.dataset)
    streamed = sorted(sorted(c) for c in session.clusters().nontrivial_clusters())
    batched = sorted(
        sorted(c) for c in run.experiment.clustering().nontrivial_clusters()
    )
    delta_candidates = sum(s.delta_candidates for s in snapshots)
    edges = store.graph_meta(STREAM)["edge_count"]
    checks = {
        "stream clustering equals the batch clustering": streamed == batched,
        "graph holds every scored delta pair": edges
        == delta_candidates == len(run.candidates),
    }
    return checks, streamed, run, delta_candidates, edges


def _store_bytes(workdir: str) -> int:
    path = os.path.join(workdir, "stream.db")
    return sum(
        os.path.getsize(path + suffix)
        for suffix in ("", "-journal", "-wal")
        if os.path.exists(path + suffix)
    )


def measure(seed: int, sizes: dict, workdir: str) -> dict:
    started = time.perf_counter()
    bench, store, _, _, session, _, batches = _setup(seed, sizes, workdir)
    setup_s = time.perf_counter() - started

    work_s, batch_ms, snapshots = _ingest(session, batches)
    checks, clusters, _, delta_candidates, _ = _check(
        bench, session, store, snapshots
    )
    store.close()
    return {
        "setup_s": setup_s,
        "rss_mb": peak_rss_mb(),
        "work_s": work_s,
        "units": len(bench.dataset),
        "ops_ms": batch_ms,
        "ops": len(batch_ms),
        "ops_failed": 0,
        "checks": checks,
        "digest": digest(clusters),
        "info": {
            "records": len(bench.dataset),
            "batches": len(batch_ms),
            "delta_candidates": delta_candidates,
            "clusters": len(clusters),
            "largest_component": max(map(len, clusters), default=1),
        },
    }


def trace(seed: int, sizes: dict, workdir: str) -> dict:
    bench, store, pipeline, index, session, updater, batches = _setup(
        seed, sizes, workdir
    )
    clock = LayerClock(containers=("streaming.ingest_s",))
    clock.attach(session, "ingest", "streaming.ingest_s")
    clock.attach(pipeline, "prepare", "matching.prepare_s")
    clock.attach(index, "ingest_delta", "blocking_disk.delta_s")
    clock.attach(pipeline, "compare_candidates", "matching.compare_s")
    clock.attach(pipeline, "score_vectors", "matching.decide_s")
    clock.attach(store, "append_stream_batch", "storage.append_s")
    clock.attach(updater, "apply_batch", "graph.apply_s")
    clock.attach(store, "append_graph_batch", "storage.graph_append_s")

    wall, _, snapshots = _ingest(session, batches)
    checks, clusters, run, delta_candidates, edges = _check(
        bench, session, store, snapshots
    )
    store.close()
    layers = {name: clock.inclusive[name] for name in (
        "streaming.ingest_s", "matching.prepare_s", "blocking_disk.delta_s",
        "matching.compare_s", "matching.decide_s", "storage.append_s",
        "graph.apply_s", "storage.graph_append_s",
    )}
    counts = {
        "streaming.delta_candidates": delta_candidates,
        "graph.edges": edges,
        "storage.bytes_per_record": _store_bytes(workdir) / len(bench.dataset),
        "matching.matches": len(run.experiment),
        "matching.largest_component": max(map(len, clusters), default=1),
        **value_sharing(run.prepared, run.candidates, STREAM_CONFIG["similarities"]),
    }
    return {
        "layers": layers,
        "counts": counts,
        "traced_wall_s": wall,
        "wall_s": wall,
        "unattributed_s": wall - clock.attributed(),
        "ops": len(batches),
        "ops_failed": 0,
        "checks": checks,
        "digest": digest(clusters),
    }
