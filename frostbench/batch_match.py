"""batch-match: run and score a solution, then re-run it from the store.

One repetition (one fresh process) generates the person corpus, submits
a ``pipeline`` job and a dependent ``metrics`` job to an
:class:`~repro.engine.ExperimentEngine` backed by a file
:class:`~repro.storage.database.FrostStore`, and then re-submits the
same jobs many times, each from a fresh engine and platform over fresh
dataset and gold objects, so every re-run is served by the store tier
of the result cache.

The traced repetition calls the same layers stage by stage through
their public functions and methods, and checks that the result equals
what the engine job produces.
"""

from __future__ import annotations

import os
import time

from frostbench.common import (
    BATCH_CONFIG,
    LayerClock,
    digest,
    peak_rss_mb,
    value_sharing,
)

def _setup(seed: int, sizes: dict, workdir: str, store_name: str):
    from repro.datagen import make_person_benchmark
    from repro.storage.database import FrostStore
    from repro.streaming import build_pipeline_and_index

    bench = make_person_benchmark(sizes["batch_records"], seed=seed)
    store = FrostStore(os.path.join(workdir, store_name))
    pipeline, _ = build_pipeline_and_index(BATCH_CONFIG)
    return bench, store, pipeline


def _fresh_platform(bench):
    """A platform over new dataset and gold objects.

    Content fingerprints are memoized per object, so re-using the
    objects of an earlier run would hide the fingerprinting a new
    process pays.
    """
    from repro.core.clustering import Clustering
    from repro.core.experiment import GoldStandard
    from repro.core.platform import FrostPlatform
    from repro.core.records import Dataset

    dataset = Dataset(
        list(bench.dataset), name=bench.dataset.name,
        attributes=bench.dataset.attributes,
    )
    gold = GoldStandard(
        clustering=Clustering(bench.gold.clustering.clusters),
        name=bench.gold.name,
    )
    platform = FrostPlatform()
    platform.add_dataset(dataset)
    platform.add_gold(dataset.name, gold)
    return platform, dataset, gold


def _jobs(pipeline, dataset_name: str, gold_name: str):
    from repro.engine import JobSpec

    return [
        JobSpec(
            "pipeline",
            {"pipeline": pipeline, "dataset": dataset_name, "register_as": "cold"},
            job_id="match",
        ),
        JobSpec(
            "metrics",
            {"dataset": dataset_name, "gold": gold_name, "experiments": ["cold"]},
            job_id="score",
            depends_on=("match",),
        ),
    ]


def _largest_component(matches) -> int:
    from repro.core.experiment import Experiment

    sizes = Experiment(
        (tuple(match[:2]) for match in matches), name="closure"
    ).clustering().cluster_sizes()
    return max(sizes, default=1)


def measure(seed: int, sizes: dict, workdir: str) -> dict:
    started = time.perf_counter()
    from repro.engine import ExperimentEngine

    bench, store, pipeline = _setup(seed, sizes, workdir, "batch.db")
    platform, dataset, gold = _fresh_platform(bench)
    setup_s = time.perf_counter() - started

    checks: dict[str, bool] = {}
    engine = ExperimentEngine(platform, store=store)
    started = time.perf_counter()
    cold = engine.run(_jobs(pipeline, dataset.name, gold.name))
    work_s = time.perf_counter() - started
    jobs_failed = sum(r.state.value != "succeeded" for r in cold.values())
    checks["cold jobs computed"] = jobs_failed == 0 and not any(
        r.cached for r in cold.values()
    )

    rerun_ms = []
    reruns_exact = True
    for _ in range(sizes["batch_reruns"]):
        platform, dataset, gold = _fresh_platform(bench)
        engine = ExperimentEngine(platform, store=store)
        specs = _jobs(pipeline, dataset.name, gold.name)
        started = time.perf_counter()
        rerun = engine.run(specs)
        rerun_ms.append((time.perf_counter() - started) * 1000.0)
        jobs_failed += sum(r.state.value != "succeeded" for r in rerun.values())
        reruns_exact = reruns_exact and all(
            rerun[job].cached and rerun[job].value == cold[job].value
            for job in ("match", "score")
        )
    checks["store re-runs return the cold result"] = reruns_exact

    matches = cold["match"].value["matches"] if not jobs_failed else []
    metrics = cold["score"].value["metrics"]["cold"] if not jobs_failed else {}
    store.close()
    return {
        "setup_s": setup_s,
        "rss_mb": peak_rss_mb(),
        "work_s": work_s,
        "units": len(bench.dataset),
        "ops_ms": rerun_ms,
        "ops": 2 + 2 * len(rerun_ms),
        "ops_failed": jobs_failed,
        "checks": checks,
        "digest": digest(matches),
        "info": {
            "records": len(bench.dataset),
            "matches": len(matches),
            "f1": metrics.get("f1"),
            "largest_component": _largest_component(matches),
        },
    }


def trace(seed: int, sizes: dict, workdir: str) -> dict:
    from repro.engine import ExperimentEngine
    from repro.engine.jobs import job_cache_key
    from repro.engine.runner import deserialize_experiment, serialize_experiment

    bench, store, pipeline = _setup(seed, sizes, workdir, "staged.db")
    platform, dataset, gold = _fresh_platform(bench)
    clock = LayerClock()

    def pipeline_key(dataset):
        return job_cache_key("pipeline", {
            "dataset": dataset, "pipeline": pipeline.config_fingerprint(),
            "register_as": "cold",
        })

    def metrics_key(dataset, gold, experiment):
        return job_cache_key("metrics", {
            "dataset": dataset, "gold": gold, "experiments": [["cold", experiment]],
        })

    # Cold: the steps of the pipeline and metrics jobs, one call each.
    started = time.perf_counter()
    key = clock.call("engine.key_s", pipeline_key, dataset)
    missed = clock.call("storage.cache_get_s", store.cache_get, key)
    prepared = clock.call("matching.prepare_s", pipeline.prepare, dataset)
    candidates = clock.call(
        "matching.block_s", pipeline.generate_candidates, prepared
    )
    vectors = clock.call(
        "matching.compare_s", pipeline.compare_candidates, prepared, candidates
    )
    scored = clock.call("matching.decide_s", pipeline.score_vectors, vectors)
    experiment = clock.call("matching.cluster_s", pipeline.cluster_matches, scored)
    payload = clock.call("engine.serialize_s", serialize_experiment, experiment)
    clock.call("storage.cache_put_s", store.cache_put, key, "pipeline", payload)
    experiment.name = "cold"
    platform.add_experiment(dataset.name, experiment)
    key = clock.call("engine.key_s", metrics_key, dataset, gold, experiment)
    clock.call("storage.cache_get_s", store.cache_get, key)
    table = clock.call(
        "metrics.evaluate_s", platform.metrics_table, dataset.name, gold.name, ["cold"]
    )
    clock.call("storage.cache_put_s", store.cache_put, key, "metrics", table)
    cold_wall = time.perf_counter() - started

    # Re-run: fresh objects, results from the store.
    rerun_platform, rerun_dataset, rerun_gold = _fresh_platform(bench)
    started = time.perf_counter()
    key = clock.call("engine.key_s", pipeline_key, rerun_dataset)
    stored = clock.call("storage.cache_get_s", store.cache_get, key)
    restored = clock.call("engine.deserialize_s", deserialize_experiment, stored)
    restored.name = "cold"
    rerun_platform.add_experiment(rerun_dataset.name, restored)
    key = clock.call("engine.key_s", metrics_key, rerun_dataset, rerun_gold, restored)
    stored_table = clock.call("storage.cache_get_s", store.cache_get, key)
    rerun_wall = time.perf_counter() - started

    # The engine job on its own store must produce the same experiment.
    check_platform, check_dataset, check_gold = _fresh_platform(bench)
    from repro.storage.database import FrostStore

    check_store = FrostStore(os.path.join(workdir, "engine.db"))
    results = ExperimentEngine(check_platform, store=check_store).run(
        _jobs(pipeline, check_dataset.name, check_gold.name)
    )
    engine_ok = all(r.state.value == "succeeded" for r in results.values())
    checks = {
        "staged run equals the engine job": engine_ok
        and results["match"].value["matches"] == payload["matches"]
        and results["score"].value["metrics"]["cold"] == table["cold"],
        "staged re-run returns the cold result": missed is None
        and stored == payload
        and stored_table == table,
    }
    check_store.close()
    store.close()

    wall = cold_wall + rerun_wall
    layers = {name: clock.inclusive[name] for name in (
        "matching.prepare_s", "matching.block_s", "matching.compare_s",
        "matching.decide_s", "matching.cluster_s", "metrics.evaluate_s",
        "engine.serialize_s", "storage.cache_put_s", "engine.key_s",
        "storage.cache_get_s", "engine.deserialize_s",
    )}
    counts = {
        "matching.candidates": len(candidates),
        "matching.compare_pairs_per_s": len(candidates)
        / clock.inclusive["matching.compare_s"],
        "matching.matches": len(payload["matches"]),
        "matching.largest_component": _largest_component(payload["matches"]),
        **value_sharing(prepared, candidates, BATCH_CONFIG["similarities"]),
    }
    return {
        "layers": layers,
        "counts": counts,
        "traced_wall_s": cold_wall,
        "wall_s": wall,
        "unattributed_s": wall - clock.attributed(),
        "ops": len(results),
        "ops_failed": sum(r.state.value != "succeeded" for r in results.values()),
        "checks": checks,
        "digest": digest(payload["matches"]),
    }
