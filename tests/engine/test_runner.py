"""Tests for the parallel job runner: caching, sweeps, isolation."""

import json
import logging
import sqlite3
import threading

import pytest

from repro.core.platform import FrostPlatform
from repro.engine import (
    ExperimentEngine,
    JobHandler,
    JobSpec,
    JobState,
    expand_sweep,
)
from repro.engine.runner import EngineError
from repro.matching.attribute_matching import AttributeComparator
from repro.matching.blocking import full_pairs
from repro.matching.pipeline import MatchingPipeline
from repro.storage.database import FrostStore


def _mean_decision(vector):
    return vector.mean()


class TestBasicExecution:
    def test_metrics_job(self, engine):
        spec = JobSpec(
            "metrics",
            {"dataset": "people", "gold": "people-gold",
             "metrics": ["precision", "recall"]},
            job_id="m",
        )
        result = engine.run([spec])["m"]
        assert result.state is JobState.SUCCEEDED
        assert result.value["metrics"]["people-run"] == {
            "precision": 0.5, "recall": 0.5,
        }

    def test_diagram_job(self, engine):
        spec = JobSpec(
            "diagram",
            {"dataset": "people", "gold": "people-gold",
             "experiment": "people-run", "samples": 3},
            job_id="d",
        )
        result = engine.run([spec])["d"]
        assert result.state is JobState.SUCCEEDED
        assert len(result.value["points"]) == 3
        assert result.value["points"][0]["threshold"] is None

    def test_unknown_kind_rejected(self, engine):
        with pytest.raises(EngineError, match="unknown job kind"):
            engine.submit(JobSpec("teleport", {}))

    def test_duplicate_id_rejected(self, engine):
        engine.submit(JobSpec("metrics", {"dataset": "people"}, job_id="x"))
        with pytest.raises(EngineError, match="duplicate job id"):
            engine.submit(JobSpec("metrics", {"dataset": "people"}, job_id="x"))

    def test_unknown_dependency_rejected(self, engine):
        with pytest.raises(EngineError, match="unknown job"):
            engine.submit(
                JobSpec("metrics", {"dataset": "people"}, depends_on=("ghost",))
            )


class TestCacheSemantics:
    def test_identical_rerun_does_not_recompute(self, engine, monkeypatch):
        """The acceptance criterion: the second run computes nothing."""
        calls = []
        original = FrostPlatform.metrics_table

        def counting(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(FrostPlatform, "metrics_table", counting)
        params = {"dataset": "people", "gold": "people-gold", "metrics": ["f1"]}
        first = engine.run([JobSpec("metrics", params, job_id="a")])["a"]
        assert first.cached is False and len(calls) == 1
        second = engine.run([JobSpec("metrics", params, job_id="b")])["b"]
        assert second.state is JobState.SUCCEEDED
        assert second.cached is True
        assert len(calls) == 1, "cached re-run must not recompute metrics"
        assert second.value == first.value
        assert engine.cached_jobs == 1

    def test_config_change_misses_cache(self, engine):
        base = {"dataset": "people", "gold": "people-gold"}
        first = engine.run(
            [JobSpec("metrics", {**base, "metrics": ["f1"]}, job_id="a")]
        )["a"]
        second = engine.run(
            [JobSpec("metrics", {**base, "metrics": ["recall"]}, job_id="b")]
        )["b"]
        assert first.cached is False and second.cached is False
        assert first.cache_key != second.cache_key

    def test_experiment_content_change_misses_cache(
        self, people_dataset, people_gold
    ):
        from repro.core import Experiment

        registry = FrostPlatform()
        registry.add_dataset(people_dataset)
        registry.add_gold(people_dataset.name, people_gold)
        registry.add_experiment(
            people_dataset.name, Experiment([("p1", "p2", 0.9)], name="run")
        )
        engine = ExperimentEngine(registry)
        params = {"dataset": "people", "gold": "people-gold",
                  "experiments": ["run"]}
        first = engine.run([JobSpec("metrics", params, job_id="a")])["a"]

        changed = FrostPlatform()
        changed.add_dataset(people_dataset)
        changed.add_gold(people_dataset.name, people_gold)
        changed.add_experiment(
            people_dataset.name, Experiment([("p1", "p3", 0.9)], name="run")
        )
        other = ExperimentEngine(changed)
        second = other.run([JobSpec("metrics", params, job_id="a")])["a"]
        assert first.cache_key != second.cache_key

    def test_cache_shared_through_store_across_engines(self, platform, tmp_path):
        path = tmp_path / "cache.db"
        params = {"dataset": "people", "gold": "people-gold", "metrics": ["f1"]}
        with FrostStore(path) as store:
            cold = ExperimentEngine(platform, store=store)
            assert not cold.run([JobSpec("metrics", params, job_id="a")])["a"].cached
        with FrostStore(path) as store:
            warm = ExperimentEngine(platform, store=store)
            assert warm.run([JobSpec("metrics", params, job_id="a")])["a"].cached

    def test_corrupt_store_row_is_a_miss(self, platform, tmp_path, caplog):
        """A truncated result_cache payload must not fail the job: it
        recomputes and the row is rewritten with the fresh result."""
        path = tmp_path / "cache.db"
        params = {"dataset": "people", "gold": "people-gold", "metrics": ["f1"]}
        with FrostStore(path) as store:
            cold = ExperimentEngine(platform, store=store)
            first = cold.run([JobSpec("metrics", params, job_id="a")])["a"]
        with sqlite3.connect(path) as raw:
            raw.execute(
                "UPDATE result_cache SET payload = "
                "substr(payload, 1, length(payload) / 2) WHERE cache_key = ?",
                (first.cache_key,),
            )
            (torn,) = raw.execute(
                "SELECT payload FROM result_cache WHERE cache_key = ?",
                (first.cache_key,),
            ).fetchone()
        with pytest.raises(json.JSONDecodeError):
            json.loads(torn)
        with FrostStore(path) as store, caplog.at_level(
            logging.WARNING, logger="repro.storage.database"
        ):
            warm = ExperimentEngine(platform, store=store)
            again = warm.run([JobSpec("metrics", params, job_id="a")])["a"]
            assert again.state is JobState.SUCCEEDED, again.error
            assert again.cached is False
            assert again.value == first.value
            assert store.cache_get(first.cache_key) == first.value
        assert any("does not decode" in m for m in caplog.messages)

    def test_uncacheable_spec_always_computes(self, engine):
        params = {"dataset": "people", "gold": "people-gold"}
        engine.run([JobSpec("metrics", params, job_id="a", cacheable=False)])
        result = engine.run(
            [JobSpec("metrics", params, job_id="b", cacheable=False)]
        )["b"]
        assert result.cached is False and result.cache_key is None


class TestSweep:
    def test_sweep_fans_out_and_orders_results(self, engine):
        base = JobSpec(
            "metrics",
            {"dataset": "people", "gold": "people-gold", "metrics": ["recall"]},
            job_id="sweep",
        )
        job_ids = engine.sweep(base, "threshold", [0.5, 0.8, 0.99])
        assert job_ids == ["sweep@0.5", "sweep@0.8", "sweep@0.99"]
        engine.start()
        assert engine.join(job_ids, timeout=30)
        recalls = [
            engine.result(job_id).value["metrics"]["people-run"]["recall"]
            for job_id in job_ids
        ]
        # people-run has matches at 0.95 and 0.72: raising the threshold
        # from 0.5 to 0.99 drops both, so recall is monotonically falling.
        assert recalls == sorted(recalls, reverse=True)
        assert recalls[-1] == 0.0

    def test_sweep_points_cache_independently(self, engine):
        base = JobSpec(
            "metrics",
            {"dataset": "people", "gold": "people-gold", "metrics": ["f1"]},
            job_id="s",
        )
        engine.run(expand_sweep(base, "threshold", [0.5, 0.8]))
        rerun = engine.sweep(
            JobSpec(base.kind, base.params, job_id="s2"), "threshold", [0.8, 0.9]
        )
        engine.start()
        engine.join(rerun)
        assert engine.result("s2@0.8").cached is True   # seen at 0.8 before
        assert engine.result("s2@0.9").cached is False  # new grid point


class TestFailureIsolation:
    def test_failure_skips_dependents_only(self, engine):
        good = engine.submit(
            JobSpec("metrics", {"dataset": "people", "gold": "people-gold"},
                    job_id="good")
        )
        bad = engine.submit(
            JobSpec("metrics", {"dataset": "ghost", "gold": "people-gold"},
                    job_id="bad")
        )
        downstream = engine.submit(
            JobSpec("metrics", {"dataset": "people", "gold": "people-gold"},
                    job_id="downstream", depends_on=(bad,))
        )
        engine.start()
        assert engine.join(timeout=30)
        assert engine.result(good).state is JobState.SUCCEEDED
        assert engine.result(bad).state is JobState.FAILED
        assert "ghost" in engine.result(bad).error
        assert engine.result(downstream).state is JobState.SKIPPED

    def test_cancel_pending_job_and_dependents(self, platform):
        engine = ExperimentEngine(platform, max_workers=1)
        release = threading.Event()

        def blocked(params, inputs):
            release.wait(timeout=30)
            return "done"

        engine.register_handler("blocked", JobHandler(compute=blocked))
        engine.submit(JobSpec("blocked", {}, job_id="running", cacheable=False))
        engine.submit(JobSpec("blocked", {}, job_id="queued", cacheable=False))
        engine.submit(
            JobSpec("blocked", {}, job_id="child",
                    depends_on=("queued",), cacheable=False)
        )
        engine.start()
        assert engine.cancel("queued") is True
        release.set()
        assert engine.join(timeout=30)
        assert engine.result("running").state is JobState.SUCCEEDED
        assert engine.result("queued").state is JobState.CANCELLED
        assert engine.result("child").state is JobState.SKIPPED

    def test_mid_run_submission_runs_on_idle_workers(self, platform):
        """A fresh job must not wait behind an unrelated running job."""
        engine = ExperimentEngine(platform, max_workers=2)
        release = threading.Event()
        engine.register_handler(
            "blocked", JobHandler(compute=lambda params, inputs: release.wait(30))
        )
        engine.submit(JobSpec("blocked", {}, job_id="slow", cacheable=False))
        engine.start()
        fast = engine.submit(
            JobSpec("metrics", {"dataset": "people", "gold": "people-gold"},
                    job_id="fast")
        )
        try:
            assert engine.join([fast], timeout=10), (
                "independent job must finish while another job is running"
            )
            assert engine.result("slow").state is JobState.RUNNING
        finally:
            release.set()
        assert engine.join(timeout=30)

    def test_history_pruning_drops_oldest_terminal_jobs(self, platform):
        engine = ExperimentEngine(platform, max_workers=2, max_history=3)
        params = {"dataset": "people", "gold": "people-gold", "metrics": ["f1"]}
        for index in range(6):
            engine.run([JobSpec("metrics", params, job_id=f"job-{index}")])
        with pytest.raises(EngineError, match="unknown job"):
            engine.result("job-0")
        assert engine.result("job-5").state is JobState.SUCCEEDED
        assert engine.progress()["total"] <= 3

    def test_progress_counts_states(self, engine):
        engine.run(
            [JobSpec("metrics", {"dataset": "people", "gold": "people-gold"},
                     job_id="ok"),
             JobSpec("metrics", {"dataset": "ghost", "gold": "people-gold"},
                     job_id="boom")]
        )
        progress = engine.progress()
        assert progress["total"] == 2 and progress["done"] == 2
        assert progress["succeeded"] == 1 and progress["failed"] == 1
        assert progress["cache"]["misses"] >= 1


class TestPipelineJobs:
    @pytest.fixture
    def pipeline(self):
        return MatchingPipeline(
            candidate_generator=full_pairs,
            comparator=AttributeComparator({"first": "jaro_winkler",
                                            "last": "jaro_winkler"}),
            decision_model=_mean_decision,
            threshold=0.9,
            name="engine-pipe",
        )

    def test_pipeline_job_registers_and_caches(self, engine, pipeline):
        spec = JobSpec(
            "pipeline",
            {"pipeline": pipeline, "dataset": "people"},
            job_id="p1",
        )
        first = engine.run([spec])["p1"]
        assert first.state is JobState.SUCCEEDED and not first.cached
        assert "engine-pipe" in engine.platform.experiment_names("people")
        rerun = engine.run(
            [JobSpec("pipeline", {"pipeline": pipeline, "dataset": "people"},
                     job_id="p2")]
        )["p2"]
        assert rerun.cached is True

    def test_pipeline_as_job_graph_matches_direct_run(self, engine, pipeline):
        direct = pipeline.run(engine.platform.dataset("people")).experiment
        graph = pipeline.as_job_graph("people", prefix="graph", register=False)
        results = engine.run(graph)
        assert all(
            result.state is JobState.SUCCEEDED for result in results.values()
        )
        staged = results["graph:clustering"].value
        assert staged.pairs() == direct.pairs()

    @pytest.mark.parametrize(
        "retired",
        [{"workers": 4, "shards": 8}, {"columnar": False}],
        ids=["workers-shards", "columnar"],
    )
    def test_retired_execution_params_hit_same_cache(
        self, engine, pipeline, retired
    ):
        """Job specs written for the removed sharding/columnar knobs still
        run, and share the cache entry of the plain pipeline job."""
        plain = engine.run(
            [JobSpec("pipeline", {"pipeline": pipeline, "dataset": "people"},
                     job_id="plain")]
        )["plain"]
        assert plain.state is JobState.SUCCEEDED and not plain.cached
        old = engine.run(
            [JobSpec(
                "pipeline",
                {"pipeline": pipeline, "dataset": "people", **retired},
                job_id="old",
            )]
        )["old"]
        assert old.state is JobState.SUCCEEDED, old.error
        assert old.cached is True
        assert old.cache_key == plain.cache_key
        assert old.value == plain.value

    def test_stage_graph_with_retired_params_matches_direct(
        self, engine, pipeline
    ):
        graph = pipeline.as_job_graph("people", prefix="old", register=False)
        for spec in graph:
            if spec.job_id == "old:similarity":
                spec.params.update(workers=2, shards=3, columnar=False)
        results = engine.run(graph)
        assert all(
            result.state is JobState.SUCCEEDED for result in results.values()
        ), {k: r.error for k, r in results.items()}
        direct = pipeline.run(engine.platform.dataset("people")).experiment
        assert results["old:clustering"].value.pairs() == direct.pairs()

    def test_duck_typed_comparator_still_fingerprints(self, engine, pipeline):
        class MeanComparator:
            def compare(self, first, second):
                from repro.core.pairs import make_pair
                from repro.matching.attribute_matching import SimilarityVector

                return SimilarityVector(
                    pair=make_pair(first.record_id, second.record_id),
                    values={"first": 1.0 if first.values == second.values else 0.0},
                )

        duck = MatchingPipeline(
            candidate_generator=full_pairs,
            comparator=MeanComparator(),
            decision_model=_mean_decision,
            threshold=0.9,
            name="duck-pipe",
        )
        result = engine.run(
            [JobSpec("pipeline", {"pipeline": duck, "dataset": "people"},
                     job_id="duck")]
        )["duck"]
        assert result.state is JobState.SUCCEEDED, result.error
        assert "comparator" in duck.config_fingerprint()

    def test_job_graph_stage_order_is_dependency_driven(self, engine, pipeline):
        graph = pipeline.as_job_graph("people", prefix="g2", register=False)
        assert [spec.job_id for spec in graph] == [
            "g2:prepare", "g2:candidates", "g2:similarity",
            "g2:decision", "g2:clustering",
        ]
        assert graph[2].depends_on == ("g2:prepare", "g2:candidates")


class TestBlockerJobParam:
    """The ``blocker`` pipeline-job param: per-job candidate generation."""

    LSH = {"kind": "lsh", "num_perm": 16, "bands": 8, "seed": 3}

    @pytest.fixture
    def pipeline(self):
        return MatchingPipeline(
            candidate_generator=full_pairs,
            comparator=AttributeComparator({"first": "jaro_winkler",
                                            "last": "jaro_winkler"}),
            decision_model=_mean_decision,
            threshold=0.9,
            name="blocker-pipe",
        )

    def test_blocker_override_changes_the_cache_key(self, engine, pipeline):
        """Unlike blocking_storage, a blocker override changes the
        output — so it must split the cache, never share an entry."""
        base = engine.run(
            [JobSpec("pipeline", {"pipeline": pipeline, "dataset": "people"},
                     job_id="base")]
        )["base"]
        lsh = engine.run(
            [JobSpec(
                "pipeline",
                {"pipeline": pipeline, "dataset": "people",
                 "blocker": self.LSH, "register": False},
                job_id="lsh",
            )]
        )["lsh"]
        assert base.state is JobState.SUCCEEDED, base.error
        assert lsh.state is JobState.SUCCEEDED, lsh.error
        assert lsh.cache_key != base.cache_key
        assert not lsh.cached
        other = engine.run(
            [JobSpec(
                "pipeline",
                {"pipeline": pipeline, "dataset": "people",
                 "blocker": {**self.LSH, "bands": 4}, "register": False},
                job_id="lsh4",
            )]
        )["lsh4"]
        assert other.state is JobState.SUCCEEDED, other.error
        assert other.cache_key != lsh.cache_key

    def test_identical_blocker_jobs_share_the_cache(self, engine, pipeline):
        params = {"pipeline": pipeline, "dataset": "people",
                  "blocker": self.LSH, "register": False}
        first = engine.run(
            [JobSpec("pipeline", dict(params), job_id="one")]
        )["one"]
        rerun = engine.run(
            [JobSpec("pipeline", dict(params), job_id="two")]
        )["two"]
        assert first.state is JobState.SUCCEEDED, first.error
        assert rerun.cached is True
        assert rerun.cache_key == first.cache_key

    def test_blocker_matches_with_blocker_direct_run(self, engine, pipeline):
        from repro.streaming import candidate_generator_from_key

        direct = pipeline.with_blocker(
            candidate_generator_from_key(self.LSH)
        ).run(engine.platform.dataset("people")).experiment
        result = engine.run(
            [JobSpec(
                "pipeline",
                {"pipeline": pipeline, "dataset": "people",
                 "blocker": self.LSH, "register": False},
                job_id="direct-check",
            )]
        )["direct-check"]
        assert result.state is JobState.SUCCEEDED, result.error
        assert sorted(
            (first, second) for first, second, _, _ in result.value["matches"]
        ) == sorted(tuple(match.pair) for match in direct)

    def test_candidates_stage_honours_blocker(self, engine, pipeline):
        from repro.streaming import candidate_generator_from_key

        graph = pipeline.as_job_graph("people", prefix="lsh", register=False)
        for spec in graph:
            if spec.job_id == "lsh:candidates":
                spec.params.update(blocker=self.LSH)
        results = engine.run(graph)
        assert all(
            result.state is JobState.SUCCEEDED for result in results.values()
        ), {k: r.error for k, r in results.items()}
        direct = pipeline.with_blocker(
            candidate_generator_from_key(self.LSH)
        ).run(engine.platform.dataset("people")).experiment
        assert results["lsh:clustering"].value.pairs() == direct.pairs()

    def test_malformed_blocker_fails_the_job_cleanly(self, engine, pipeline):
        result = engine.run(
            [JobSpec(
                "pipeline",
                {"pipeline": pipeline, "dataset": "people",
                 "blocker": {"kind": "lsh", "bands": 33}},
                job_id="broken",
            )]
        )["broken"]
        assert result.state is JobState.FAILED
        assert "divide" in result.error
