"""Experiment execution engine: parallel jobs + content-addressed cache.

The engine turns the platform's one-shot evaluations into a serving
layer: declarative :class:`JobSpec` jobs (metrics tables, diagrams,
pipeline runs, batch sweeps) execute on a dependency-ordered worker
pool (:class:`ExperimentEngine`), and results are content-addressed in
a two-tier :class:`ResultCache` so that repeated exploration calls —
the hot path the paper optimizes for — are served from cache instead
of recomputed.

>>> engine = ExperimentEngine(platform)                    # doctest: +SKIP
>>> spec = JobSpec("metrics", {"dataset": "d", "gold": "g"})  # doctest: +SKIP
>>> results = engine.run([spec])                           # doctest: +SKIP
"""

from repro.engine.cache import MISS, ResultCache
from repro.engine.jobs import (
    JobResult,
    JobSpec,
    JobState,
    content_fingerprint,
    dataset_fingerprint,
    expand_sweep,
    experiment_fingerprint,
    gold_fingerprint,
)
from repro.engine.runner import (
    EngineError,
    ExperimentEngine,
    JobHandler,
    serialize_experiment,
)

__all__ = [
    "MISS",
    "EngineError",
    "ExperimentEngine",
    "JobHandler",
    "JobResult",
    "JobSpec",
    "JobState",
    "ResultCache",
    "content_fingerprint",
    "dataset_fingerprint",
    "expand_sweep",
    "experiment_fingerprint",
    "gold_fingerprint",
    "serialize_experiment",
]
