"""Kernel-path pipelines against the scalar comparison loop.

:meth:`MatchingPipeline.compare_candidates` scores large blocks with
the columnar kernels and everything else with the scalar
:func:`compare_pairs` loop, promising the choice changes speed, never
output.  These tests pin that promise end to end — vectors, scores,
clusters and quality metrics — across blockers, decision models
(rule-based, learned), every built-in measure, a fitted TF-IDF
comparator, and duck-typed comparators the kernels cannot plan.

The oracle is the same pipeline with its comparator wrapped in an
:class:`AttributeComparator` *subclass*: :func:`repro.columnar.plan_for`
refuses subclasses, so the oracle always takes the scalar loop.
"""

from __future__ import annotations

import pytest

from repro.core.confusion import ConfusionMatrix
from repro.core.pairs import make_pair
from repro.datagen import make_person_benchmark
from repro.matching import (
    SIMILARITY_FUNCTIONS,
    AttributeComparator,
    LogisticRegressionModel,
    LshBlocking,
    LshConfig,
    MatchingPipeline,
    NaiveBayesModel,
    RuleSet,
    SimilarityVector,
    attribute_threshold_rule,
    compare_pairs,
    lowercase_values,
    normalize_whitespace,
    prefix_key,
    soundex_key,
    standard_blocking,
    weighted_average_rule,
)
from repro.matching.blocking import first_token_key
from repro.matching.pipeline import COLUMNAR_MIN_PAIRS
from repro.matching.similarity import TfIdfCosine
from repro.metrics.registry import default_registry
from repro.telemetry.metrics import get_metrics

# Large enough for a few thousand candidate pairs and non-trivial
# clusters, small enough that the scalar oracle stays fast.
BENCHMARK = make_person_benchmark(300, seed=17)

ATTRIBUTES = ("first_name", "last_name", "street", "city", "zip")


class ScalarOnly(AttributeComparator):
    """Same measures, but never planned onto the kernels."""


def _comparator() -> AttributeComparator:
    return AttributeComparator(
        {
            "first_name": "jaro_winkler",
            "last_name": "jaro_winkler",
            "street": "monge_elkan",
            "city": "jaro_winkler",
            "zip": "exact",
        }
    )


def _scalar_twin(comparator: AttributeComparator) -> ScalarOnly:
    return ScalarOnly(dict(comparator.functions))


def _last_name_blocks(dataset):
    return standard_blocking(dataset, first_token_key("last_name"))


def _rule_model() -> RuleSet:
    return RuleSet(
        [
            attribute_threshold_rule("last_name", 0.92),
            weighted_average_rule(
                {"first_name": 2.0, "last_name": 3.0, "city": 1.0},
                threshold=0.85,
            ),
        ]
    )


def _pipeline(
    comparator,
    decision_model,
    candidate_generator=_last_name_blocks,
    blocking_storage="memory",
) -> MatchingPipeline:
    return MatchingPipeline(
        candidate_generator=candidate_generator,
        comparator=comparator,
        decision_model=decision_model,
        preparers=[normalize_whitespace, lowercase_values],
        threshold=0.5,
        name="equivalence",
        blocking_storage=blocking_storage,
    )


def _metrics(experiment):
    matrix = ConfusionMatrix.from_clusterings(
        experiment.clustering(),
        BENCHMARK.gold.clustering,
        BENCHMARK.dataset.total_pairs(),
    )
    return default_registry().evaluate(matrix, ["precision", "recall", "f1"])


def _kernel_pairs() -> int:
    return get_metrics().counter("frost_kernel_pairs_total").value


def _run_both(comparator, decision_model, **pipeline_kwargs):
    """(kernel-path run, scalar-oracle run) over the benchmark."""
    before = _kernel_pairs()
    fast = _pipeline(comparator, decision_model, **pipeline_kwargs).run(
        BENCHMARK.dataset
    )
    assert len(fast.vectors) >= COLUMNAR_MIN_PAIRS
    assert _kernel_pairs() - before == len(fast.vectors)  # kernels ran
    slow = _pipeline(
        _scalar_twin(comparator), decision_model, **pipeline_kwargs
    ).run(BENCHMARK.dataset)
    return fast, slow


def _assert_runs_identical(fast, slow):
    assert fast.vectors == slow.vectors
    assert [type(v) for v in fast.vectors] == [type(v) for v in slow.vectors]
    assert fast.scored_pairs == slow.scored_pairs
    assert set(fast.experiment.clustering().clusters) == set(
        slow.experiment.clustering().clusters
    )
    assert _metrics(fast.experiment) == _metrics(slow.experiment)


BLOCKERS = {
    "first-token": _last_name_blocks,
    "zip-prefix": lambda d: standard_blocking(d, prefix_key("zip", 3)),
    "soundex": lambda d: standard_blocking(d, soundex_key("last_name")),
    "lsh": LshBlocking(LshConfig(num_perm=32, bands=16, seed=3)),
}


@pytest.mark.parametrize("blocker", sorted(BLOCKERS))
def test_rule_based_pipeline_matches_scalar_loop(blocker):
    fast, slow = _run_both(
        _comparator(),
        _rule_model().score,
        candidate_generator=BLOCKERS[blocker],
    )
    _assert_runs_identical(fast, slow)


def test_disk_blocking_pipeline_matches_scalar_loop():
    """SQL-pushdown blocking feeds the same comparison stage."""
    disk_runs = get_metrics().counter("frost_blocking_disk_runs_total")
    before = disk_runs.value
    fast, slow = _run_both(
        _comparator(),
        _rule_model().score,
        candidate_generator=BLOCKERS["lsh"],
        blocking_storage="disk",
    )
    assert disk_runs.value - before == 2  # neither run fell back
    _assert_runs_identical(fast, slow)


def _fitted(model_class):
    comparator = _comparator()
    pipeline = _pipeline(comparator, lambda v: v.mean())
    prepared = pipeline.prepare(BENCHMARK.dataset)
    vectors = pipeline.compare_candidates(
        prepared, pipeline.generate_candidates(prepared)
    )
    gold_pairs = BENCHMARK.gold.pairs()
    labels = [vector.pair in gold_pairs for vector in vectors]
    if model_class is LogisticRegressionModel:
        model = model_class(
            attributes=comparator.attributes, iterations=60, seed=5
        )
    else:
        model = model_class(attributes=comparator.attributes)
    model.fit(vectors, labels)
    return model


@pytest.mark.parametrize(
    "model_class",
    [LogisticRegressionModel, NaiveBayesModel],
    ids=["logistic", "naive-bayes"],
)
def test_learned_pipeline_matches_scalar_loop(model_class):
    model = _fitted(model_class)
    fast, slow = _run_both(_comparator(), model.score)
    _assert_runs_identical(fast, slow)


@pytest.mark.parametrize("name", sorted(SIMILARITY_FUNCTIONS))
def test_every_builtin_measure_matches_scalar_loop(name):
    """Each measure alone, through prepare()'s cached column layout."""
    comparator = AttributeComparator({attribute: name for attribute in ATTRIBUTES})
    fast, slow = _run_both(comparator, lambda v: v.mean())
    _assert_runs_identical(fast, slow)


def test_tfidf_comparator_matches_scalar_loop():
    """A fitted, corpus-carrying comparator scores identically."""
    street = TfIdfCosine(
        record.value("street") or "" for record in BENCHMARK.dataset
    )
    comparator = AttributeComparator(
        {
            "first_name": "jaro_winkler",
            "last_name": "jaro_winkler",
            "street": street,
            "zip": "exact",
        }
    )
    fast, slow = _run_both(comparator, lambda v: v.mean())
    _assert_runs_identical(fast, slow)


class _ClosureComparator:
    """Duck-typed comparator holding a closure: no kernel plan exists."""

    def __init__(self):
        self._measure = lambda a, b: 1.0 if a == b else 0.0

    def compare(self, first, second):
        return SimilarityVector(
            pair=make_pair(first.record_id, second.record_id),
            values={
                "last_name": self._measure(
                    first.value("last_name"), second.value("last_name")
                )
            },
        )


def test_duck_typed_comparator_runs_the_scalar_loop():
    metrics = get_metrics()
    fallback = metrics.counter("frost_kernel_fallback_pairs_total")
    before = (_kernel_pairs(), fallback.value)
    comparator = _ClosureComparator()
    pipeline = _pipeline(comparator, lambda v: v.mean())
    prepared = pipeline.prepare(BENCHMARK.dataset)
    candidates = pipeline.generate_candidates(prepared)
    vectors = pipeline.compare_candidates(prepared, candidates)
    assert _kernel_pairs() == before[0]
    assert fallback.value - before[1] == len(candidates)
    assert vectors == compare_pairs(prepared, sorted(candidates), comparator)


class _TaggedVector(SimilarityVector):
    """A SimilarityVector subclass a duck comparator might return."""


class _TaggingComparator:
    def compare(self, first, second):
        same = first.value("last_name") == second.value("last_name")
        return _TaggedVector(
            pair=make_pair(first.record_id, second.record_id),
            values={"last_name": 1.0 if same else 0.0},
        )


def test_duck_comparator_vector_subclass_survives():
    """The comparison stage hands back the comparator's own vectors."""
    run = _pipeline(_TaggingComparator(), lambda v: v.mean()).run(
        BENCHMARK.dataset
    )
    assert len(run.vectors) >= COLUMNAR_MIN_PAIRS
    assert all(type(vector) is _TaggedVector for vector in run.vectors)
