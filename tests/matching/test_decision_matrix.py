"""Array decision scorers vs. the per-vector decision models, bit for bit."""

import math
import struct
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pairs import ScoredPair, ScoredPairs
from repro.datagen import make_person_benchmark
from repro.matching import attribute_matching
from repro.matching.attribute_matching import (
    COMPENSATED_SUM,
    SimilarityMatrix,
    SimilarityVector,
    row_sums,
)
from repro.matching.pipeline import (
    COLUMNAR_MIN_PAIRS,
    MatchingPipeline,
    decision_plan,
)
from repro.matching.rules import RuleSet, weighted_average_rule
from repro.matching.threshold import WeightedAverageModel
from repro.streaming import build_pipeline_and_index
from repro.streaming.session import mean_similarity
from repro.telemetry import get_tracer
from repro.telemetry.metrics import get_metrics

ATTRIBUTES = tuple(f"a{index}" for index in range(8))

# Similarities live in [0, 1]; the sampled values make rounding visible
# (0.1 + 0.2 + 0.3 is the classic case where summation order and
# compensation change the last bit).
similarities = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.0, 1.0, 0.1, 0.2, 0.3, 0.7, 1e-17, 5e-324]),
)
lanes = st.one_of(st.none(), similarities)


@st.composite
def matrices(draw, min_rows=0):
    """(matrix, the equivalent vector list) over 1-8 attributes."""
    width = draw(st.integers(min_value=1, max_value=8))
    attributes = ATTRIBUTES[:width]
    rows = draw(
        st.lists(
            st.lists(lanes, min_size=width, max_size=width),
            min_size=min_rows,
            max_size=12,
        )
    )
    if rows and draw(st.booleans()):
        rows[0] = [None] * width  # an all-missing row
    pairs = [(f"r{index:02d}a", f"r{index:02d}b") for index in range(len(rows))]
    scores = np.array(
        [[np.nan if value is None else value for value in row] for row in rows],
        dtype=np.float64,
    ).reshape(len(rows), width)
    vectors = [
        SimilarityVector(pair=pair, values=dict(zip(attributes, row)))
        for pair, row in zip(pairs, rows)
    ]
    return SimilarityMatrix(pairs, attributes, scores), vectors


weights_values = st.one_of(
    st.floats(min_value=0.0, max_value=10.0),
    st.integers(min_value=0, max_value=5),
    st.just(0.0),
)


@st.composite
def weighted_models(draw, attributes):
    """A WeightedAverageModel over some matrix attributes plus, maybe,
    one the matrix lacks (always missing); zero weights included."""
    names = draw(
        st.lists(
            st.sampled_from(list(attributes) + ["absent"]),
            min_size=1,
            max_size=len(attributes) + 1,
            unique=True,
        )
    )
    weights = {name: draw(weights_values) for name in names}
    if sum(weights.values()) == 0:
        weights[names[0]] = draw(st.floats(min_value=0.5, max_value=10.0))
    penalty = draw(
        st.one_of(st.none(), similarities, st.sampled_from([0, 1]))
    )
    return WeightedAverageModel(weights, missing_penalty=penalty)


def bits(values):
    return [struct.pack("<d", value) for value in values]


def plain_sum(values):
    total = 0.0
    for value in values:
        total += value
    return total


def neumaier_sum(values):
    """CPython 3.12's compensated float ``sum()``, written out in Python."""
    total = 0.0
    error = 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            error += (total - step) + value
        else:
            error += (value - step) + total
        total = step
    if error and math.isfinite(error):
        total += error
    return total


def interpreter_sum(values):
    return neumaier_sum(values) if COMPENSATED_SUM else plain_sum(values)


class TestRowSums:
    @settings(max_examples=200, deadline=None)
    @given(matrices(), st.booleans())
    def test_each_variant_matches_its_reference(self, drawn, compensated):
        matrix, vectors = drawn
        reference = neumaier_sum if compensated else plain_sum
        expected = [
            reference([v for v in vector.values.values() if v is not None])
            for vector in vectors
        ]
        present = ~np.isnan(matrix.scores)
        got = row_sums(matrix.scores, present, compensated=compensated)
        assert bits(got.tolist()) == bits(expected)

    @settings(max_examples=200, deadline=None)
    @given(matrices())
    def test_running_interpreter_reference_is_builtin_sum(self, drawn):
        _, vectors = drawn
        for vector in vectors:
            present = [v for v in vector.values.values() if v is not None]
            assert bits([interpreter_sum(present)]) == bits([sum(present)])

    def test_pinned_row_follows_the_interpreter(self):
        row = [0.1, 0.2, 0.3]
        # the two summations really disagree on this row...
        assert plain_sum(row) != neumaier_sum(row)
        scores = np.array([row])
        got = row_sums(scores, np.ones_like(scores, dtype=bool))
        # ...and the default variant is the running interpreter's
        assert bits(got.tolist()) == bits([sum(row)])


class TestMeanScorer:
    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def test_bitwise_equal_to_mean_similarity(self, drawn):
        matrix, vectors = drawn
        assert bits(matrix.mean().tolist()) == bits(
            [mean_similarity(vector) for vector in vectors]
        )

    def test_pinned_row(self):
        matrix = SimilarityMatrix(
            [("a", "b")], ("x", "y", "z"), np.array([[0.1, 0.2, 0.3]])
        )
        expected = mean_similarity(
            SimilarityVector(("a", "b"), {"x": 0.1, "y": 0.2, "z": 0.3})
        )
        assert expected == sum([0.1, 0.2, 0.3]) / 3
        assert bits(matrix.mean().tolist()) == bits([expected])

    def test_all_missing_scores_zero(self):
        matrix = SimilarityMatrix(
            [("a", "b")], ("x", "y"), np.array([[np.nan, np.nan]])
        )
        assert matrix.mean().tolist() == [0.0]


class TestWeightedAverageScorer:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bitwise_equal_to_score(self, data):
        matrix, vectors = data.draw(matrices())
        model = data.draw(weighted_models(matrix.attributes))
        assert bits(model.score_matrix(matrix).tolist()) == bits(
            [model(vector) for vector in vectors]
        )

    @pytest.mark.parametrize("penalty", [None, 0.0, 0.25])
    def test_pinned_row(self, penalty):
        model = WeightedAverageModel(
            {"x": 0.1, "y": 0.2, "z": 0.3, "w": 0.0}, missing_penalty=penalty
        )
        matrix = SimilarityMatrix(
            [("a", "b"), ("a", "c")],
            ("x", "y", "z", "w"),
            np.array([[0.1, 0.2, 0.3, 0.9], [np.nan, 0.2, np.nan, np.nan]]),
        )
        assert bits(model.score_matrix(matrix).tolist()) == bits(
            [model(vector) for vector in matrix]
        )


class _Subclass(WeightedAverageModel):
    pass


class TestDecisionPlan:
    def test_mean_similarity_plans_mean(self):
        plan = decision_plan(mean_similarity)
        assert plan is not None and plan[0] == "mean"

    def test_weighted_average_plans_weighted_average(self):
        model = WeightedAverageModel({"x": 1, "y": 0.5}, missing_penalty=0)
        plan = decision_plan(model)
        assert plan is not None and plan[0] == "weighted_average"

    @pytest.mark.parametrize(
        "model",
        [
            lambda vector: vector.mean(),
            SimilarityVector.mean,
            _Subclass({"x": 1.0}),
            WeightedAverageModel({"x": Decimal("1")}),
            WeightedAverageModel({"x": 1.0}, missing_penalty=Decimal("0.5")),
            RuleSet([weighted_average_rule({"x": 1.0}, 0.5)]),
        ],
        ids=["lambda", "unbound-mean", "subclass", "decimal-weight",
             "decimal-penalty", "ruleset"],
    )
    def test_everything_else_loops(self, model):
        assert decision_plan(model) is None


def _pipeline(decision_model):
    return MatchingPipeline(
        candidate_generator=lambda dataset: set(),
        comparator=None,
        decision_model=decision_model,
        threshold=0.5,
    )


def _decision_span(pipeline, vectors):
    tracer = get_tracer()
    tracer.reset()
    tracer.enable()
    try:
        scored = pipeline.score_vectors(vectors)
    finally:
        tracer.disable()
    (decision,) = [s for s in tracer.roots() if s.name == "pipeline.decision"]
    tracer.reset()
    return scored, decision


def _fallback_pairs():
    return get_metrics().counter("frost_decision_fallback_pairs_total").value


class TestScoreVectors:
    @settings(max_examples=100, deadline=None)
    @given(matrices())
    def test_matrix_scores_equal_the_per_vector_loop(self, drawn):
        matrix, vectors = drawn
        for model in (
            mean_similarity,
            WeightedAverageModel({"a0": 2.0, "a1": 1}, missing_penalty=0.5),
        ):
            pipeline = _pipeline(model)
            fast = pipeline.score_vectors(matrix)
            slow = pipeline.score_vectors(vectors)
            assert isinstance(fast, ScoredPairs) and isinstance(slow, list)
            assert fast == slow and slow == fast
            assert bits([sp.score for sp in fast]) == bits(
                [sp.score for sp in slow]
            )
            assert pipeline.accept(fast) == pipeline.accept(slow)

    @pytest.mark.parametrize(
        "model, plan",
        [
            (mean_similarity, "mean"),
            (WeightedAverageModel({"x": 1.0}), "weighted_average"),
            (lambda vector: vector.mean(), "scalar"),
        ],
        ids=["mean", "weighted-average", "lambda"],
    )
    def test_span_names_the_plan_and_fallbacks_are_counted(self, model, plan):
        matrix = SimilarityMatrix(
            [("a", "b"), ("a", "c"), ("b", "c")],
            ("x", "y"),
            np.array([[0.9, np.nan], [0.1, 0.2], [np.nan, np.nan]]),
        )
        before = _fallback_pairs()
        scored, decision = _decision_span(_pipeline(model), matrix)
        assert decision.annotations["plan"] == plan
        assert decision.annotations["vectors"] == 3
        assert _fallback_pairs() - before == (3 if plan == "scalar" else 0)
        assert scored == [
            ScoredPair(score=model(vector), pair=vector.pair)
            for vector in matrix
        ]

    def test_vector_lists_loop_without_counting_a_fallback(self):
        vectors = [SimilarityVector(("a", "b"), {"x": 0.5})]
        before = _fallback_pairs()
        scored, decision = _decision_span(_pipeline(mean_similarity), vectors)
        assert decision.annotations["plan"] == "scalar"
        assert _fallback_pairs() == before
        assert scored == [ScoredPair(score=0.5, pair=("a", "b"))]

    def test_accept_thresholds_with_one_mask(self):
        scored = ScoredPairs(
            [("a", "b"), ("a", "c"), ("b", "c")], np.array([0.5, 0.49, 0.9])
        )
        assert _pipeline(mean_similarity).accept(scored) == [
            ScoredPair(score=0.5, pair=("a", "b")),
            ScoredPair(score=0.9, pair=("b", "c")),
        ]

    def test_mean_path_builds_objects_only_for_accepted_pairs(self, monkeypatch):
        """Kernels → mean decision → mask: no vector at all, and scored
        pairs only for what the threshold keeps."""
        pipeline, _ = build_pipeline_and_index({
            "key": {"kind": "prefix", "attribute": "zip", "length": 3},
            "similarities": {
                "first_name": "jaro_winkler",
                "last_name": "jaro_winkler",
                "phone": "levenshtein",
            },
            "threshold": 0.75,
        })
        prepared = pipeline.prepare(make_person_benchmark(300, seed=3).dataset)
        candidates = pipeline.generate_candidates(prepared)
        built = []

        def counting(cls):
            init = cls.__init__

            def counting_init(self, *args, **kwargs):
                built.append(cls)
                init(self, *args, **kwargs)

            return counting_init

        monkeypatch.setattr(SimilarityVector, "__init__", counting(SimilarityVector))
        monkeypatch.setattr(
            attribute_matching, "_vector", lambda *args: built.append(args)
        )
        monkeypatch.setattr(ScoredPair, "__init__", counting(ScoredPair))
        vectors = pipeline.compare_candidates(prepared, candidates)
        scored = pipeline.score_vectors(vectors)
        assert len(scored) == len(candidates) >= COLUMNAR_MIN_PAIRS
        assert built == []
        accepted = pipeline.accept(scored)
        assert 0 < len(accepted) < len(scored)
        assert built == [ScoredPair] * len(accepted)
