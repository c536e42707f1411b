"""Columnar/scalar equivalence: kernels vs. the scalar loop, fallback, wiring."""

import json
import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pairs import make_pair
from repro.core.records import Dataset, Record
from repro.graph.build import GraphUpdater
from repro.matching.attribute_matching import (
    AttributeComparator,
    compare_pairs,
    resolve_candidates,
)
from repro.matching.blocking import first_token_key, standard_blocking
from repro.matching.pipeline import COLUMNAR_MIN_PAIRS, MatchingPipeline
from repro.matching.similarity import SIMILARITY_FUNCTIONS
from repro.storage.database import FrostStore
from repro.telemetry import get_tracer
from repro.telemetry.metrics import get_metrics

FIRST = ["alice", "alicia", "bob", "robert", "carol", "karol", "dave"]
LAST = ["smith", "smyth", "jones", "johnson", "miller", "muller"]
CITY = ["berlin", "potsdam", "hamburg", "munich", ""]
ZIP = ["10115", "10117", "14467", "nan", "inf", None, "80331"]


def person_dataset(count, seed=7):
    rng = random.Random(seed)
    records = [
        Record(
            record_id=f"p{i:04d}",
            values={
                "first_name": rng.choice(FIRST),
                "last_name": rng.choice(LAST),
                "city": rng.choice(CITY),
                "zip": rng.choice(ZIP),
            },
        )
        for i in range(count)
    ]
    return Dataset(records, name="people")


def comparator():
    return AttributeComparator({
        "first_name": "jaro_winkler",
        "last_name": "monge_elkan",
        "city": "ngram_jaccard",
        "zip": "numeric",
    })


def pipeline(comparator_=None):
    return MatchingPipeline(
        candidate_generator=lambda d: standard_blocking(
            d, first_token_key("last_name")
        ),
        comparator=comparator_ or comparator(),
        decision_model=lambda v: v.mean(),
        threshold=0.8,
    )


def scalar(records, pairs, comparator_=None):
    """The scalar oracle: the per-pair loop over the resolvable pairs."""
    ordered, resolved, _ = resolve_candidates(records, pairs)
    return compare_pairs(resolved, ordered, comparator_ or comparator())


def kernel_pairs():
    return get_metrics().counter("frost_kernel_pairs_total").value


def bits(value):
    return None if value is None else struct.pack("<d", value)


def assert_identical(vectors_a, vectors_b):
    assert len(vectors_a) == len(vectors_b)
    for left, right in zip(vectors_a, vectors_b):
        assert left.pair == right.pair
        assert list(left.values) == list(right.values)
        for attribute in left.values:
            assert bits(left.values[attribute]) == bits(
                right.values[attribute]
            ), (attribute, left.pair)


@pytest.fixture
def dataset():
    return person_dataset(120)


@pytest.fixture
def candidates(dataset):
    return standard_blocking(dataset, first_token_key("last_name"))


class TestKernelEquivalence:
    def test_compare_candidates_matches_scalar_loop(self, dataset, candidates):
        before = kernel_pairs()
        fast = pipeline().compare_candidates(dataset, candidates)
        assert len(fast) >= COLUMNAR_MIN_PAIRS
        assert kernel_pairs() - before == len(fast)  # the kernels ran
        assert_identical(scalar(dataset, candidates), fast)

    def test_small_blocks_fall_back_to_scalar_loop(self, dataset):
        # below the gate the scalar loop runs; output identical anyway
        pairs = sorted(
            standard_blocking(dataset, first_token_key("last_name"))
        )[: COLUMNAR_MIN_PAIRS - 1]
        before = kernel_pairs()
        fast = pipeline().compare_candidates(dataset, pairs)
        assert kernel_pairs() == before
        assert_identical(scalar(dataset, pairs), fast)

    def test_record_mapping_without_store(self, dataset, candidates):
        # streaming passes a plain id -> record mapping: the stage
        # interns just the touched records
        registry = {record.record_id: record for record in dataset}
        fast = pipeline().compare_candidates(registry, candidates)
        assert_identical(scalar(dataset, candidates), fast)

    def test_prepared_layout_reused(self, dataset, candidates):
        pipe = pipeline()
        prepared = pipe.prepare(dataset)
        builds = get_metrics().counter("frost_kernel_store_builds_total")
        before = builds.value
        fast = pipe.compare_candidates(prepared, candidates)
        assert builds.value == before  # prepare() built the layout
        assert_identical(scalar(prepared, candidates), fast)


class TestDispatch:
    """Which path runs is decided by block size alone, at the gate."""

    @pytest.mark.parametrize(
        "count, span_name",
        [
            (0, "comparison.serial"),
            (1, "comparison.serial"),
            (COLUMNAR_MIN_PAIRS - 1, "comparison.serial"),
            (COLUMNAR_MIN_PAIRS, "comparison.columnar"),
            (COLUMNAR_MIN_PAIRS + 1, "comparison.columnar"),
        ],
        ids=["empty", "one", "below-gate", "at-gate", "above-gate"],
    )
    def test_block_size_selects_the_path(self, dataset, candidates, count, span_name):
        pairs = sorted(candidates)[:count]
        assert len(pairs) == count
        compared = get_metrics().counter("frost_comparison_pairs_total")
        before = compared.value
        tracer = get_tracer()
        tracer.reset()
        tracer.enable()
        try:
            fast = pipeline().compare_candidates(dataset, pairs)
        finally:
            tracer.disable()
        (similarity,) = [
            span for span in tracer.roots() if span.name == "pipeline.similarity"
        ]
        assert [child.name for child in similarity.children] == [span_name]
        assert similarity.children[0].annotations["pairs"] == count
        assert similarity.annotations["vectors"] == count
        tracer.reset()
        assert compared.value - before == count
        assert_identical(scalar(dataset, pairs), fast)

    @pytest.mark.parametrize(
        "count",
        [COLUMNAR_MIN_PAIRS - 1, COLUMNAR_MIN_PAIRS + 1],
        ids=["below-gate", "above-gate"],
    )
    def test_null_lanes_are_none_never_nan(self, dataset, candidates, count):
        """Missing comparisons surface as ``None`` on both paths — in the
        vectors (iterated and indexed) and in the graph edge breakdowns
        serialized from them — never as the matrix's NaN."""
        pairs = sorted(candidates)[:count]
        pipe = pipeline()
        vectors = pipe.compare_candidates(dataset, pairs)
        for values in (
            [vector.values for vector in vectors],
            [vectors[index].values for index in range(len(vectors))],
        ):
            lanes = [value for row in values for value in row.values()]
            assert None in lanes  # the block really has null lanes
            assert not any(
                isinstance(value, float) and math.isnan(value) for value in lanes
            )
        store = FrostStore(":memory:")
        updater = GraphUpdater.create(store, "evidence", threshold=0.8)
        updater.apply_batch(
            [(index, record.record_id) for index, record in enumerate(dataset)],
            pipe.score_vectors(vectors),
            vectors,
        )
        edges = store.load_graph("evidence")["edges"]
        assert len(edges) == count
        breakdowns = [edge[4] for edge in edges]
        assert not any("NaN" in breakdown for breakdown in breakdowns)
        assert any(
            None in json.loads(breakdown).values() for breakdown in breakdowns
        )
        store.close()

    def test_attribute_absent_from_dataset_scores_none(self, dataset, candidates):
        """A compared attribute the prepared layout lacks forces a fresh
        store; both paths report the missing attribute as ``None``."""
        wider = AttributeComparator({
            "first_name": "jaro_winkler",
            "nickname": "jaro_winkler",
        })
        pipe = pipeline(wider)
        prepared = pipe.prepare(dataset)
        builds = get_metrics().counter("frost_kernel_store_builds_total")
        before = builds.value
        fast = pipe.compare_candidates(prepared, candidates)
        assert builds.value == before + 1
        assert fast and all(v.values["nickname"] is None for v in fast)
        assert_identical(scalar(prepared, candidates, wider), fast)


class TestFallback:
    def test_unkernelizable_measure_falls_back(self, dataset, candidates):
        def custom(a, b):
            return 0.25

        mixed = AttributeComparator(
            {"first_name": "jaro_winkler", "last_name": custom}
        )
        fallback = get_metrics().counter("frost_kernel_fallback_pairs_total")
        before = fallback.value
        vectors = pipeline(mixed).compare_candidates(dataset, candidates)
        assert fallback.value > before
        assert all(
            vector.values["last_name"] in (0.25, None) for vector in vectors
        )
        assert_identical(scalar(dataset, candidates, mixed), vectors)

    def test_missing_records_skipped_same_as_scalar(self, dataset):
        pairs = sorted(
            standard_blocking(dataset, first_token_key("last_name"))
        )
        pairs.append(("p0000", "zz-gone"))
        _, _, missing = resolve_candidates(dataset, pairs)
        assert missing == ["zz-gone"]
        fast = pipeline().compare_candidates(dataset, pairs)
        assert all("zz-gone" not in vector.pair for vector in fast)
        assert_identical(scalar(dataset, pairs), fast)


class TestPipelineRun:
    def test_run_matches_scalar_loop(self, dataset):
        run = pipeline().run(dataset)
        slow = scalar(run.prepared, run.candidates)
        assert_identical(run.vectors, slow)
        assert [
            (sp.pair, bits(sp.score)) for sp in run.scored_pairs
        ] == [(vector.pair, bits(vector.mean())) for vector in slow]


class TestTelemetry:
    def test_kernel_counters_advance(self, dataset, candidates):
        metrics = get_metrics()
        pairs_counter = metrics.counter("frost_kernel_pairs_total")
        distinct_counter = metrics.counter("frost_kernel_distinct_pairs_total")
        builds_counter = metrics.counter("frost_kernel_store_builds_total")
        before = (
            pairs_counter.value,
            distinct_counter.value,
            builds_counter.value,
        )
        pipeline().compare_candidates(dataset, candidates)
        assert pairs_counter.value > before[0]
        assert distinct_counter.value > before[1]
        assert builds_counter.value > before[2]


VALUES = st.one_of(
    st.none(),
    st.sampled_from(FIRST + LAST + CITY + ["10115", "12.5", "-3", "nan"]),
    st.text(max_size=12),
)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(VALUES, min_size=9, max_size=16))
def test_kernels_match_scalar_loop_on_arbitrary_values(values):
    """Every built-in measure, all pairs of arbitrary (null, empty,
    numeric-looking, unicode) values: kernels equal the scalar loop."""
    records = {
        f"r{i:02d}": Record(
            f"r{i:02d}", {name: value for name in SIMILARITY_FUNCTIONS}
        )
        for i, value in enumerate(values)
    }
    every = AttributeComparator({name: name for name in SIMILARITY_FUNCTIONS})
    pairs = {make_pair(a, b) for a in records for b in records if a != b}
    before = kernel_pairs()
    fast = pipeline(every).compare_candidates(records, pairs)
    assert kernel_pairs() - before == len(pairs)  # >= 36 pairs: kernels ran
    assert_identical(scalar(records, pairs, every), fast)
