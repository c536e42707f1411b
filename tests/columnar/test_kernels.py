"""Tests for the batch kernels: planning and per-kernel scalar identity."""

import numpy as np
import pytest

from repro.columnar import ColumnarStore, compare_block, kernel_for, plan_for
from repro.columnar.kernels import (
    ExactKernel,
    JaroKernel,
    JaroWinklerKernel,
    LevenshteinKernel,
    MemoizedKernel,
    NumericKernel,
    TfIdfKernel,
    TokenJaccardKernel,
)
from repro.core.records import Record
from repro.matching.attribute_matching import AttributeComparator
from repro.matching.similarity import (
    SIMILARITY_FUNCTIONS,
    TfIdfCosine,
    jaro_winkler,
)

# Values exercising the corner cases of every measure: nulls are handled
# upstream, so kernels only ever see non-null interned strings.
VALUES = [
    "alice smith",
    "alice  smith",
    "smith alice",
    "bob",
    "  ",
    "12.5",
    "12.0",
    "-12.5",
    "0",
    "0.0",
    "nan",
    "inf",
    "-infinity",
    "1e400",
    "Robert",
    "Rupert",
    "Ashcraft",
    "Tymczak",
    "123",
    "o'brien",
    "a much longer value with several tokens in it",
]


def store_of(values):
    records = {
        f"r{i}": Record(record_id=f"r{i}", values={"a": value})
        for i, value in enumerate(values)
    }
    return ColumnarStore.from_records(records, ["a"])


def all_vid_pairs(store):
    vids = np.arange(1, store.distinct_values + 1, dtype=np.int64)
    grid_a, grid_b = np.meshgrid(vids, vids, indexing="ij")
    return grid_a.ravel(), grid_b.ravel()


@pytest.mark.parametrize("name", sorted(SIMILARITY_FUNCTIONS))
def test_every_builtin_measure_scores_identically(name):
    """Each kernel's unique_scores equals the scalar measure bitwise."""
    function = SIMILARITY_FUNCTIONS[name]
    kernel = kernel_for(function)
    assert kernel is not None, f"no kernel for {name}"
    store = store_of(VALUES)
    vids_a, vids_b = all_vid_pairs(store)
    scores = kernel.unique_scores(store, vids_a, vids_b)
    for vid_a, vid_b, score in zip(
        vids_a.tolist(), vids_b.tolist(), scores.tolist()
    ):
        expected = function(store.value_of(vid_a), store.value_of(vid_b))
        assert score == expected, (
            f"{name}({store.value_of(vid_a)!r}, {store.value_of(vid_b)!r})"
        )
        # bitwise, not just ==: NaN would fail ==, and -0.0 vs 0.0 would
        # pass — assert the repr to close that gap
        assert repr(score) == repr(expected)


def test_tfidf_kernel_scores_identically():
    tfidf = TfIdfCosine(VALUES)
    kernel = kernel_for(tfidf)
    assert isinstance(kernel, TfIdfKernel)
    store = store_of(VALUES)
    vids_a, vids_b = all_vid_pairs(store)
    scores = kernel.unique_scores(store, vids_a, vids_b)
    for vid_a, vid_b, score in zip(
        vids_a.tolist(), vids_b.tolist(), scores.tolist()
    ):
        assert score == tfidf(store.value_of(vid_a), store.value_of(vid_b))


def test_tfidf_kernel_memoizes_distinct_pairs():
    tfidf = TfIdfCosine(VALUES)
    kernel = TfIdfKernel(tfidf)
    store = store_of(VALUES)
    vids = np.array([1, 2, 1, 2, 1, 2], dtype=np.int64)
    kernel.unique_scores(store, vids, vids[::-1])
    assert (1, 2) in kernel._memo


class TestKernelFor:
    def test_unknown_callable_has_no_kernel(self):
        assert kernel_for(lambda a, b: 1.0) is None

    def test_wrapped_builtin_has_no_kernel(self):
        # identity matters: a wrapper could change behaviour
        def wrapped(a, b):
            return jaro_winkler(a, b)

        assert kernel_for(wrapped) is None

    def test_builtin_names_resolve(self):
        assert isinstance(kernel_for(SIMILARITY_FUNCTIONS["exact"]), ExactKernel)
        assert isinstance(
            kernel_for(SIMILARITY_FUNCTIONS["token_jaccard"]), TokenJaccardKernel
        )
        assert isinstance(
            kernel_for(SIMILARITY_FUNCTIONS["numeric"]), NumericKernel
        )
        assert isinstance(
            kernel_for(SIMILARITY_FUNCTIONS["levenshtein"]), LevenshteinKernel
        )
        assert type(kernel_for(SIMILARITY_FUNCTIONS["jaro"])) is JaroKernel
        assert isinstance(
            kernel_for(SIMILARITY_FUNCTIONS["jaro_winkler"]), JaroWinklerKernel
        )
        assert isinstance(
            kernel_for(SIMILARITY_FUNCTIONS["monge_elkan"]), MemoizedKernel
        )

    def test_tfidf_subclass_has_no_kernel(self):
        class Tweaked(TfIdfCosine):
            def __call__(self, first, second):
                return 0.5

        assert kernel_for(Tweaked()) is None


class TestPlanFor:
    def test_full_plan_for_builtin_config(self):
        comparator = AttributeComparator(
            {"name": "jaro_winkler", "zip": "exact"}
        )
        plan = plan_for(comparator)
        assert plan is not None
        assert plan.attributes == ("name", "zip")

    def test_no_plan_when_any_measure_lacks_a_kernel(self):
        comparator = AttributeComparator(
            {"name": "jaro_winkler", "zip": lambda a, b: 0.0}
        )
        assert plan_for(comparator) is None

    def test_no_plan_for_comparator_subclass(self):
        class Custom(AttributeComparator):
            def compare(self, first, second):  # pragma: no cover
                raise NotImplementedError

        assert plan_for(Custom({"name": "exact"})) is None

    def test_no_plan_for_duck_typed_comparator(self):
        class Duck:
            functions = {"name": SIMILARITY_FUNCTIONS["exact"]}

        assert plan_for(Duck()) is None


def test_compare_block_empty_pairs():
    store = store_of(VALUES)
    comparator = AttributeComparator({"a": "exact"})
    assert compare_block(store, [], plan_for(comparator)) == []
