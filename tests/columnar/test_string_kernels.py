"""Vectorized Levenshtein, Jaro and Jaro–Winkler kernels vs. the scalars.

The scalar measures in :mod:`repro.matching.similarity` are the oracle:
every kernel lane must equal the scalar score bit for bit, on arbitrary
text and across the length-sorted chunking of large inputs.
"""

import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import ColumnarStore
from repro.columnar.kernels import (
    _STRING_CHUNK,
    JaroKernel,
    JaroWinklerKernel,
    LevenshteinKernel,
    levenshtein_distances,
)
from repro.datagen import make_person_benchmark
from repro.matching.similarity import (
    jaro,
    jaro_winkler,
    levenshtein,
    levenshtein_distance,
)
from repro.streaming import build_pipeline_and_index
from repro.telemetry import get_tracer

KERNELS = [
    (LevenshteinKernel, levenshtein),
    (JaroKernel, jaro),
    (JaroWinklerKernel, jaro_winkler),
]
KERNEL_IDS = ["levenshtein", "jaro", "jaro_winkler"]

# A small alphabet makes equal characters (and so Jaro matches and
# transpositions) common; NUL and an astral code point probe the
# padded code-point layout.
FEW_CHARS = st.sampled_from(["a", "b", "c", "\x00", "é", "\U0001F600"])
TEXT = st.one_of(
    st.text(FEW_CHARS, max_size=80),
    st.text(max_size=24),
    st.text(FEW_CHARS, max_size=8).map(lambda value: value + "\x00"),
)


def pool_of(values):
    """A store whose interning pool is ``values`` (vid i+1 is values[i]).

    Built directly rather than from records, so the kernels also see
    the empty string, which record interning maps to null.
    """
    return ColumnarStore(["a"], [], [None, *values], {"a": np.empty(0)})


def bits(value):
    return struct.pack("<d", value)


def assert_bitwise(kernel, function, values, vids_a, vids_b):
    scores = kernel.unique_scores(pool_of(values), vids_a, vids_b)
    assert len(scores) == len(vids_a)
    for vid_a, vid_b, score in zip(vids_a.tolist(), vids_b.tolist(), scores.tolist()):
        first, second = values[vid_a - 1], values[vid_b - 1]
        assert bits(score) == bits(function(first, second)), (first, second)


@pytest.mark.parametrize("kernel_class, function", KERNELS, ids=KERNEL_IDS)
@settings(max_examples=80, deadline=None)
@given(values=st.lists(TEXT, min_size=1, max_size=12))
def test_kernel_is_bitwise_the_scalar_on_arbitrary_text(
    kernel_class, function, values
):
    """All ordered pairs of the values, equal strings included."""
    vids = np.arange(1, len(values) + 1, dtype=np.int64)
    grid_a, grid_b = np.meshgrid(vids, vids, indexing="ij")
    assert_bitwise(
        kernel_class(), function, values, grid_a.ravel(), grid_b.ravel()
    )


@pytest.mark.parametrize("kernel_class, function", KERNELS, ids=KERNEL_IDS)
def test_chunked_scoring_scatters_back_to_input_order(kernel_class, function):
    """More distinct pairs than one chunk, mixed lengths, shuffled order:
    the length sort, per-chunk padding and scatter-back all run."""
    rng = random.Random(14)
    alphabet = "abcde \x00é\U0001F600"

    def text():
        length = rng.choice([0, 1, 2, 3, 5, 8, 12, 20, 33, 47, 80])
        return "".join(rng.choice(alphabet) for _ in range(length))

    values = sorted({text() for _ in range(600)})
    count = 2 * _STRING_CHUNK + 37
    vids_a = np.array(
        [rng.randrange(1, len(values) + 1) for _ in range(count)], dtype=np.int64
    )
    vids_b = np.array(
        [rng.randrange(1, len(values) + 1) for _ in range(count)], dtype=np.int64
    )
    vids_b[:50] = vids_a[:50]  # some equal strings too
    assert_bitwise(kernel_class(), function, values, vids_a, vids_b)


class TestWinklerBoundary:
    """The boost applies only when the Jaro score *exceeds* 0.7.

    No short string pair lands on the exact double 0.7, so pin the base
    Jaro lanes to the boundary, as the scalar's own boundary test does.
    """

    def boosted(self, monkeypatch, base):
        monkeypatch.setattr(
            JaroKernel,
            "score_chunk",
            lambda self, codes_a, len_a, codes_b, len_b: np.full(len(len_a), base),
        )
        values = ["prefix-a", "prefix-b"]
        vids = np.array([1], dtype=np.int64)
        return JaroWinklerKernel().unique_scores(pool_of(values), vids, vids + 1)[0]

    def test_no_boost_at_exactly_threshold(self, monkeypatch):
        assert self.boosted(monkeypatch, 0.7) == 0.7

    def test_boost_just_above_threshold(self, monkeypatch):
        above = math.nextafter(0.7, 1.0)
        assert self.boosted(monkeypatch, above) == above + 4 * 0.1 * (1.0 - above)


def test_batch_mix_trace_has_one_kernel_span_per_attribute():
    """Jaro–Winkler on three fields and Levenshtein on the phone: the
    columnar comparison span carries one child span per measure."""
    config = {
        "key": {"kind": "prefix", "attribute": "zip", "length": 3},
        "similarities": {
            "first_name": "jaro_winkler",
            "last_name": "jaro_winkler",
            "street": "jaro_winkler",
            "phone": "levenshtein",
        },
        "threshold": 0.75,
    }
    benchmark = make_person_benchmark(300, seed=1)
    pipeline, _ = build_pipeline_and_index(config)
    prepared = pipeline.prepare(benchmark.dataset)
    candidates = pipeline.generate_candidates(prepared)
    tracer = get_tracer()
    tracer.reset()
    tracer.enable()
    try:
        pipeline.compare_candidates(prepared, candidates)
    finally:
        tracer.disable()
    (similarity,) = [s for s in tracer.roots() if s.name == "pipeline.similarity"]
    tracer.reset()
    (columnar,) = similarity.children
    assert columnar.name == "comparison.columnar"
    kernels = columnar.children
    assert [child.name for child in kernels] == ["comparison.kernel"] * 4
    assert [
        (child.annotations["attribute"], child.annotations["kernel"])
        for child in kernels
    ] == [
        ("first_name", "jaro_winkler"),
        ("last_name", "jaro_winkler"),
        ("street", "jaro_winkler"),
        ("phone", "levenshtein"),
    ]
    for child in kernels:
        assert 0 < child.annotations["distinct"] <= len(candidates)


@settings(max_examples=80, deadline=None)
@given(pairs=st.lists(st.tuples(TEXT, TEXT), max_size=12))
def test_batched_distances_equal_the_scalar_distance(pairs):
    distances = levenshtein_distances(
        [first for first, _ in pairs], [second for _, second in pairs]
    )
    assert distances.dtype == np.int64
    assert distances.tolist() == [
        levenshtein_distance(first, second) for first, second in pairs
    ]


def test_batched_distances_keep_input_order_across_chunks():
    rng = random.Random(11)
    firsts = [
        "".join(rng.choice("abc") for _ in range(rng.randrange(0, 12)))
        for _ in range(_STRING_CHUNK + 300)
    ]
    seconds = [value[::-1] + "a" for value in firsts]
    assert levenshtein_distances(firsts, seconds).tolist() == [
        levenshtein_distance(first, second) for first, second in zip(firsts, seconds)
    ]
