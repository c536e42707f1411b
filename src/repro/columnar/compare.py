"""Block comparison engine over columnar stores.

:func:`compare_block` is the columnar counterpart of
:func:`repro.matching.attribute_matching.compare_pairs`: it scores a
whole block of candidate pairs attribute by attribute instead of pair
by pair.  Per attribute it

1. gathers the two value-id lanes of the block from the store's
   columns (two vectorized index operations),
2. masks null lanes (value id 0) — those comparisons stay NaN
   (``None`` in the vectors), exactly like the scalar path's
   missing-value handling,
3. packs the remaining ``(vid_a, vid_b)`` lanes into 64-bit keys and
   deduplicates them with one ``np.unique`` — real-world blocks repeat
   the same value pairs constantly (blocking groups similar records),
   so the kernels score each *distinct* value pair once,
4. scatters the distinct scores back over the block.

Each attribute's pass runs under its own ``comparison.kernel`` span,
annotated with the attribute, the kernel and the distinct-pair count,
so a trace attributes the comparison time measure by measure.

The scores land in one ``(pairs × attributes)`` float64 matrix, NaN
where a comparison is missing, returned as a
:class:`~repro.matching.attribute_matching.SimilarityMatrix`.  It
builds no vector itself: the vectors it yields on demand are
byte-identical to the scalar loop's (same pairs, same attribute order,
same Python ``float`` scores, ``None`` for missing) — every kernel
guarantees bitwise score equality and the null/argument-order
semantics are reproduced exactly.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.columnar.kernels import KernelPlan
from repro.columnar.store import NULL_VID, ColumnarStore
from repro.core.pairs import Pair
from repro.matching.attribute_matching import SimilarityMatrix
from repro.telemetry.metrics import get_metrics
from repro.telemetry.spans import span

__all__ = ["compare_block"]

_KERNEL_PAIRS = get_metrics().counter(
    "frost_kernel_pairs_total",
    "Candidate pairs scored through the columnar batch kernels",
)
_KERNEL_DISTINCT = get_metrics().counter(
    "frost_kernel_distinct_pairs_total",
    "Distinct (attribute, value-pair) scores computed by batch kernels",
)
_KERNEL_FALLBACK = get_metrics().counter(
    "frost_kernel_fallback_pairs_total",
    "Candidate pairs scored via the scalar fallback (no kernel plan)",
)
_STORE_BUILDS = get_metrics().counter(
    "frost_kernel_store_builds_total",
    "Columnar stores built for comparison blocks",
)


def count_store_build() -> None:
    """Record one columnar store construction (wiring call sites)."""
    _STORE_BUILDS.inc()


def count_fallback(pairs: int) -> None:
    """Record candidate pairs that took the scalar fallback path."""
    if pairs:
        _KERNEL_FALLBACK.inc(pairs)


def compare_block(
    store: ColumnarStore,
    pairs: Sequence[Pair],
    plan: KernelPlan,
) -> SimilarityMatrix:
    """Similarity matrix of ``pairs``, scored by batch kernels.

    ``pairs`` must already be canonical (:func:`repro.core.pairs.make_pair`)
    and ordered by the caller; row ``i`` belongs to the i-th pair.
    """
    scores = np.full(
        (len(pairs), len(plan.attributes)), np.nan, dtype=np.float64, order="F"
    )
    if not pairs:
        return SimilarityMatrix(pairs, plan.attributes, scores)
    with span(
        "comparison.columnar",
        pairs=len(pairs),
        attributes=len(plan.attributes),
        rows=len(store),
    ):
        row_index = store.row_index
        rows = np.fromiter(
            (row_index[record_id] for pair in pairs for record_id in pair),
            dtype=np.int64,
            count=2 * len(pairs),
        ).reshape(-1, 2)
        rows_a = np.ascontiguousarray(rows[:, 0])
        rows_b = np.ascontiguousarray(rows[:, 1])
        distinct_total = 0
        for lane, attribute, kernel in zip(
            scores.T, plan.attributes, plan.kernels
        ):
            with span(
                "comparison.kernel", attribute=attribute, kernel=kernel.name
            ) as kernel_span:
                column = store.column(attribute).astype(np.int64, copy=False)
                vids_a = column[rows_a]
                vids_b = column[rows_b]
                present = (vids_a != NULL_VID) & (vids_b != NULL_VID)
                distinct = 0
                if present.any():
                    packed = (vids_a[present] << 32) | vids_b[present]
                    unique, inverse = np.unique(packed, return_inverse=True)
                    unique_scores = kernel.unique_scores(
                        store,
                        unique >> 32,
                        unique & np.int64(0xFFFFFFFF),
                    )
                    lane[present] = unique_scores[inverse]
                    distinct = len(unique)
                kernel_span.annotate(distinct=distinct)
            distinct_total += distinct
        _KERNEL_PAIRS.inc(len(pairs))
        if distinct_total:
            _KERNEL_DISTINCT.inc(distinct_total)
        return SimilarityMatrix(pairs, plan.attributes, scores)
