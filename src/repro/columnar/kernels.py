"""Batch similarity kernels over columnar value-id blocks.

Each kernel scores one attribute for a whole block of candidate pairs
at once, given the two value-id arrays of the block.  The block engine
(:mod:`repro.columnar.compare`) deduplicates the block down to its
*distinct* value-id pairs first — the same two strings are never scored
twice — and every kernel guarantees **bitwise identity** with its
scalar counterpart in :mod:`repro.matching.similarity`:

* set-overlap kernels (token/n-gram Jaccard, overlap coefficient)
  count intersections over the store's sorted interned-id arrays; the
  counts are exact integers, so the final divisions produce the very
  same doubles as the scalar ``len(a & b) / len(a | b)``;
* the numeric kernel evaluates the scalar's relative-distance formula
  elementwise in ``float64`` — IEEE-754 basic operations are
  deterministic, so each lane equals the scalar result bit for bit;
* the Levenshtein, Jaro and Jaro–Winkler kernels turn the block's
  distinct string pairs into padded code-point matrices and run the
  scalar algorithms one character position at a time across all pairs
  (length-sorted chunks bound the temporaries); distances, match and
  transposition counts are exact integers fed to the scalar's own
  float expressions;
* the Monge–Elkan kernel memoizes the scalar per distinct string pair
  and its *inner* token-level similarity across the whole corpus
  vocabulary (identity by construction);
* the TF-IDF cosine kernel walks precomputed sparse id-weight arrays
  in the exact insertion order the scalar dot product uses, so even
  the float summation order matches.

:func:`plan_for` inspects an
:class:`~repro.matching.attribute_matching.AttributeComparator` and
returns a :class:`KernelPlan` when *every* configured measure has a
kernel — otherwise the caller falls back to the scalar loop.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.columnar.store import ColumnarStore
from repro.matching.attribute_matching import AttributeComparator
from repro.matching.similarity import (
    TfIdfCosine,
    exact,
    jaro,
    jaro_winkler,
    levenshtein,
    monge_elkan,
    ngram_jaccard,
    numeric_similarity,
    overlap_coefficient,
    soundex_similarity,
    token_jaccard,
)

__all__ = [
    "Kernel",
    "KernelPlan",
    "plan_for",
    "kernel_for",
    "levenshtein_distances",
]


class Kernel:
    """Scores the distinct value-id pairs of one attribute block.

    ``unique_scores`` receives two equal-length ``int64`` arrays of
    non-null value ids (the deduplicated block) and returns one
    ``float64`` score per pair, bitwise equal to the scalar measure on
    the corresponding strings.
    """

    name = "kernel"

    def unique_scores(
        self, store: ColumnarStore, vids_a: np.ndarray, vids_b: np.ndarray
    ) -> np.ndarray:
        raise NotImplementedError

    def warm(self, store: ColumnarStore) -> None:
        """Precompute the derived arrays this kernel reads from ``store``.

        Called at layout time (:meth:`MatchingPipeline.prepare`) so the
        scoring pass itself touches only ready-made arrays — the columnar
        analogue of paying import/layout cost at load, not per query.
        """


# -- set-overlap kernels -----------------------------------------------------


def _gather_csr(
    indptr: np.ndarray, ids: np.ndarray, vids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten the CSR rows of ``vids`` into (pair-index, id) arrays.

    Returns ``(rows, flat_ids, counts)`` where ``rows[k]`` is the
    position within ``vids`` owning ``flat_ids[k]``; rows ascend and
    each row's ids stay sorted, so the flattened keys below are
    globally sorted.
    """
    counts = indptr[vids + 1] - indptr[vids]
    total = int(counts.sum())
    rows = np.repeat(np.arange(len(vids), dtype=np.int64), counts)
    if total == 0:
        return rows, np.empty(0, dtype=np.int64), counts
    cumulative = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        cumulative - counts, counts
    )
    flat = ids[np.repeat(indptr[vids], counts) + offsets]
    return rows, flat, counts


def _intersection_sizes(
    store_csr: tuple[np.ndarray, np.ndarray],
    vids_a: np.ndarray,
    vids_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-pair ``(|A ∩ B|, |A|, |B|)`` over sorted interned-id rows.

    Encodes every (pair, id) membership as ``pair * stride + id`` and
    intersects the two sorted key arrays in one vectorized pass — the
    list-based batch processing move of the columnar-graph-DBMS
    literature, applied to similarity sets.
    """
    indptr, ids = store_csr
    rows_a, flat_a, counts_a = _gather_csr(indptr, ids, vids_a)
    rows_b, flat_b, counts_b = _gather_csr(indptr, ids, vids_b)
    stride = int(ids.max()) + 1 if len(ids) else 1
    keys_a = rows_a * stride + flat_a
    keys_b = rows_b * stride + flat_b
    common = np.intersect1d(keys_a, keys_b, assume_unique=True)
    intersections = np.bincount(
        common // stride, minlength=len(vids_a)
    ).astype(np.int64)
    return intersections, counts_a.astype(np.int64), counts_b.astype(np.int64)


class TokenJaccardKernel(Kernel):
    """Vectorized :func:`~repro.matching.similarity.token_jaccard`."""

    name = "token_jaccard"

    def _csr(self, store: ColumnarStore) -> tuple[np.ndarray, np.ndarray]:
        return store.token_csr()

    def warm(self, store):
        self._csr(store)

    def unique_scores(self, store, vids_a, vids_b):
        inter, len_a, len_b = _intersection_sizes(
            self._csr(store), vids_a, vids_b
        )
        union = len_a + len_b - inter
        scores = np.divide(
            inter,
            union,
            out=np.ones(len(union), dtype=np.float64),
            where=union > 0,  # both empty -> 1.0, like the scalar
        )
        return scores


class NgramJaccardKernel(TokenJaccardKernel):
    """Vectorized :func:`~repro.matching.similarity.ngram_jaccard`."""

    name = "ngram_jaccard"

    def __init__(self, n: int = 2) -> None:
        self.n = n

    def _csr(self, store: ColumnarStore) -> tuple[np.ndarray, np.ndarray]:
        return store.ngram_csr(self.n)


class OverlapKernel(Kernel):
    """Vectorized :func:`~repro.matching.similarity.overlap_coefficient`."""

    name = "overlap"

    def warm(self, store):
        store.token_csr()

    def unique_scores(self, store, vids_a, vids_b):
        inter, len_a, len_b = _intersection_sizes(
            store.token_csr(), vids_a, vids_b
        )
        smaller = np.minimum(len_a, len_b)
        # Scalar: either side empty -> 1.0 iff both empty, else 0.0.
        empty_side = smaller == 0
        both_empty = (len_a == 0) & (len_b == 0)
        scores = np.divide(
            inter,
            smaller,
            out=np.zeros(len(smaller), dtype=np.float64),
            where=~empty_side,
        )
        scores[both_empty] = 1.0
        return scores


# -- elementwise kernels -----------------------------------------------------


class ExactKernel(Kernel):
    """Interned-id equality — one vectorized comparison per pair."""

    name = "exact"

    def unique_scores(self, store, vids_a, vids_b):
        return np.where(vids_a == vids_b, 1.0, 0.0)


class SoundexKernel(Kernel):
    """Vectorized Soundex-code equality with the sentinel fallback."""

    name = "soundex"

    def warm(self, store):
        store.soundex_codes()

    def unique_scores(self, store, vids_a, vids_b):
        codes = store.soundex_codes()
        code_a = codes[vids_a]
        code_b = codes[vids_b]
        # Sentinel code 0 = not encodable -> exact string equality,
        # which interning reduces to value-id equality.
        sentinel = (code_a == 0) | (code_b == 0)
        return np.where(
            sentinel,
            np.where(vids_a == vids_b, 1.0, 0.0),
            np.where(code_a == code_b, 1.0, 0.0),
        )


class NumericKernel(Kernel):
    """Vectorized :func:`~repro.matching.similarity.numeric_similarity`.

    Evaluates the scalar's relative-distance formula lane by lane with
    the same IEEE-754 ``float64`` operations (same operand order, same
    rounding), so every lane is bitwise equal to the scalar result.
    """

    name = "numeric"

    def __init__(self, tolerance: float = 0.2) -> None:
        self.tolerance = tolerance

    def warm(self, store):
        store.numeric()

    def unique_scores(self, store, vids_a, vids_b):
        parsed, usable = store.numeric()
        value_a = parsed[vids_a]
        value_b = parsed[vids_b]
        both = usable[vids_a] & usable[vids_b]
        scale = np.maximum(np.abs(value_a), np.abs(value_b))
        with np.errstate(divide="ignore", invalid="ignore"):
            relative = np.abs(value_a - value_b) / scale
            linear = 1.0 - relative / self.tolerance
        scores = np.where(
            value_a == value_b,
            1.0,
            np.where(
                scale == 0.0,
                1.0,
                np.where(relative >= self.tolerance, 0.0, linear),
            ),
        )
        # Unparsable / non-finite values: exact string equality.
        return np.where(both, scores, np.where(vids_a == vids_b, 1.0, 0.0))


# -- string kernels ----------------------------------------------------------

# Distinct pairs scored per numpy pass.  Pairs are sorted by length
# first, so each chunk pads only to its own longest string; the chunk
# size bounds every (pairs x length) temporary.
_STRING_CHUNK = 2048


def _code_points(strings: list[str], width: int) -> np.ndarray:
    """``(len(strings), width)`` ``uint32`` code points, zero-padded.

    Padding is indistinguishable from a real NUL character, so callers
    mask by the Python ``len()`` of each string, never by the codes.
    """
    width = max(width, 1)
    return (
        np.array(strings, dtype=f"<U{width}")
        .view(np.uint32)
        .reshape(len(strings), width)
    )


def _length_sorted_chunks(
    firsts: Sequence[str], seconds: Sequence[str], score_chunk, dtype
) -> np.ndarray:
    """``score_chunk`` over every ``(firsts[k], seconds[k])``, in input order.

    Sorts the pairs by their longer side and scores them in chunks of
    :data:`_STRING_CHUNK`, each padded only to its own longest string.
    """
    count = len(firsts)
    len_a = np.fromiter(map(len, firsts), dtype=np.int64, count=count)
    len_b = np.fromiter(map(len, seconds), dtype=np.int64, count=count)
    order = np.argsort(np.maximum(len_a, len_b), kind="stable")
    results = np.empty(count, dtype=dtype)
    for start in range(0, count, _STRING_CHUNK):
        chunk = order[start : start + _STRING_CHUNK]
        chunk_a, chunk_b = len_a[chunk], len_b[chunk]
        positions = chunk.tolist()
        results[chunk] = score_chunk(
            _code_points([firsts[i] for i in positions], int(chunk_a.max())),
            chunk_a,
            _code_points([seconds[i] for i in positions], int(chunk_b.max())),
            chunk_b,
        )
    return results


def _levenshtein_chunk(
    codes_a: np.ndarray, len_a: np.ndarray, codes_b: np.ndarray, len_b: np.ndarray
) -> np.ndarray:
    """Exact edit distances of one chunk of padded code-point pairs.

    Runs the full edit-distance table one left character at a time for
    every pair of the chunk.  Within a row the left-neighbour
    recurrence ``D[i, j] = min(x[j], D[i, j-1] + 1)`` is a prefix
    minimum, ``min_k<=j (x[k] - k) + j``, so each row is a handful of
    array operations.
    """
    columns = np.arange(codes_b.shape[1] + 1, dtype=np.int64)
    row = np.broadcast_to(columns, (len(len_a), len(columns))).copy()
    distance = len_b.copy()  # D[0, len_b]: the empty left strings
    step = np.empty_like(row)
    for i in range(1, int(len_a.max()) + 1):
        substitute = codes_b != codes_a[:, i - 1, None]
        step[:, 0] = i
        np.minimum(row[:, 1:] + 1, row[:, :-1] + substitute, out=step[:, 1:])
        row = np.minimum.accumulate(step - columns, axis=1) + columns
        done = np.flatnonzero(len_a == i)
        distance[done] = row[done, len_b[done]]
    return distance


def levenshtein_distances(
    firsts: Sequence[str], seconds: Sequence[str]
) -> np.ndarray:
    """Exact edit distance of every ``(firsts[k], seconds[k])`` (``int64``).

    The batch form of
    :func:`~repro.matching.similarity.levenshtein_distance`, shared by
    :class:`LevenshteinKernel` and error categorization's typo step.
    """
    return _length_sorted_chunks(firsts, seconds, _levenshtein_chunk, np.int64)


class StringKernel(Kernel):
    """Scores distinct string pairs in length-sorted numpy chunks.

    Subclasses implement :meth:`score_chunk` over two padded code-point
    matrices plus the true lengths; this base class gathers the strings
    and leaves sorting, chunking and scattering to
    :func:`_length_sorted_chunks`.
    """

    def unique_scores(self, store, vids_a, vids_b):
        values = store.values
        firsts = [values[vid] for vid in vids_a.tolist()]
        seconds = [values[vid] for vid in vids_b.tolist()]
        return _length_sorted_chunks(firsts, seconds, self.score_chunk, np.float64)

    def score_chunk(
        self,
        codes_a: np.ndarray,
        len_a: np.ndarray,
        codes_b: np.ndarray,
        len_b: np.ndarray,
    ) -> np.ndarray:
        raise NotImplementedError


class LevenshteinKernel(StringKernel):
    """Vectorized :func:`~repro.matching.similarity.levenshtein`.

    Distances come from :func:`_levenshtein_chunk` as exact integers,
    and the final ``1.0 - d / max(len)`` is the scalar's own expression.
    """

    name = "levenshtein"

    def score_chunk(self, codes_a, len_a, codes_b, len_b):
        distance = _levenshtein_chunk(codes_a, len_a, codes_b, len_b)
        longest = np.maximum(len_a, len_b)
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = 1.0 - distance / longest
        return np.where(longest == 0, 1.0, scores)


class JaroKernel(StringKernel):
    """Vectorized :func:`~repro.matching.similarity.jaro`.

    Replays the scalar's greedy matching one left position at a time:
    the candidate cells of a pair are the unmatched right characters
    equal to the left one inside that pair's own window, and ``argmax``
    takes the first, as the scalar's ``break`` does.  Transpositions
    compare the matched characters of both sides in order.
    """

    name = "jaro"

    def score_chunk(self, codes_a, len_a, codes_b, len_b):
        columns = np.arange(codes_b.shape[1])
        window = np.maximum(np.maximum(len_a, len_b) // 2 - 1, 0)[:, None]
        in_b = columns < len_b[:, None]
        open_b = in_b.copy()  # right cells still free to match
        matched_a = np.zeros(codes_a.shape, dtype=bool)
        for i in range(int(len_a.max())):
            candidates = (
                open_b
                & (codes_b == codes_a[:, i, None])
                & (np.abs(columns - i) <= window)
                & (i < len_a)[:, None]
            )
            hit = np.flatnonzero(candidates.any(axis=1))
            open_b[hit, candidates[hit].argmax(axis=1)] = False
            matched_a[hit, i] = True
        matched_b = in_b & ~open_b
        matches = matched_a.sum(axis=1)
        owner = np.nonzero(matched_a)[0]
        crossed = codes_a[matched_a] != codes_b[matched_b]
        transpositions = np.bincount(owner[crossed], minlength=len(len_a)) // 2
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = (
                matches / len_a
                + matches / len_b
                + (matches - transpositions) / matches
            ) / 3.0
        scores = np.where(matches == 0, 0.0, scores)
        return np.where((len_a == 0) & (len_b == 0), 1.0, scores)


class JaroWinklerKernel(JaroKernel):
    """Vectorized :func:`~repro.matching.similarity.jaro_winkler`.

    Boosts only when the Jaro score *exceeds* 0.7, by the common prefix
    of up to four characters at the scalar's default weight of 0.1.
    """

    name = "jaro_winkler"

    def score_chunk(self, codes_a, len_a, codes_b, len_b):
        base = super().score_chunk(codes_a, len_a, codes_b, len_b)
        width = min(4, codes_a.shape[1], codes_b.shape[1])
        same = (codes_a[:, :width] == codes_b[:, :width]) & (
            np.arange(width) < np.minimum(len_a, len_b)[:, None]
        )
        prefix = np.logical_and.accumulate(same, axis=1).sum(axis=1)
        return np.where(base > 0.7, base + prefix * 0.1 * (1.0 - base), base)


# -- memoized Monge–Elkan ----------------------------------------------------


@lru_cache(maxsize=262144)
def _cached_inner_jaro_winkler(token_a: str, token_b: str) -> float:
    """Monge–Elkan's inner measure, memoized over the token vocabulary."""
    return jaro_winkler(token_a, token_b)


@lru_cache(maxsize=131072)
def _cached_monge_elkan(first: str, second: str) -> float:
    """:func:`~repro.matching.similarity.monge_elkan` with default inner.

    Re-implements the scalar's exact loop structure (same summation
    order, same ``max`` scan) on top of the memoized inner measure —
    bitwise identical, but each distinct token pair costs one Jaro–
    Winkler evaluation per process instead of one per value pair.
    """
    from repro.matching.similarity import _token_tuple

    def one_way(tokens_a, tokens_b):
        if not tokens_a:
            return 1.0 if not tokens_b else 0.0
        if not tokens_b:
            return 0.0
        return sum(
            max(_cached_inner_jaro_winkler(token_a, token_b) for token_b in tokens_b)
            for token_a in tokens_a
        ) / len(tokens_a)

    tokens_a = _token_tuple(first)
    tokens_b = _token_tuple(second)
    return (one_way(tokens_a, tokens_b) + one_way(tokens_b, tokens_a)) / 2.0


class MemoizedKernel(Kernel):
    """Distinct-pair memoization around a scalar measure."""

    def __init__(self, name: str, function) -> None:
        self.name = name
        self._function = function

    def unique_scores(self, store, vids_a, vids_b):
        values = store.values
        function = self._function
        return np.fromiter(
            (
                function(values[vid_a], values[vid_b])
                for vid_a, vid_b in zip(vids_a.tolist(), vids_b.tolist())
            ),
            dtype=np.float64,
            count=len(vids_a),
        )


class TfIdfKernel(Kernel):
    """TF-IDF cosine over precomputed sparse id-weight arrays.

    Bound to one fitted :class:`~repro.matching.similarity.TfIdfCosine`
    instance.  Per distinct value the kernel materializes the
    instance's TF-IDF vector once as parallel (token, weight) arrays in
    *insertion order* plus a lookup dict; the per-pair dot product then
    walks the left arrays in that same order, so the float summation
    matches the scalar ``sum()`` addition for addition.
    """

    name = "tfidf_cosine"

    def __init__(self, measure: TfIdfCosine) -> None:
        self.measure = measure
        # value -> (tokens tuple, weights tuple, norm, weight dict)
        self._sparse: dict[str, tuple] = {}
        self._memo: dict[tuple[int, int], float] = {}

    def _vector(self, value: str):
        cached = self._sparse.get(value)
        if cached is None:
            vector, norm = self.measure._cached_vector(value)
            cached = (
                tuple(vector.keys()),
                tuple(vector.values()),
                norm,
                vector,
            )
            self._sparse[value] = cached
        return cached

    def _score(self, first: str, second: str) -> float:
        tokens_a, weights_a, norm_a, _ = self._vector(first)
        _, _, norm_b, vector_b = self._vector(second)
        if not tokens_a and not vector_b:
            return 1.0
        if norm_a == 0.0 or norm_b == 0.0:
            return 0.0
        lookup = vector_b.get
        dot = sum(
            weight * lookup(token, 0.0)
            for token, weight in zip(tokens_a, weights_a)
        )
        return min(1.0, dot / (norm_a * norm_b))

    def unique_scores(self, store, vids_a, vids_b):
        values = store.values
        memo = self._memo
        out = np.empty(len(vids_a), dtype=np.float64)
        for position, (vid_a, vid_b) in enumerate(
            zip(vids_a.tolist(), vids_b.tolist())
        ):
            key = (vid_a, vid_b)
            score = memo.get(key)
            if score is None:
                score = self._score(values[vid_a], values[vid_b])
                memo[key] = score
            out[position] = score
        return out


# -- planning ----------------------------------------------------------------


@dataclass(frozen=True)
class KernelPlan:
    """The per-attribute kernels of one fully kernelizable comparator."""

    attributes: tuple[str, ...]
    kernels: tuple[Kernel, ...]

    def warm(self, store: ColumnarStore) -> None:
        """Precompute every derived array the plan's kernels will read."""
        for kernel in self.kernels:
            kernel.warm(store)


def _builders():
    return {
        exact: lambda: ExactKernel(),
        levenshtein: lambda: LevenshteinKernel(),
        jaro: lambda: JaroKernel(),
        jaro_winkler: lambda: JaroWinklerKernel(),
        token_jaccard: lambda: TokenJaccardKernel(),
        overlap_coefficient: lambda: OverlapKernel(),
        ngram_jaccard: lambda: NgramJaccardKernel(),
        monge_elkan: lambda: MemoizedKernel("monge_elkan", _cached_monge_elkan),
        soundex_similarity: lambda: SoundexKernel(),
        numeric_similarity: lambda: NumericKernel(),
    }


_KERNEL_BUILDERS = _builders()


def kernel_for(function) -> Kernel | None:
    """The batch kernel equivalent to one similarity function, if any.

    Matches the *built-in* measures by function identity (a wrapped or
    partially-applied variant could behave differently, so it gets no
    kernel) and fitted :class:`TfIdfCosine` instances by type.
    """
    try:
        builder = _KERNEL_BUILDERS.get(function)
    except TypeError:  # unhashable callable
        builder = None
    if builder is not None:
        return builder()
    if type(function) is TfIdfCosine:
        return TfIdfKernel(function)
    return None


def plan_for(comparator) -> KernelPlan | None:
    """A :class:`KernelPlan` for ``comparator``, or ``None``.

    Only exact :class:`AttributeComparator` instances qualify (a
    subclass may override ``compare``), and only when every configured
    attribute maps to a kernelizable measure — partial kernelization
    would split one pair's scoring across two code paths for no gain.
    """
    if type(comparator) is not AttributeComparator:
        return None
    attributes: list[str] = []
    kernels: list[Kernel] = []
    for attribute, function in comparator.functions.items():
        kernel = kernel_for(function)
        if kernel is None:
            return None
        attributes.append(attribute)
        kernels.append(kernel)
    return KernelPlan(attributes=tuple(attributes), kernels=tuple(kernels))
