"""Similarity-based attribute value matching (pipeline step 3, §1.2).

Computes, for each candidate pair, a vector of per-attribute similarity
values — the feature representation consumed by the decision models of
step 4.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.pairs import Pair
from repro.core.records import Dataset, Record
from repro.matching.similarity import SIMILARITY_FUNCTIONS, Similarity

__all__ = [
    "AttributeComparator",
    "COMPENSATED_SUM",
    "SimilarityMatrix",
    "SimilarityVector",
    "compare_pairs",
    "resolve_candidates",
    "row_sums",
]

# CPython 3.12 made ``sum()`` over floats Neumaier-compensated; earlier
# interpreters add left to right (``sum([0.1, 0.2, 0.3])`` differs).
# Array code promising the bits of a Python ``sum()`` follows the
# running interpreter.
COMPENSATED_SUM = sys.version_info >= (3, 12)


@dataclass(frozen=True)
class SimilarityVector:
    """Per-attribute similarities of one candidate pair.

    ``values[attribute]`` is the similarity in ``[0, 1]``, or ``None``
    when either record is null in that attribute (missing comparisons
    are distinguished from zero similarity so that decision models can
    handle sparsity explicitly, cf. §4.5.2).
    """

    pair: Pair
    values: Mapping[str, float | None]

    def dense(self, attributes: Sequence[str], missing: float = 0.0) -> list[float]:
        """Vector over ``attributes`` with ``missing`` for null comparisons."""
        return [
            self.values.get(attribute) if self.values.get(attribute) is not None
            else missing
            for attribute in attributes
        ]

    def mean(self) -> float:
        """Mean of the non-missing similarities (0.0 if all missing)."""
        present = [v for v in self.values.values() if v is not None]
        if not present:
            return 0.0
        return sum(present) / len(present)


def _vector(pair: Pair, values: dict[str, float | None]) -> SimilarityVector:
    # Construct the frozen vector the way pickle revives it (__new__
    # plus a __dict__ write): the generated __init__ costs two
    # object.__setattr__ calls, which dominates when a whole block of
    # vectors is materialized.
    vector = SimilarityVector.__new__(SimilarityVector)
    vector.__dict__["pair"] = pair
    vector.__dict__["values"] = values
    return vector


def row_sums(
    values: np.ndarray,
    present: np.ndarray,
    compensated: bool = COMPENSATED_SUM,
) -> np.ndarray:
    """Per row, the builtin ``sum()`` of the present entries, bit for bit.

    ``values`` and ``present`` are ``(n, k)``; entries are added column
    by column, left to right, as ``sum()`` visits a row's list.  With
    ``compensated`` each addition also carries Neumaier's running error
    term, added back at the end when it is finite and nonzero — what
    CPython 3.12+ does for a sum of floats.
    """
    total = np.zeros(len(values))
    error = np.zeros(len(values))
    for column in range(values.shape[1]):
        mask = present[:, column]
        lane = np.where(mask, values[:, column], 0.0)
        step = total + lane
        if compensated:
            term = np.where(
                np.abs(total) >= np.abs(lane),
                (total - step) + lane,
                (lane - step) + total,
            )
            error = np.where(mask, error + term, error)
        total = np.where(mask, step, total)
    if compensated:
        total = np.where(
            (error != 0.0) & np.isfinite(error), total + error, total
        )
    return total


class SimilarityMatrix(Sequence[SimilarityVector]):
    """The similarity vectors of a block of pairs, as one score matrix.

    ``scores[i, j]`` is the similarity of ``pairs[i]`` in
    ``attributes[j]``; NaN marks a missing comparison (no measure
    scores NaN — every one returns a number in ``[0, 1]``).  Indexing
    and iteration build :class:`SimilarityVector` objects on demand,
    with ``None`` for NaN, and a matrix compares equal to the list of
    vectors it stands for — so callers that read vectors never see the
    difference, while decision models with an array scorer read
    ``scores`` directly.
    """

    __slots__ = ("pairs", "attributes", "scores")

    def __init__(
        self,
        pairs: Sequence[Pair],
        attributes: Sequence[str],
        scores: np.ndarray,
    ) -> None:
        if scores.shape != (len(pairs), len(attributes)):
            raise ValueError(
                f"scores of shape {scores.shape} do not cover "
                f"{len(pairs)} pairs x {len(attributes)} attributes"
            )
        self.pairs = pairs
        self.attributes = tuple(attributes)
        self.scores = scores

    def __len__(self) -> int:
        return len(self.pairs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SimilarityMatrix(
                self.pairs[index], self.attributes, self.scores[index]
            )
        row = self.scores[index].tolist()
        return _vector(
            self.pairs[index],
            {
                attribute: None if value != value else value
                for attribute, value in zip(self.attributes, row)
            },
        )

    def __iter__(self):
        # Per attribute: the score lane as a Python list, with ``None``
        # punched in wherever the comparison is missing.
        lanes = []
        for scores in self.scores.T:
            lane = scores.tolist()
            for position in np.flatnonzero(np.isnan(scores)).tolist():
                lane[position] = None
            lanes.append(lane)
        rows = zip(*lanes) if lanes else [()] * len(self)
        attributes = self.attributes
        for pair, row in zip(self.pairs, rows):
            yield _vector(pair, dict(zip(attributes, row)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"SimilarityMatrix(pairs={len(self)}, "
            f"attributes={self.attributes!r})"
        )

    def mean(self) -> np.ndarray:
        """:meth:`SimilarityVector.mean` of every row, bit for bit."""
        present = ~np.isnan(self.scores)
        counts = present.sum(axis=1)
        means = np.zeros(len(self))
        np.divide(
            row_sums(self.scores, present), counts, out=means, where=counts > 0
        )
        return means


class AttributeComparator:
    """Configurable per-attribute similarity computation.

    Parameters
    ----------
    config:
        Mapping from attribute name to a similarity function or the
        name of a built-in one (see
        :data:`repro.matching.similarity.SIMILARITY_FUNCTIONS`).
    """

    def __init__(self, config: Mapping[str, Similarity | str]) -> None:
        if not config:
            raise ValueError("comparator needs at least one attribute")
        self._config: dict[str, Similarity] = {}
        for attribute, function in config.items():
            if isinstance(function, str):
                try:
                    function = SIMILARITY_FUNCTIONS[function]
                except KeyError:
                    known = ", ".join(sorted(SIMILARITY_FUNCTIONS))
                    raise KeyError(
                        f"unknown similarity {function!r}; known: {known}"
                    ) from None
            self._config[attribute] = function

    @property
    def attributes(self) -> list[str]:
        """The attribute names this comparator is configured for."""
        return list(self._config)

    @property
    def functions(self) -> Mapping[str, Similarity]:
        """Attribute → similarity function, in configuration order.

        The public view :func:`repro.columnar.plan_for` inspects to
        decide whether every configured measure has a batch kernel.
        """
        return dict(self._config)

    def compare(self, first: Record, second: Record) -> SimilarityVector:
        """Similarity vector of one record pair."""
        values: dict[str, float | None] = {}
        for attribute, function in self._config.items():
            value_a = first.value(attribute)
            value_b = second.value(attribute)
            if value_a is None or value_b is None:
                values[attribute] = None
            else:
                values[attribute] = function(value_a, value_b)
        from repro.core.pairs import make_pair

        return SimilarityVector(
            pair=make_pair(first.record_id, second.record_id), values=values
        )


def compare_pairs(
    dataset: Dataset,
    pairs: set[Pair] | Sequence[Pair],
    comparator: AttributeComparator,
) -> list[SimilarityVector]:
    """Similarity vectors for all candidate pairs.

    Sequences keep their order — the i-th vector belongs to the i-th
    pair, so vectors stay aligned with external labels.  Unordered sets
    are sorted for determinism.
    """
    ordered = sorted(pairs) if isinstance(pairs, (set, frozenset)) else pairs
    return [
        comparator.compare(dataset[first], dataset[second])
        for first, second in ordered
    ]


def resolve_candidates(
    records, candidates: Iterable[Pair]
) -> tuple[list[Pair], dict[str, Record], list[str]]:
    """Sorted resolvable pairs, their records, and missing record ids.

    ``records`` only needs item access by record id (a
    :class:`~repro.core.records.Dataset`, a mapping, or the streaming
    session's prepared view).  Pairs whose records were deleted between
    blocking and scoring are dropped instead of raising ``KeyError`` —
    the caller decides how loudly to report the returned missing ids.
    """
    ordered = sorted(candidates)
    resolved: dict[str, Record] = {}
    missing: set[str] = set()
    # dict, not set: first-appearance order keeps downstream interning
    # (and therefore the column stores) identical across hash seeds
    for record_id in {rid: None for pair in ordered for rid in pair}:
        try:
            resolved[record_id] = records[record_id]
        except KeyError:
            missing.add(record_id)
    if missing:
        ordered = [
            pair
            for pair in ordered
            if pair[0] not in missing and pair[1] not in missing
        ]
    return ordered, resolved, sorted(missing)
