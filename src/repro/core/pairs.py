"""Canonical record pairs.

A record pair is an *unordered* set of two distinct record ids
(Section 1.2: ``{r1, r2} ⊆ D``).  We canonicalize pairs as sorted
2-tuples so that they hash and compare consistently, and provide a
:class:`ScoredPair` that additionally carries the similarity/confidence
score a matching solution attached to the pair, plus
:class:`ScoredPairs`, the array-backed sequence of them that a
vectorized decision model returns.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Pair",
    "ScoredPair",
    "ScoredPairs",
    "make_pair",
    "canonical_pairs",
    "pair_key",
]

Pair = tuple[str, str]


def make_pair(first: str, second: str) -> Pair:
    """Canonical unordered pair of two distinct record ids.

    Raises
    ------
    ValueError
        If both ids are equal (a pair is a set of *two* records).
    """
    if first == second:
        raise ValueError(f"a record pair needs two distinct records, got {first!r} twice")
    if first <= second:
        return (first, second)
    return (second, first)


def pair_key(pair: Iterable[str]) -> Pair:
    """Canonicalize any iterable of two ids into a :data:`Pair`."""
    first, second = pair
    return make_pair(first, second)


def canonical_pairs(pairs: Iterable[Iterable[str]]) -> set[Pair]:
    """Canonicalize and deduplicate an iterable of id pairs."""
    return {pair_key(pair) for pair in pairs}


@dataclass(frozen=True, order=True)
class ScoredPair:
    """A record pair together with the similarity score assigned to it.

    Ordering sorts by ``(score, pair)`` so that a descending sort visits
    high-confidence matches first, with ties broken deterministically.
    """

    score: float
    pair: Pair

    @classmethod
    def of(cls, first: str, second: str, score: float) -> "ScoredPair":
        """Build the canonical pair of two record ids."""
        return cls(score=score, pair=make_pair(first, second))

    @property
    def first(self) -> str:
        """The lexicographically smaller record id."""
        return self.pair[0]

    @property
    def second(self) -> str:
        """The lexicographically larger record id."""
        return self.pair[1]


class ScoredPairs(Sequence[ScoredPair]):
    """Scored pairs held as a pair list plus one float64 score array.

    What a vectorized decision model produces: ``scores[i]`` is the
    score of ``pairs[i]``.  Indexing and iteration build
    :class:`ScoredPair` objects on demand and the view compares equal
    to the list of scored pairs it stands for; :meth:`at_least`
    thresholds the whole array with one mask and builds objects only
    for the pairs it keeps.
    """

    __slots__ = ("pairs", "scores")

    def __init__(self, pairs: Sequence[Pair], scores: np.ndarray) -> None:
        if scores.shape != (len(pairs),):
            raise ValueError(
                f"scores of shape {scores.shape} do not cover {len(pairs)} pairs"
            )
        self.pairs = pairs
        self.scores = scores

    def __len__(self) -> int:
        return len(self.pairs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ScoredPairs(self.pairs[index], self.scores[index])
        return ScoredPair(score=float(self.scores[index]), pair=self.pairs[index])

    def __iter__(self):
        for score, pair in zip(self.scores.tolist(), self.pairs):
            yield ScoredPair(score=score, pair=pair)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ScoredPairs(pairs={len(self)})"

    def at_least(self, threshold: float) -> list[ScoredPair]:
        """The scored pairs with ``score >= threshold``, in order."""
        kept = np.flatnonzero(self.scores >= threshold)
        pairs = self.pairs
        return [
            ScoredPair(score=score, pair=pairs[index])
            for index, score in zip(kept.tolist(), self.scores[kept].tolist())
        ]
