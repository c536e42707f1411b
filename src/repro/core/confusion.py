"""The confusion matrix over record pairs (Figure 2).

Comparing an experiment ``E`` against a ground truth ``G`` on dataset
``D``, both as sets of pairs drawn from ``[D]^2``:

================  =====================
true positives    ``E ∩ G``
false positives   ``E \\ G``
false negatives   ``G \\ E``
true negatives    ``([D]^2 \\ E) \\ G``
================  =====================

The matrix is stored as four counts; all pair-based metrics
(:mod:`repro.metrics.pairwise`) are computed from it in constant time.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.clustering import Clustering
from repro.core.pairs import make_pair

__all__ = ["ConfusionMatrix"]


@dataclass(frozen=True)
class ConfusionMatrix:
    """Pair-level confusion counts of an experiment against a ground truth."""

    true_positives: int
    false_positives: int
    false_negatives: int
    true_negatives: int

    def __post_init__(self) -> None:
        for name, value in (
            ("true_positives", self.true_positives),
            ("false_positives", self.false_positives),
            ("false_negatives", self.false_negatives),
            ("true_negatives", self.true_negatives),
        ):
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_pair_sets(
        cls,
        experiment: Iterable[Iterable[str]],
        ground_truth: Iterable[Iterable[str]],
        total_pairs: int,
    ) -> "ConfusionMatrix":
        """Confusion matrix from explicit pair sets.

        ``total_pairs`` is ``C(|D|, 2)``, needed to derive the true
        negatives (the only quadrant not enumerated by either set).
        """
        experiment_set = {make_pair(*pair) for pair in experiment}
        truth_set = {make_pair(*pair) for pair in ground_truth}
        tp = len(experiment_set & truth_set)
        fp = len(experiment_set) - tp
        fn = len(truth_set) - tp
        tn = total_pairs - tp - fp - fn
        if tn < 0:
            raise ValueError(
                f"total_pairs={total_pairs} too small for the given pair sets"
            )
        return cls(tp, fp, fn, tn)

    @classmethod
    def from_clusterings(
        cls,
        experiment: Clustering,
        ground_truth: Clustering,
        total_pairs: int,
    ) -> "ConfusionMatrix":
        """Confusion matrix from clusterings, in near-linear time.

        Uses the identity TP == pair count of the intersection
        clustering (Appendix D.4), counted by
        :meth:`Clustering.shared_pair_count` without building the
        intersection or materializing pairs: runtime is linear in the
        records of the experiment's non-trivial clusters, not quadratic
        in cluster sizes.
        """
        tp = experiment.shared_pair_count(ground_truth)
        experiment_pairs = experiment.pair_count()
        truth_pairs = ground_truth.pair_count()
        fp = experiment_pairs - tp
        fn = truth_pairs - tp
        tn = total_pairs - tp - fp - fn
        if tn < 0:
            raise ValueError(
                f"total_pairs={total_pairs} too small for the given clusterings"
            )
        return cls(tp, fp, fn, tn)

    @classmethod
    def from_counts(
        cls, tp: int, experiment_pairs: int, truth_pairs: int, total_pairs: int
    ) -> "ConfusionMatrix":
        """Confusion matrix from aggregate counts (used by Algorithm 1)."""
        fp = experiment_pairs - tp
        fn = truth_pairs - tp
        return cls(tp, fp, fn, total_pairs - tp - fp - fn)

    # -- derived ---------------------------------------------------------------

    @property
    def total(self) -> int:
        """All pairs: ``C(|D|, 2)``."""
        return (
            self.true_positives
            + self.false_positives
            + self.false_negatives
            + self.true_negatives
        )

    @property
    def predicted_positives(self) -> int:
        """Pairs the experiment declared matches: ``|E|``."""
        return self.true_positives + self.false_positives

    @property
    def actual_positives(self) -> int:
        """True duplicate pairs: ``|G|``."""
        return self.true_positives + self.false_negatives

    @property
    def predicted_negatives(self) -> int:
        """``FN + TN``: pairs the experiment classified as non-matches."""
        return self.false_negatives + self.true_negatives

    @property
    def actual_negatives(self) -> int:
        """``FP + TN``: pairs that are true non-duplicates."""
        return self.false_positives + self.true_negatives

    def as_dict(self) -> dict[str, int]:
        """The four counts as ``{'tp': ..., 'fp': ..., 'fn': ..., 'tn': ...}``."""
        return {
            "tp": self.true_positives,
            "fp": self.false_positives,
            "fn": self.false_negatives,
            "tn": self.true_negatives,
        }

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        """Element-wise sum, for aggregating per-partition matrices (§4.2.3)."""
        return ConfusionMatrix(
            self.true_positives + other.true_positives,
            self.false_positives + other.false_positives,
            self.false_negatives + other.false_negatives,
            self.true_negatives + other.true_negatives,
        )
