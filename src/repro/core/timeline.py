"""Interactive threshold-timeline exploration (Appendix D outlook).

"An interesting extension to metric/metric diagrams is a timeline
feature in which new true positives and false positives between two
similarity thresholds are shown. [...] the dynamic intersection and
union find data structure lack the functionality to 'revert' merges:
whenever the user selects a similarity threshold range starting before
the end of the previous range, O(|D|) time is necessary to reset the
clusterings. [...] a useful next step is to develop an algorithm for
efficiently reverting merges."

:class:`DiagramTimeline` implements that next step with *sparse
checkpointing*: one forward pass over the matches snapshots the
experiment union-find and the dynamic intersection every ``k`` matches.
Jumping to an arbitrary threshold then restores the nearest checkpoint
at or before it and replays at most ``k`` matches — amortized
``O(|D| / c + k)`` per jump for ``c`` checkpoints instead of a full
``O(|D| + |Matches|)`` rebuild, and crucially independent of the
direction of the jump (rewinds cost the same as advances).

Checkpoints are built lazily, on the first :meth:`DiagramTimeline.matrix_at`.
Until then a timeline holds ``O(|Matches| + |D|)`` integers — the sorted
scores, the matches as numeric id pairs and the ground-truth cluster
index of every record — so the platform can keep one per (experiment,
gold) cheaply.  :meth:`DiagramTimeline.segment` never needs the
checkpoints: it replays the experiment union-find alone and labels the
gained pairs with the integer truth indices.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass

from repro.core.confusion import ConfusionMatrix
from repro.core.diagrams import _sorted_scored_matches, _truth_index_array
from repro.core.experiment import Experiment, GoldStandard
from repro.core.intersection import DynamicIntersection
from repro.core.pairs import Pair
from repro.core.records import Dataset
from repro.core.unionfind import PairCountingUnionFind

__all__ = ["TimelineSegment", "DiagramTimeline"]


@dataclass(frozen=True)
class TimelineSegment:
    """New classifications appearing between two thresholds.

    All pairs that the transitively closed experiment gains when the
    threshold drops from ``high`` (exclusive) to ``low`` (inclusive),
    split by their ground-truth label.

    Attributes
    ----------
    high / low:
        The threshold range explored (``high > low``).
    new_true_positives:
        Closure pairs gained in the range that are true duplicates.
    new_false_positives:
        Closure pairs gained in the range that are not.
    """

    high: float
    low: float
    new_true_positives: frozenset[Pair]
    new_false_positives: frozenset[Pair]


class _Checkpoint:
    """State after applying a prefix of the sorted match list."""

    __slots__ = ("applied", "clusters", "intersection")

    def __init__(
        self,
        applied: int,
        clusters: PairCountingUnionFind,
        intersection: DynamicIntersection,
    ) -> None:
        self.applied = applied
        self.clusters = clusters
        self.intersection = intersection


class DiagramTimeline:
    """Random-access threshold exploration with efficient rewinds.

    Parameters
    ----------
    dataset / experiment / gold:
        As for :func:`~repro.core.diagrams.compute_diagram_optimized`;
        every match needs a similarity score.
    checkpoint_every:
        Snapshot interval in matches.  Defaults to
        ``max(1, |Matches| // 16)`` — 17 snapshots bound both the
        memory overhead and the replay cost per jump.  Snapshots are
        taken on the first :meth:`matrix_at`, not at construction.

    A timeline is safe to share between threads.
    """

    def __init__(
        self,
        dataset: Dataset,
        experiment: Experiment,
        gold: GoldStandard,
        checkpoint_every: int | None = None,
    ) -> None:
        matches = _sorted_scored_matches(experiment)
        if checkpoint_every is None:
            checkpoint_every = max(1, len(matches) // 16)
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint interval must be >= 1, got {checkpoint_every}"
            )
        self._checkpoint_every = checkpoint_every
        self._dataset = dataset
        self._truth_pairs = gold.pair_count()
        self._total_pairs = dataset.total_pairs()
        # descending scores, negated for bisect (ascending order)
        self._negated_scores = [-match.score for match in matches]
        numeric_id = dataset.numeric_id
        self._numeric_pairs = [
            (numeric_id(first), numeric_id(second))
            for first, second in (match.pair for match in matches)
        ]
        self._truth_of = _truth_index_array(dataset, gold)
        self._checkpoints: list[_Checkpoint] | None = None
        self._checkpoint_lock = threading.Lock()

    def _built_checkpoints(self) -> list[_Checkpoint]:
        """The snapshots, taken on first use."""
        with self._checkpoint_lock:
            if self._checkpoints is None:
                self._checkpoints = self._take_checkpoints()
            return self._checkpoints

    def _take_checkpoints(self) -> list[_Checkpoint]:
        """One forward pass, snapshotting every ``checkpoint_every`` matches."""
        clusters = PairCountingUnionFind(len(self._truth_of))
        intersection = DynamicIntersection(self._truth_of)
        checkpoints = [_Checkpoint(0, clusters.copy(), intersection.copy())]
        last = len(self._numeric_pairs)
        for applied, numeric_pair in enumerate(self._numeric_pairs, start=1):
            merges = clusters.tracked_union([numeric_pair])
            intersection.update(merges)
            if applied % self._checkpoint_every == 0 or applied == last:
                checkpoints.append(
                    _Checkpoint(applied, clusters.copy(), intersection.copy())
                )
        return checkpoints

    # -- position arithmetic ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._numeric_pairs)

    def matches_at(self, threshold: float) -> int:
        """How many matches have ``score >= threshold``."""
        if math.isinf(threshold) and threshold > 0:
            return 0
        return bisect.bisect_right(self._negated_scores, -threshold)

    def _state_at(
        self, applied: int
    ) -> tuple[PairCountingUnionFind, DynamicIntersection]:
        """Clusterings after the first ``applied`` matches.

        Restores the nearest checkpoint at or before ``applied`` and
        replays the remaining matches — never more than the checkpoint
        interval, regardless of the previous query position.
        """
        checkpoints = self._built_checkpoints()
        index = bisect.bisect_right(
            [checkpoint.applied for checkpoint in checkpoints], applied
        ) - 1
        checkpoint = checkpoints[index]
        clusters = checkpoint.clusters.copy()
        intersection = checkpoint.intersection.copy()
        for numeric_pair in self._numeric_pairs[checkpoint.applied : applied]:
            merges = clusters.tracked_union([numeric_pair])
            intersection.update(merges)
        return clusters, intersection

    # -- queries ---------------------------------------------------------------------

    def matrix_at(self, threshold: float) -> ConfusionMatrix:
        """Confusion matrix of the closed experiment at ``threshold``.

        Jumps may move backwards ("revert merges") at the same cost as
        forwards.  The first call takes the checkpoints.
        """
        applied = self.matches_at(threshold)
        clusters, intersection = self._state_at(applied)
        return ConfusionMatrix.from_counts(
            tp=intersection.pair_count,
            experiment_pairs=clusters.pair_count,
            truth_pairs=self._truth_pairs,
            total_pairs=self._total_pairs,
        )

    def segment(self, high: float, low: float) -> TimelineSegment:
        """New TP and FP closure pairs gained when lowering the
        threshold from ``high`` to ``low`` (the timeline feature of the
        Appendix D outlook).

        Replays the experiment union-find over the matches scoring at
        least ``high`` from scratch — no checkpoint and no dynamic
        intersection, so a timeline that only serves segments never
        takes its snapshots.  Gained pairs are then enumerated as the
        merge products of the matches in the range and labelled by
        comparing ground-truth cluster indices.  The cost is
        ``O(|D| + matches_at(low))`` union-find work plus the output
        size — not a diff of two full transitive closures.
        """
        if not high > low:
            raise ValueError(
                f"need high > low, got high={high!r}, low={low!r}"
            )
        start = self.matches_at(high)
        stop = self.matches_at(low)
        truth_of = self._truth_of
        clusters = PairCountingUnionFind(len(truth_of))
        for first, second in self._numeric_pairs[:start]:
            clusters.union(first, second)
        # root element -> members, materialized once in O(|D|)
        members: dict[int, list[int]] = {}
        for element in range(len(truth_of)):
            members.setdefault(clusters.find(element), []).append(element)
        native = self._dataset.native_id

        # Pairs gained by different merges are disjoint, so lists need
        # no deduplication until the final frozensets.
        new_true: list[Pair] = []
        new_false: list[Pair] = []
        for first, second in self._numeric_pairs[start:stop]:
            root_a = clusters.find(first)
            root_b = clusters.find(second)
            if root_a == root_b:
                continue
            side_a = members.pop(root_a)
            side_b = members.pop(root_b)
            ids_a = [native(element) for element in side_a]
            ids_b = [native(element) for element in side_b]
            truths_b = [truth_of[element] for element in side_b]
            for element_a, id_a in zip(side_a, ids_a):
                truth_a = truth_of[element_a]
                for id_b, truth_b in zip(ids_b, truths_b):
                    pair = (id_a, id_b) if id_a <= id_b else (id_b, id_a)
                    if truth_b == truth_a:
                        new_true.append(pair)
                    else:
                        new_false.append(pair)
            clusters.union(first, second)
            members[clusters.find(first)] = side_a + side_b
        return TimelineSegment(
            high=high,
            low=low,
            new_true_positives=frozenset(new_true),
            new_false_positives=frozenset(new_false),
        )
