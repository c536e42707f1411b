"""Tests for the threshold timeline with efficient rewinds (App. D outlook)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Dataset,
    DiagramTimeline,
    Experiment,
    GoldStandard,
    Record,
    compute_diagram_optimized,
)
from repro.core.clustering import Clustering


def _random_case(seed, n=25, matches=30):
    rng = random.Random(seed)
    dataset = Dataset([Record(f"r{i}", {}) for i in range(n)], name="rand")
    assignment = {f"r{i}": str(rng.randrange(max(1, n // 2))) for i in range(n)}
    gold = GoldStandard.from_assignment(assignment)
    matches = min(matches, n * (n - 1) // 2)
    pairs = set()
    while len(pairs) < matches:
        a, b = rng.sample(range(n), 2)
        pairs.add((f"r{min(a, b)}", f"r{max(a, b)}"))
    experiment = Experiment(
        [(a, b, rng.random()) for a, b in sorted(pairs)], name="rand-run"
    )
    return dataset, experiment, gold


class TestMatrixAt:
    @pytest.mark.parametrize("checkpoint_every", [1, 3, 7, 1000])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_diagram_at_every_sampled_threshold(
        self, seed, checkpoint_every
    ):
        """matrix_at(t) must agree with the one-pass diagram algorithm."""
        dataset, experiment, gold = _random_case(seed)
        timeline = DiagramTimeline(
            dataset, experiment, gold, checkpoint_every=checkpoint_every
        )
        points = compute_diagram_optimized(
            dataset, experiment, gold, samples=len(experiment) + 1
        )
        for point in points:
            assert timeline.matrix_at(point.threshold) == point.matrix

    def test_rewind_equals_fresh_query(self):
        """Backwards jumps return the same matrices as forward ones."""
        dataset, experiment, gold = _random_case(1)
        timeline = DiagramTimeline(dataset, experiment, gold, checkpoint_every=5)
        thresholds = [0.1, 0.9, 0.5, 0.95, 0.2, 0.8]
        forward = {t: timeline.matrix_at(t) for t in sorted(thresholds)}
        for threshold in thresholds:  # deliberately non-monotone order
            assert timeline.matrix_at(threshold) == forward[threshold]

    def test_infinite_threshold_is_empty_experiment(self):
        dataset, experiment, gold = _random_case(2)
        timeline = DiagramTimeline(dataset, experiment, gold)
        matrix = timeline.matrix_at(math.inf)
        assert matrix.true_positives == 0
        assert matrix.false_positives == 0
        assert matrix.false_negatives == gold.pair_count()

    def test_threshold_zero_applies_everything(self):
        dataset, experiment, gold = _random_case(3)
        timeline = DiagramTimeline(dataset, experiment, gold)
        matrix = timeline.matrix_at(0.0)
        closed = experiment.clustering().pair_count()
        assert matrix.predicted_positives == closed

    def test_matches_at_boundaries(self):
        dataset = Dataset([Record(x, {}) for x in "abcd"])
        gold = GoldStandard.from_pairs([("a", "b")])
        experiment = Experiment([("a", "b", 0.9), ("c", "d", 0.5)])
        timeline = DiagramTimeline(dataset, experiment, gold)
        assert timeline.matches_at(math.inf) == 0
        assert timeline.matches_at(0.91) == 0
        assert timeline.matches_at(0.9) == 1
        assert timeline.matches_at(0.5) == 2
        assert timeline.matches_at(0.0) == 2

    def test_unscored_match_rejected(self):
        dataset = Dataset([Record(x, {}) for x in "ab"])
        gold = GoldStandard.from_pairs([("a", "b")])
        with pytest.raises(ValueError, match="unscored"):
            DiagramTimeline(dataset, Experiment([("a", "b")]), gold)

    def test_bad_checkpoint_interval_rejected(self):
        dataset, experiment, gold = _random_case(4)
        with pytest.raises(ValueError, match="checkpoint interval"):
            DiagramTimeline(dataset, experiment, gold, checkpoint_every=0)

    def test_empty_experiment(self):
        dataset = Dataset([Record(x, {}) for x in "abc"])
        gold = GoldStandard.from_pairs([("a", "b")])
        timeline = DiagramTimeline(dataset, Experiment([]), gold)
        assert len(timeline) == 0
        assert timeline.matrix_at(0.5).predicted_positives == 0


class TestSegment:
    def _closure_pairs(self, dataset, experiment, threshold):
        subset = experiment.threshold_subset(threshold)
        return Clustering.from_pairs(subset.pairs()).pairs()

    @pytest.mark.parametrize("seed", range(5))
    def test_segment_equals_closure_difference(self, seed):
        """The segment must equal the diff of the two full closures."""
        dataset, experiment, gold = _random_case(seed, n=15, matches=20)
        timeline = DiagramTimeline(dataset, experiment, gold, checkpoint_every=4)
        high, low = 0.7, 0.3
        expected_gain = self._closure_pairs(
            dataset, experiment, low
        ) - self._closure_pairs(dataset, experiment, high)
        segment = timeline.segment(high, low)
        gained = segment.new_true_positives | segment.new_false_positives
        assert gained == expected_gain

    def test_segment_labels_against_gold(self):
        dataset = Dataset([Record(x, {}) for x in "abcd"])
        gold = GoldStandard.from_pairs([("a", "b")])
        experiment = Experiment(
            [("a", "b", 0.9), ("c", "d", 0.6), ("b", "c", 0.4)]
        )
        segment = DiagramTimeline(dataset, experiment, gold).segment(1.0, 0.5)
        assert segment.new_true_positives == {("a", "b")}
        assert segment.new_false_positives == {("c", "d")}

    def test_segment_includes_closure_pairs(self):
        """Merging two clusters reports all cross pairs, not just the match."""
        dataset = Dataset([Record(x, {}) for x in "abcd"])
        gold = GoldStandard.from_assignment(
            {"a": "g", "b": "g", "c": "g", "d": "g"}
        )
        experiment = Experiment(
            [("a", "b", 0.9), ("c", "d", 0.8), ("b", "c", 0.5)]
        )
        segment = DiagramTimeline(dataset, experiment, gold).segment(0.6, 0.5)
        # merging {a,b} with {c,d} gains 4 cross pairs
        assert segment.new_true_positives == {
            ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
        }

    def test_empty_range(self):
        dataset, experiment, gold = _random_case(6)
        timeline = DiagramTimeline(dataset, experiment, gold)
        segment = timeline.segment(math.inf, 1.01)
        assert not segment.new_true_positives
        assert not segment.new_false_positives

    def test_invalid_range_rejected(self):
        dataset, experiment, gold = _random_case(7)
        timeline = DiagramTimeline(dataset, experiment, gold)
        with pytest.raises(ValueError, match="high > low"):
            timeline.segment(0.3, 0.7)
        with pytest.raises(ValueError, match="high > low"):
            timeline.segment(0.5, 0.5)

    @given(st.integers(min_value=0, max_value=5000))
    @settings(max_examples=20, deadline=None)
    def test_adjacent_segments_partition_full_range(self, seed):
        """Segments over [1, m] and [m, 0] together equal [1, 0]."""
        rng = random.Random(seed)
        dataset, experiment, gold = _random_case(
            seed, n=rng.randrange(5, 15), matches=rng.randrange(2, 15)
        )
        timeline = DiagramTimeline(dataset, experiment, gold, checkpoint_every=3)
        middle = rng.random() * 0.8 + 0.1
        top = timeline.segment(2.0, middle)
        bottom = timeline.segment(middle, -0.1)
        full = timeline.segment(2.0, -0.1)
        union_true = top.new_true_positives | bottom.new_true_positives
        union_false = top.new_false_positives | bottom.new_false_positives
        assert union_true == full.new_true_positives
        assert union_false == full.new_false_positives
        assert not (top.new_true_positives & bottom.new_true_positives)
        assert not (top.new_false_positives & bottom.new_false_positives)


class TestLazyCheckpoints:
    def test_construction_takes_no_checkpoint(self):
        dataset, experiment, gold = _random_case(0)
        timeline = DiagramTimeline(dataset, experiment, gold)
        assert timeline._checkpoints is None
        timeline.matrix_at(0.5)
        assert timeline._checkpoints is not None

    @given(
        st.integers(min_value=0, max_value=5000),
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=-0.1, max_value=1.1),
        st.floats(min_value=-0.1, max_value=1.1),
    )
    @settings(max_examples=40, deadline=None)
    def test_segment_then_matrix_at_equals_diagram(
        self, seed, checkpoint_every, first, second
    ):
        """segment() builds no checkpoint, and matrix_at afterwards
        still agrees with the one-pass diagram at every threshold."""
        rng = random.Random(seed)
        dataset, experiment, gold = _random_case(
            seed, n=rng.randrange(4, 20), matches=rng.randrange(0, 25)
        )
        timeline = DiagramTimeline(
            dataset, experiment, gold, checkpoint_every=checkpoint_every
        )
        if first != second:
            timeline.segment(max(first, second), min(first, second))
        assert timeline._checkpoints is None
        points = compute_diagram_optimized(
            dataset, experiment, gold, samples=len(experiment) + 1
        )
        for point in points:
            assert timeline.matrix_at(point.threshold) == point.matrix

    @given(st.integers(min_value=0, max_value=5000))
    @settings(max_examples=30, deadline=None)
    def test_segment_labels_equal_gold_lookup(self, seed):
        """Integer truth labels split pairs exactly as the gold does,
        including records the gold clustering never mentions."""
        rng = random.Random(seed)
        n = rng.randrange(4, 20)
        dataset = Dataset([Record(f"r{i}", {}) for i in range(n)], name="rand")
        gold = GoldStandard(
            clustering=Clustering(
                [f"r{i}" for i in range(start, min(n, start + 3))]
                for start in range(0, n, 5)
            )
        )
        pairs = {
            tuple(sorted(rng.sample([f"r{i}" for i in range(n)], 2)))
            for _ in range(rng.randrange(1, 30))
        }
        experiment = Experiment([(a, b, rng.random()) for a, b in sorted(pairs)])
        segment = DiagramTimeline(dataset, experiment, gold).segment(2.0, -1.0)
        assert all(gold.is_duplicate(*p) for p in segment.new_true_positives)
        assert not any(gold.is_duplicate(*p) for p in segment.new_false_positives)
