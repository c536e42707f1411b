"""Tests for clusterings, transitive closure, and intersection."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import Clustering, closure_distance, transitive_closure
from repro.core.pairs import make_pair


class TestConstruction:
    def test_from_clusters(self):
        clustering = Clustering([["a", "b"], ["c"]])
        assert len(clustering) == 2
        assert clustering.same_cluster("a", "b")
        assert not clustering.same_cluster("a", "c")

    def test_overlapping_clusters_rejected(self):
        with pytest.raises(ValueError, match="more than one cluster"):
            Clustering([["a", "b"], ["b", "c"]])

    def test_empty_clusters_skipped(self):
        clustering = Clustering([[], ["a"]])
        assert len(clustering) == 1

    def test_from_pairs_transitively_closes(self):
        clustering = Clustering.from_pairs([("a", "b"), ("b", "c")])
        assert clustering.same_cluster("a", "c")

    def test_from_assignment(self):
        clustering = Clustering.from_assignment({"a": "x", "b": "x", "c": "y"})
        assert clustering.same_cluster("a", "b")
        assert not clustering.same_cluster("a", "c")

    def test_equality_ignores_singletons(self):
        with_singleton = Clustering([["a", "b"], ["c"]])
        without = Clustering([["a", "b"]])
        assert with_singleton == without
        assert hash(with_singleton) == hash(without)


class TestQueries:
    def test_cluster_of_unmentioned_record_is_singleton(self):
        clustering = Clustering([["a", "b"]])
        assert clustering.cluster_of("z") == ("z",)

    def test_pairs_of_triangle(self):
        clustering = Clustering([["a", "b", "c"]])
        assert clustering.pairs() == {("a", "b"), ("a", "c"), ("b", "c")}

    def test_pair_count_matches_pairs(self):
        clustering = Clustering([["a", "b", "c"], ["d", "e"]])
        assert clustering.pair_count() == len(clustering.pairs()) == 4

    def test_cluster_sizes_descending(self):
        clustering = Clustering([["a"], ["b", "c", "d"], ["e", "f"]])
        assert clustering.cluster_sizes() == [3, 2, 1]

    def test_records(self):
        clustering = Clustering([["a", "b"], ["c"]])
        assert clustering.records() == {"a", "b", "c"}

    def test_restricted_to(self):
        clustering = Clustering([["a", "b", "c"], ["d", "e"]])
        restricted = clustering.restricted_to(["a", "b", "d"])
        assert restricted.same_cluster("a", "b")
        assert restricted.cluster_of("d") == ("d",)


class TestIntersect:
    def test_figure9_pitfall(self):
        """Ground truth {{a,b},{c}}; merging {b,c} then {a,c} must put
        a and b together in the intersection (Figure 9)."""
        truth = Clustering([["a", "b"], ["c"]])
        experiment = Clustering.from_pairs([("b", "c"), ("a", "c")])
        meet = experiment.intersect(truth)
        assert meet.same_cluster("a", "b")
        assert not meet.same_cluster("a", "c")

    def test_meet_pair_count_is_tp(self):
        truth = Clustering([["a", "b"], ["c", "d"]])
        experiment = Clustering([["a", "b", "c", "d"]])
        assert experiment.intersect(truth).pair_count() == 2

    def test_intersect_with_itself(self):
        clustering = Clustering([["a", "b"], ["c", "d", "e"]])
        assert clustering.intersect(clustering).pairs() == clustering.pairs()

    def test_intersect_commutative(self):
        left = Clustering([["a", "b", "c"]])
        right = Clustering([["b", "c", "d"]])
        assert left.intersect(right).pairs() == right.intersect(left).pairs()


class TestTransitiveClosure:
    def test_chain_closes(self):
        closed = transitive_closure([("a", "b"), ("b", "c"), ("c", "d")])
        assert closed == {
            make_pair(a, b) for a, b in combinations("abcd", 2)
        }

    def test_already_closed_is_identity(self):
        pairs = {("a", "b"), ("a", "c"), ("b", "c")}
        assert transitive_closure(pairs) == pairs

    def test_closure_distance(self):
        assert closure_distance([("a", "b"), ("b", "c")]) == 1
        assert closure_distance([("a", "b")]) == 0
        assert closure_distance([]) == 0


@st.composite
def pair_lists(draw):
    n = draw(st.integers(min_value=2, max_value=15))
    ids = [f"r{i}" for i in range(n)]
    count = draw(st.integers(min_value=0, max_value=25))
    pairs = []
    for _ in range(count):
        a = draw(st.sampled_from(ids))
        b = draw(st.sampled_from(ids))
        if a != b:
            pairs.append((a, b))
    return pairs


class TestProperties:
    @given(pair_lists())
    @settings(max_examples=60)
    def test_from_pairs_produces_closed_pair_set(self, pairs):
        closed = Clustering.from_pairs(pairs).pairs()
        # closing again is a fixed point
        assert transitive_closure(closed) == closed

    @given(pair_lists())
    @settings(max_examples=60)
    def test_closure_contains_input(self, pairs):
        canonical = {make_pair(a, b) for a, b in pairs}
        assert canonical <= transitive_closure(pairs)

    @given(pair_lists(), pair_lists())
    @settings(max_examples=40)
    def test_meet_is_subset_of_both(self, pairs_a, pairs_b):
        left = Clustering.from_pairs(pairs_a)
        right = Clustering.from_pairs(pairs_b)
        meet_pairs = left.intersect(right).pairs()
        assert meet_pairs <= left.pairs() | set()
        assert meet_pairs <= right.pairs() | set()
        # and equals the set intersection of the two closed pair sets
        assert meet_pairs == (left.pairs() & right.pairs())


@st.composite
def partitions(draw):
    """Two clusterings over a shared universe, each leaving records out.

    Records absent from a clustering are implicit singletons there, so
    the counts must not pair them up with each other.
    """
    universe = [f"r{index}" for index in range(draw(st.integers(0, 30)))]

    def clustering():
        labels = draw(
            st.lists(
                st.one_of(st.none(), st.integers(0, 6)),
                min_size=len(universe),
                max_size=len(universe),
            )
        )
        groups: dict[int, list[str]] = {}
        for record_id, label in zip(universe, labels):
            if label is not None:
                groups.setdefault(label, []).append(record_id)
        return Clustering(groups.values())

    return clustering(), clustering()


class TestSharedPairCount:
    @settings(max_examples=200, deadline=None)
    @given(partitions())
    def test_equals_intersection_pair_count_both_ways(self, drawn):
        first, second = drawn
        assert first.shared_pair_count(second) == first.intersect(second).pair_count()
        assert second.shared_pair_count(first) == second.intersect(first).pair_count()

    def test_unmentioned_records_share_no_pair(self):
        experiment = Clustering([["a", "b", "c", "d"]])
        truth = Clustering([["a", "b"]])  # c and d are singletons here
        assert experiment.shared_pair_count(truth) == 1
        assert truth.shared_pair_count(experiment) == 1
