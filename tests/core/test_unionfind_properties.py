"""Property-based tests for :class:`PairCountingUnionFind`.

The streaming subsystem keeps one union-find alive across ingests
(``grow`` + ``union`` interleaved), and the delta/batch equivalence
guarantee leans on clustering being insensitive to union order and
repetition.  Hypothesis drives randomized operation sequences against
a naive reference partition.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.unionfind import PairCountingUnionFind


def _reference_partition(n: int, unions: list[tuple[int, int]]) -> set[frozenset[int]]:
    """Naive O(n²) partition: repeatedly merge overlapping sets."""
    clusters = [{element} for element in range(n)]
    for first, second in unions:
        merged = {first, second}
        keep = []
        for cluster in clusters:
            if cluster & merged:
                merged |= cluster
            else:
                keep.append(cluster)
        keep.append(merged)
        clusters = keep
    return {frozenset(cluster) for cluster in clusters}


sizes = st.integers(min_value=0, max_value=40)


@st.composite
def union_sequences(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ).filter(lambda p: p[0] != p[1]),
            max_size=80,
        )
    )
    return n, pairs


@given(union_sequences())
def test_matches_reference_partition(sequence):
    n, unions = sequence
    uf = PairCountingUnionFind(n)
    for first, second in unions:
        uf.union(first, second)
    members = {
        frozenset(cluster) for cluster in uf.clusters().values()
    }
    assert members == _reference_partition(n, unions)
    # pair_count is the sum of C(size, 2) over clusters
    assert uf.pair_count == sum(
        len(c) * (len(c) - 1) // 2 for c in members
    )
    assert uf.cluster_count == len(members)


@given(union_sequences())
@settings(max_examples=50)
def test_union_is_idempotent(sequence):
    """Replaying a union batch is a no-op: same clusters, same counts,
    and no fresh generation ids are minted for already-connected pairs."""
    n, unions = sequence
    once = PairCountingUnionFind(n)
    for first, second in unions:
        once.union(first, second)
    twice = PairCountingUnionFind(n)
    for first, second in unions + unions:
        twice.union(first, second)
    assert twice.clusters() == once.clusters()
    assert twice.pair_count == once.pair_count
    assert twice.cluster_count == once.cluster_count
    # re-union of a connected pair keeps the existing cluster id
    for first, second in unions:
        id_before = once.cluster_id_of(first)
        assert once.union(first, second) == id_before
        assert once.cluster_id_of(first) == id_before


@given(counts=st.lists(st.integers(min_value=0, max_value=12), max_size=10))
def test_grow_appends_fresh_singletons(counts):
    uf = PairCountingUnionFind(0)
    total = 0
    for count in counts:
        added = uf.grow(count)
        assert added == range(total, total + count)
        total += count
        assert len(uf) == total
        assert uf.cluster_count == total
        assert uf.pair_count == 0
    # all generation ids distinct across growth batches
    ids = [uf.cluster_id_of(element) for element in range(total)]
    assert len(set(ids)) == total


@given(union_sequences(), st.integers(min_value=1, max_value=10))
@settings(max_examples=50)
def test_grow_interleaved_with_unions_keeps_ids_unique(sequence, growth):
    """Ids minted by growth never collide with ids minted by merges."""
    n, unions = sequence
    uf = PairCountingUnionFind(n)
    half = len(unions) // 2
    for first, second in unions[:half]:
        uf.union(first, second)
    added = uf.grow(growth)
    for first, second in unions[half:]:
        uf.union(first, second)
    # new elements stay singletons (nothing unioned them)
    for element in added:
        assert uf.cluster_size(element) == 1
    cluster_ids = {uf.cluster_id_of(element) for element in range(len(uf))}
    assert len(cluster_ids) == uf.cluster_count
    assert uf.cluster_count == len(uf.clusters())


def test_grow_rejects_negative():
    import pytest

    uf = PairCountingUnionFind(3)
    with pytest.raises(ValueError):
        uf.grow(-1)
