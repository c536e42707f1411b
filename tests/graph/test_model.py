"""MatchGraph traversal semantics, edge cases, and the evidence oracle.

The evidence-path query must return a connected path whose minimum
edge score is maximal — verified here against a brute-force oracle
that enumerates every simple path on small randomized graphs.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.model import GraphQueryError, MatchGraph


def graph_of(edges, nodes=None, threshold=0.5, name="g"):
    """A graph from ``(first, second, score)`` rows; nodes auto-added."""
    graph = MatchGraph(name, threshold)
    names = nodes if nodes is not None else sorted(
        {end for edge in edges for end in edge[:2]}
    )
    for native in names:
        graph.add_node(native)
    for first, second, score in edges:
        graph.add_edge(graph.node_of(first), graph.node_of(second), score)
    return graph


class TestConstruction:
    def test_dense_node_ids_in_insertion_order(self):
        graph = MatchGraph("g", 0.5)
        assert graph.add_node("z") == 0
        assert graph.add_node("a") == 1
        assert graph.record_ids() == ["z", "a"]

    def test_duplicate_node_rejected(self):
        graph = MatchGraph("g", 0.5)
        graph.add_node("a")
        with pytest.raises(ValueError, match="already has record"):
            graph.add_node("a")

    def test_self_pairs_filtered_out(self):
        graph = graph_of([], nodes=["a"])
        with pytest.raises(ValueError, match="self-edge"):
            graph.add_edge(0, 0, 0.9)

    def test_duplicate_edge_rejected_in_either_orientation(self):
        graph = graph_of([("a", "b", 0.9)])
        with pytest.raises(ValueError, match="duplicate edge"):
            graph.add_edge(
                graph.node_of("b"), graph.node_of("a"), 0.8
            )

    def test_components_follow_only_accepted_edges(self):
        graph = graph_of([("a", "b", 0.9), ("b", "c", 0.3)])
        members = graph.component_members()
        assert sorted(members.values()) == [["a", "b"], ["c"]]

    def test_summary_counts(self):
        graph = graph_of(
            [("a", "b", 0.9), ("b", "c", 0.3)], nodes=["a", "b", "c", "d"]
        )
        summary = graph.summary()
        assert summary["node_count"] == 4
        assert summary["edge_count"] == 2
        assert summary["accepted_edge_count"] == 1
        assert summary["component_count"] == 3
        assert summary["cluster_count"] == 1
        assert summary["largest_component"] == 2


class TestNeighbors:
    def test_k0_is_the_record_alone(self):
        graph = graph_of([("a", "b", 0.9)])
        result = graph.neighbors("a", k=0)
        assert result["neighbors"] == [{"record": "a", "hops": 0}]
        assert result["edges"] == []

    def test_hop_distances_in_a_chain(self):
        graph = graph_of([("a", "b", 0.9), ("b", "c", 0.9), ("c", "d", 0.9)])
        result = graph.neighbors("a", k=2)
        assert {row["record"]: row["hops"] for row in result["neighbors"]} == {
            "a": 0, "b": 1, "c": 2,
        }

    def test_cycle_terminates_with_shortest_hops(self):
        graph = graph_of(
            [("a", "b", 0.9), ("b", "c", 0.9), ("c", "a", 0.9)]
        )
        result = graph.neighbors("a", k=5)
        hops = {row["record"]: row["hops"] for row in result["neighbors"]}
        assert hops == {"a": 0, "b": 1, "c": 1}
        assert len(result["edges"]) == 3

    def test_isolated_node_has_no_neighbors(self):
        graph = graph_of([("a", "b", 0.9)], nodes=["a", "b", "lone"])
        result = graph.neighbors("lone", k=3)
        assert result["neighbors"] == [{"record": "lone", "hops": 0}]

    def test_threshold_excluding_all_edges(self):
        graph = graph_of([("a", "b", 0.9), ("b", "c", 0.8)])
        result = graph.neighbors("a", k=2, threshold=0.95)
        assert result["neighbors"] == [{"record": "a", "hops": 0}]
        assert result["edges"] == []

    def test_explicit_threshold_traverses_rejected_edges(self):
        # b-c scores below the acceptance threshold; an explicit lower
        # traversal threshold still reaches c
        graph = graph_of([("a", "b", 0.9), ("b", "c", 0.3)])
        assert len(graph.neighbors("a", k=2)["neighbors"]) == 2
        widened = graph.neighbors("a", k=2, threshold=0.2)
        assert len(widened["neighbors"]) == 3

    def test_negative_k_rejected(self):
        graph = graph_of([("a", "b", 0.9)])
        with pytest.raises(GraphQueryError):
            graph.neighbors("a", k=-1)

    def test_unknown_record_raises_keyerror(self):
        graph = graph_of([("a", "b", 0.9)])
        with pytest.raises(KeyError):
            graph.neighbors("ghost")


def full_scan_neighbors(graph: MatchGraph, native_id: str, k: int, threshold):
    """Oracle: k-hop BFS, then a sorted scan over *every* graph edge."""
    origin = graph.node_of(native_id)
    hops = {origin: 0}
    frontier = [origin]
    for hop in range(1, k + 1):
        next_frontier = []
        for node in frontier:
            for neighbor, score, accepted in graph._adjacency[node]:
                if neighbor in hops:
                    continue
                if graph._eligible(score, accepted, threshold):
                    hops[neighbor] = hop
                    next_frontier.append(neighbor)
        if not next_frontier:
            break
        frontier = next_frontier
    edges = [
        graph._edge_row(first, second)
        for (first, second), (score, accepted) in sorted(graph._edges.items())
        if first in hops and second in hops
        and graph._eligible(score, accepted, threshold)
    ]
    return {
        "record": native_id,
        "k": k,
        "threshold": threshold,
        "neighbors": [
            {"record": graph._native[node], "hops": hops[node]}
            for node in sorted(hops)
        ],
        "edges": edges,
    }


# coarse scores so ties with both thresholds are common
SCORES = st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9])


@st.composite
def random_graphs(draw):
    size = draw(st.integers(min_value=1, max_value=10))
    nodes = [f"n{index}" for index in range(size)]
    all_pairs = list(itertools.combinations(range(size), 2))
    chosen = []
    if all_pairs:
        chosen = draw(st.lists(st.sampled_from(all_pairs), unique=True))
    edges = []
    for first, second in chosen:
        if draw(st.booleans()):  # insert in either direction
            first, second = second, first
        edges.append((nodes[first], nodes[second], draw(SCORES)))
    threshold = draw(SCORES)
    return graph_of(edges, nodes=nodes, threshold=threshold)


class TestNeighborsMatchFullScan:
    @settings(max_examples=200, deadline=None)
    @given(
        graph=random_graphs(),
        data=st.data(),
        k=st.integers(min_value=0, max_value=4),
        threshold=st.none() | SCORES,
    )
    def test_adjacency_gather_matches_full_edge_scan(
        self, graph, data, k, threshold
    ):
        origin = data.draw(st.sampled_from(graph.record_ids()))
        assert graph.neighbors(origin, k=k, threshold=threshold) == (
            full_scan_neighbors(graph, origin, k, threshold)
        )


class TestPath:
    def test_fewest_hops_path(self):
        graph = graph_of(
            [
                ("a", "b", 0.9),
                ("b", "c", 0.9),
                ("c", "d", 0.9),
                ("a", "d", 0.9),
            ]
        )
        result = graph.path("b", "d")
        assert result["found"]
        assert len(result["path"]) == 3  # b-a-d or b-c-d

    def test_different_components_is_empty_result_not_exception(self):
        graph = graph_of([("a", "b", 0.9), ("c", "d", 0.9)])
        result = graph.path("a", "c")
        assert result == {
            "from": "a",
            "to": "c",
            "threshold": None,
            "found": False,
            "path": [],
            "edges": [],
        }

    def test_path_to_self(self):
        graph = graph_of([("a", "b", 0.9)])
        result = graph.path("a", "a")
        assert result["found"] and result["path"] == ["a"]

    def test_threshold_can_sever_the_only_route(self):
        graph = graph_of([("a", "b", 0.6), ("b", "c", 0.9)])
        assert graph.path("a", "c")["found"]
        assert not graph.path("a", "c", threshold=0.8)["found"]


class TestComponents:
    def test_component_of_isolated_record(self):
        graph = graph_of([("a", "b", 0.9)], nodes=["a", "b", "lone"])
        result = graph.component_of("lone")
        assert result["size"] == 1
        assert result["density"] == 0.0
        assert result["min_score"] is None

    def test_component_stats(self):
        graph = graph_of(
            [("a", "b", 0.9), ("b", "c", 0.7), ("a", "c", 0.8)]
        )
        result = graph.component_of("a")
        assert result["size"] == 3
        assert result["edge_count"] == 3
        assert result["density"] == 1.0
        assert result["min_score"] == 0.7
        assert result["max_score"] == 0.9

    def test_components_sorted_by_size_then_label(self):
        graph = graph_of(
            [("a", "b", 0.9), ("c", "d", 0.9), ("d", "e", 0.9)],
            nodes=["a", "b", "c", "d", "e", "f"],
        )
        listed = graph.components()
        assert [c["size"] for c in listed] == [3, 2, 1]
        assert graph.components(limit=1)[0]["records"] == ["c", "d", "e"]

    def test_bad_limit_rejected(self):
        graph = graph_of([("a", "b", 0.9)])
        with pytest.raises(GraphQueryError):
            graph.components(limit=-2)


def oracle_bottleneck(graph: MatchGraph, source: str, target: str):
    """Max over all simple paths of the minimum edge score (brute force)."""
    start, goal = graph.node_of(source), graph.node_of(target)
    adjacency = {}
    for node in range(graph.node_count):
        adjacency[node] = [
            (neighbor, score)
            for neighbor, score, accepted in graph._adjacency[node]
            if accepted
        ]
    best = None
    stack = [(start, {start}, float("inf"))]
    while stack:
        node, seen, width = stack.pop()
        if node == goal:
            if best is None or width > best:
                best = width
            continue
        for neighbor, score in adjacency[node]:
            if neighbor not in seen:
                stack.append((neighbor, seen | {neighbor}, min(width, score)))
    return best


class TestEvidencePath:
    def test_prefers_strong_detour_over_weak_shortcut(self):
        graph = graph_of(
            [
                ("a", "d", 0.55),
                ("a", "b", 0.95),
                ("b", "c", 0.9),
                ("c", "d", 0.85),
            ],
            threshold=0.5,
        )
        result = graph.evidence_path("a", "d")
        assert result["path"] == ["a", "b", "c", "d"]
        assert result["bottleneck"] == 0.85

    def test_evidence_carries_attribute_breakdowns(self):
        graph = MatchGraph("g", 0.5)
        for native in ("a", "b"):
            graph.add_node(native)
        graph.add_edge(0, 1, 0.9, breakdown={"name": 0.8, "zip": None})
        result = graph.evidence_path("a", "b")
        assert result["edges"][0]["evidence"] == {"name": 0.8, "zip": None}

    def test_cross_component_explains_nothing(self):
        graph = graph_of([("a", "b", 0.9), ("c", "d", 0.9)])
        result = graph.evidence_path("a", "c")
        assert not result["found"]
        assert result["path"] == []

    def test_rejected_edges_are_not_evidence(self):
        # a-c exists but below threshold: the component split wins
        graph = graph_of([("a", "b", 0.9), ("b", "c", 0.3)])
        assert not graph.evidence_path("a", "c")["found"]

    def test_matches_oracle_on_a_known_tricky_graph(self):
        graph = graph_of(
            [
                ("a", "b", 0.6),
                ("b", "e", 0.6),
                ("a", "c", 0.9),
                ("c", "d", 0.8),
                ("d", "e", 0.7),
            ],
            threshold=0.5,
        )
        result = graph.evidence_path("a", "e")
        assert result["bottleneck"] == oracle_bottleneck(graph, "a", "e") == 0.7

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_bottleneck_matches_brute_force_oracle(self, data):
        """Acceptance invariant: the evidence path's minimum edge score
        equals the best achievable over ALL simple paths."""
        n = data.draw(st.integers(min_value=2, max_value=6), label="nodes")
        names = [f"r{i}" for i in range(n)]
        all_pairs = list(itertools.combinations(range(n), 2))
        chosen = data.draw(
            st.lists(
                st.sampled_from(all_pairs),
                unique=True,
                min_size=1,
                max_size=len(all_pairs),
            ),
            label="edges",
        )
        scores = data.draw(
            st.lists(
                st.sampled_from([0.5, 0.6, 0.7, 0.8, 0.9, 1.0]),
                min_size=len(chosen),
                max_size=len(chosen),
            ),
            label="scores",
        )
        graph = MatchGraph("g", 0.5)
        for native in names:
            graph.add_node(native)
        for (first, second), score in zip(chosen, scores):
            graph.add_edge(first, second, score)
        source = data.draw(st.sampled_from(names), label="source")
        target = data.draw(st.sampled_from(names), label="target")
        expected = oracle_bottleneck(graph, source, target)
        result = graph.evidence_path(source, target)
        if expected is None:
            assert not result["found"]
        else:
            assert result["found"]
            if source == target:
                assert result["path"] == [source]
            else:
                assert result["bottleneck"] == expected
                # the returned path must be connected and achieve the
                # bottleneck it claims
                assert result["path"][0] == source
                assert result["path"][-1] == target
                assert (
                    min(edge["score"] for edge in result["edges"]) == expected
                )


class TestClusterViews:
    def test_cluster_pairs_is_the_transitive_closure(self):
        graph = graph_of(
            [("a", "b", 0.9), ("b", "c", 0.9), ("d", "e", 0.9)],
            nodes=["a", "b", "c", "d", "e", "f"],
        )
        assert graph.cluster_pairs() == {
            ("a", "b"), ("a", "c"), ("b", "c"), ("d", "e"),
        }

    def test_labels_are_min_member_ids(self):
        graph = graph_of([("b", "c", 0.9), ("a", "c", 0.9)], nodes=["a", "b", "c"])
        assert graph.label_of(graph.node_of("b")) == 0
        assert graph.component_nodes() == {0: [0, 1, 2]}
