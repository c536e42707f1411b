"""Graph payloads through the serving cache: invalidation + concurrency.

Graph traversal payloads are cached under ``graph:{name}`` tags; every
graph write (a stream batch, a build) must invalidate them before the
next read.  The hammer drives 8 threads of mixed traversals against
one serving layer and checks every response for correctness.
"""

from __future__ import annotations

import threading

from repro.core.platform import FrostPlatform
from repro.serving.service import ServingLayer
from repro.storage.database import FrostStore
from repro.streaming import build_session

from tests.graph.test_build import CONFIG, records


def serving_over_stream():
    store = FrostStore(":memory:")
    session = build_session(CONFIG, store=store, name="s")
    serving = ServingLayer(FrostPlatform())
    serving.attach_store(store)
    return store, session, serving


class TestGraphServing:
    def test_no_store_means_no_graphs(self):
        serving = ServingLayer(FrostPlatform())
        assert serving.graph_names() == []

    def test_ingest_invalidates_cached_payloads(self):
        _, session, serving = serving_over_stream()
        everyone = records()
        session.ingest(everyone[:4])
        first = serving.graph_summary_payload("s")
        assert first["node_count"] == 4
        # cached now: identical re-read must not recompute
        computations = serving.stats()["computations"]
        assert serving.graph_summary_payload("s") == first
        assert serving.stats()["computations"] == computations
        # a write invalidates: the next read sees the new batch
        session.ingest(everyone[4:6])
        assert serving.graph_summary_payload("s")["node_count"] == 6

    def test_payloads_match_direct_queries(self):
        _, session, serving = serving_over_stream()
        session.ingest(records())
        graph = session._graph.graph
        assert serving.graph_neighbors_payload(
            "s", "p01", 2, None
        ) == graph.neighbors("p01", k=2)
        assert serving.graph_path_payload(
            "s", "p03", "p09", None
        ) == graph.path("p03", "p09")
        assert serving.graph_component_payload(
            "s", "p03"
        ) == graph.component_of("p03")
        assert serving.graph_explain_payload(
            "s", "p03", "p09"
        ) == graph.evidence_path("p03", "p09")
        assert serving.graph_components_payload("s", 3) == {
            "components": graph.components(limit=3)
        }

    def test_eight_thread_concurrent_traversal_hammer(self):
        """8 threads x mixed traversals: every response correct, no
        exceptions, and the cache actually absorbs the repetition."""
        _, session, serving = serving_over_stream()
        session.ingest(records())
        graph = session._graph.graph
        expected = {
            "summary": graph.summary(),
            "neighbors": graph.neighbors("p01", k=2),
            "path": graph.path("p03", "p09"),
            "component": graph.component_of("p05"),
            "explain": graph.evidence_path("p03", "p09"),
        }
        failures: list[str] = []
        barrier = threading.Barrier(8)

        def hammer(seed: int) -> None:
            barrier.wait()
            for round_index in range(25):
                try:
                    got = {
                        "summary": serving.graph_summary_payload("s"),
                        "neighbors": serving.graph_neighbors_payload(
                            "s", "p01", 2, None
                        ),
                        "path": serving.graph_path_payload(
                            "s", "p03", "p09", None
                        ),
                        "component": serving.graph_component_payload(
                            "s", "p05"
                        ),
                        "explain": serving.graph_explain_payload(
                            "s", "p03", "p09"
                        ),
                    }
                    if got != expected:
                        failures.append(
                            f"thread {seed} round {round_index}: mismatch"
                        )
                except Exception as error:  # noqa: BLE001 - recorded
                    failures.append(f"thread {seed}: {error!r}")

        threads = [
            threading.Thread(target=hammer, args=(index,)) for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures[:5]
        stats = serving.stats()
        # 8 threads x 25 rounds x 5 queries; at most a handful compute
        assert stats["requests"] >= 1000
        assert stats["computations"] <= 10

    def test_concurrent_reads_with_interleaved_writes_stay_fresh(self):
        """Readers racing a writer never see a stale summary after the
        writer's final batch lands."""
        _, session, serving = serving_over_stream()
        everyone = records()
        session.ingest(everyone[:2])
        stop = threading.Event()
        failures: list[str] = []

        def reader() -> None:
            seen = 2
            while not stop.is_set():
                try:
                    count = serving.graph_summary_payload("s")["node_count"]
                except Exception as error:  # a torn read of nodes/edges
                    failures.append(f"read failed: {error!r}")
                    return
                if count < seen:
                    failures.append(f"node_count went backwards: {count}")
                    return
                seen = count

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for start in range(2, len(everyone), 2):
            session.ingest(everyone[start:start + 2])
        stop.set()
        for thread in threads:
            thread.join()
        assert not failures, failures
        assert serving.graph_summary_payload("s")["node_count"] == len(everyone)
