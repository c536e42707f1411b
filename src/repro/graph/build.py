"""Building, persisting, and incrementally updating match graphs.

Two producers feed a :class:`~repro.graph.model.MatchGraph`:

* a finished :class:`~repro.matching.pipeline.PipelineRun` — the whole
  scored pair graph lands as one batch
  (:func:`build_graph_from_run`), and
* a live :class:`~repro.streaming.session.StreamingSession` — each
  ingested batch appends its delta through a :class:`GraphUpdater`.

Both paths write the same rows through
:meth:`~repro.storage.database.FrostStore.append_graph_batch`, and
component labels are order-independent (min node id), so the
incremental graph is row-identical to a from-scratch rebuild — the
invariant the hypothesis suite pins down.
"""

from __future__ import annotations

import json
from collections.abc import Sequence

from repro.core.experiment import Experiment
from repro.core.pairs import ScoredPair
from repro.core.records import Dataset
from repro.graph.model import MatchGraph
from repro.storage.database import FrostStore, StorageError
from repro.telemetry import spans as _tracing
from repro.telemetry.metrics import get_metrics

__all__ = [
    "GraphUpdater",
    "build_graph_from_run",
    "build_graph_from_experiment",
    "load_graph",
]

_BUILDS = get_metrics().counter(
    "frost_graph_builds_total",
    "Match graphs created (from runs, experiments, or streams)",
)
_BATCHES = get_metrics().counter(
    "frost_graph_batches_total",
    "Graph deltas persisted (one per pipeline build or stream batch)",
)
_EDGES = get_metrics().counter(
    "frost_graph_edges_total",
    "Scored edges persisted into match graphs",
)


class GraphUpdater:
    """Keeps one persisted graph and its in-memory twin in sync.

    Streaming sessions hold one of these: every accepted batch is
    applied to the store first (atomically) and then to the in-memory
    graph, so queries never observe a half-applied delta.
    """

    def __init__(self, store: FrostStore, graph: MatchGraph) -> None:
        self._store = store
        self.graph = graph

    @classmethod
    def create(
        cls, store: FrostStore, name: str, threshold: float
    ) -> "GraphUpdater":
        """Register a new empty graph under ``name``."""
        store.create_graph(name, threshold)
        _BUILDS.inc()
        return cls(store, MatchGraph(name, threshold))

    @classmethod
    def attach(cls, store: FrostStore, name: str) -> "GraphUpdater":
        """Reload a persisted graph (resume path)."""
        return cls(store, load_graph(store, name))

    def apply_batch(
        self,
        nodes: list[tuple[int, str]],
        scored: Sequence[ScoredPair],
        vectors=None,
    ) -> None:
        """Append one delta: new records plus their scored pairs.

        ``nodes`` are ``(node_id, native_id)`` rows — node ids must
        continue the graph's dense sequence (streaming numeric ids do
        by construction).  ``vectors`` aligns with ``scored`` and
        supplies per-attribute evidence; ``None`` stores edges without
        breakdowns.
        """
        graph = self.graph
        with _tracing.span(
            "graph.batch",
            graph=graph.name,
            nodes=len(nodes),
            scored=len(scored),
        ):
            component_rows: dict[int, int] = {}
            for node_id, native in nodes:
                assigned = graph.add_node(native)
                if assigned != node_id:
                    raise StorageError(
                        f"graph {graph.name!r} desynced: expected node "
                        f"{assigned}, producer sent {node_id}"
                    )
                component_rows[node_id] = node_id
            edge_rows = []
            if vectors is None:
                vectors = [None] * len(scored)
            for scored_pair, vector in zip(scored, vectors, strict=True):
                first = graph.node_of(scored_pair.first)
                second = graph.node_of(scored_pair.second)
                breakdown = None
                if vector is not None:
                    breakdown = json.dumps(dict(vector.values), sort_keys=True)
                relabels = graph.add_edge(
                    first,
                    second,
                    scored_pair.score,
                    breakdown=None if breakdown is None else json.loads(breakdown),
                )
                key = (first, second) if first < second else (second, first)
                edge_rows.append(
                    (
                        key[0],
                        key[1],
                        scored_pair.score,
                        scored_pair.score >= graph.threshold,
                        breakdown,
                    )
                )
                for node, label in relabels:
                    component_rows[node] = label
            # unions after a node's own row may have moved it again;
            # stamp the final labels
            for node in component_rows:
                component_rows[node] = graph.label_of(node)
            try:
                self._store.append_graph_batch(
                    graph.name,
                    nodes,
                    edge_rows,
                    sorted(component_rows.items()),
                )
            except StorageError:
                # the write failed atomically; discard the mutated twin
                # so memory matches what the store actually holds
                self.graph = load_graph(self._store, graph.name)
                raise
            _BATCHES.inc()
            _EDGES.inc(len(edge_rows))


def build_graph_from_run(
    store: FrostStore,
    name: str,
    run,
    threshold: float | None = None,
) -> MatchGraph:
    """Persist the full scored pair graph of one pipeline run.

    Every dataset record becomes a node (isolated records included);
    every scored candidate pair becomes an edge with its similarity
    vector as evidence.  The pipeline's threshold (recorded in the
    experiment metadata) decides edge acceptance unless overridden.
    """
    if threshold is None:
        threshold = run.experiment.metadata.get("threshold")
        if threshold is None:
            raise ValueError(
                "run records no threshold; pass one explicitly"
            )
    with _tracing.span("graph.build", graph=name, source="run"):
        updater = GraphUpdater.create(store, name, threshold)
        nodes = [
            (index, record.record_id)
            for index, record in enumerate(run.dataset)
        ]
        updater.apply_batch(nodes, run.scored_pairs, run.vectors)
        return updater.graph


def build_graph_from_experiment(
    store: FrostStore,
    name: str,
    dataset: Dataset,
    experiment: Experiment,
    threshold: float | None = None,
) -> MatchGraph:
    """Build a graph from a persisted experiment (no similarity vectors).

    This is the migration path for pre-graph store files: the direct
    (non-transitive) matches become edges; unscored matches count as
    certain (score 1.0).  Defaults the threshold to the weakest direct
    match so every stored match stays accepted.
    """
    direct = [
        match for match in experiment.matches if not match.from_clustering
    ]
    scores = [
        ScoredPair(
            score=1.0 if match.score is None else match.score,
            pair=match.pair,
        )
        for match in direct
    ]
    if threshold is None:
        threshold = min((sp.score for sp in scores), default=0.0)
    with _tracing.span("graph.build", graph=name, source="experiment"):
        updater = GraphUpdater.create(store, name, threshold)
        nodes = [
            (index, record.record_id)
            for index, record in enumerate(dataset)
        ]
        updater.apply_batch(nodes, sorted(scores))
        return updater.graph


def load_graph(store: FrostStore, name: str) -> MatchGraph:
    """Rehydrate a persisted graph into a queryable :class:`MatchGraph`."""
    with _tracing.span("graph.load", graph=name):
        document = store.load_graph(name)
        graph = MatchGraph(name, document["meta"]["threshold"])
        for node_id, native in document["nodes"]:
            assigned = graph.add_node(native)
            if assigned != node_id:
                raise StorageError(
                    f"graph {name!r}: stored node ids are not dense "
                    f"(expected {assigned}, found {node_id})"
                )
        for first, second, score, _accepted, breakdown in document["edges"]:
            graph.add_edge(
                first,
                second,
                score,
                breakdown=None if breakdown is None else json.loads(breakdown),
            )
        return graph
