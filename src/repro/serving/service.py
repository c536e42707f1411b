"""The serving layer: cached, coalesced evaluations for the front-end.

:class:`ServingLayer` sits between the HTTP API
(:mod:`repro.server.api`) and the platform/engine.  Every expensive
read — metrics tables, metric/metric diagrams, profiles, error
categorizations, threshold timelines, set intersections — flows
through :meth:`_fetch`, which gives it three serving properties:

* **read-through caching** — payloads are cached in a
  :class:`~repro.serving.cache.MetricResultCache` keyed by *content*
  fingerprints (:func:`repro.engine.jobs.job_cache_key` over the
  dataset, gold, experiment, and config contents), so renaming or
  re-registering identical artifacts still hits;
* **request coalescing** — concurrent identical requests share one
  in-flight computation via a
  :class:`~repro.serving.coalesce.RequestCoalescer` instead of
  stampeding the engine;
* **write invalidation** — the layer subscribes to
  :meth:`FrostPlatform.subscribe`, so any registry write (a new
  experiment, a new gold standard) drops the touched dataset's cached
  payloads before the next read.

Payloads returned here are exactly the JSON documents the API used to
compute inline; moving them behind the cache changes latency, never
bytes.
"""

from __future__ import annotations

import heapq
import logging
import math
import threading
import time

from repro.core.platform import FrostPlatform
from repro.engine.cache import MISS
from repro.engine.jobs import job_cache_key
from repro.serving.cache import MetricResultCache
from repro.serving.coalesce import RequestCoalescer
from repro.telemetry.metrics import get_metrics
from repro.telemetry.spans import span

__all__ = ["ServingLayer"]

_LOG = logging.getLogger("repro.serving")

# Process-wide mirrors of the instance counters, feeding GET /metrics.
_SERVING_REQUESTS = get_metrics().counter(
    "frost_serving_requests_total", "Evaluations requested from the serving layer"
)
_SERVING_COMPUTATIONS = get_metrics().counter(
    "frost_serving_computations_total",
    "Evaluations actually computed (cache misses that led a flight)",
)
_SERVING_LATENCY = get_metrics().histogram(
    "frost_serving_request_seconds",
    "Wall time of serving-layer fetches (cache hits and computations)",
)


class ServingLayer:
    """Read-through, stampede-safe evaluation serving over a platform.

    Parameters
    ----------
    platform:
        The registry the evaluations read from.  The layer subscribes
        to its write notifications for cache invalidation.
    max_entries:
        LRU capacity of the payload cache.
    """

    def __init__(self, platform: FrostPlatform, max_entries: int = 1024) -> None:
        self.platform = platform
        self.cache = MetricResultCache(max_entries=max_entries)
        self.coalescer = RequestCoalescer()
        self._counter_lock = threading.Lock()
        self.requests = 0
        self.computations = 0
        self._store = None
        self._graph_lock = threading.Lock()
        # name -> (updated_at, batch_count, MatchGraph): rehydrated
        # graphs kept hot between requests, dropped on any write
        self._graphs: dict[str, tuple] = {}
        platform.subscribe(self.invalidate)

    # -- plumbing -----------------------------------------------------------------

    def invalidate(self, dataset_name: str) -> int:
        """Drop every cached payload derived from ``dataset_name``."""
        return self.cache.invalidate(dataset_name)

    def attach_store(self, store) -> None:
        """Serve match graphs out of ``store``.

        Subscribes to the store's graph-write notifications so a
        streaming ingest (or any other graph write) invalidates the
        graph's cached traversal payloads — the graph counterpart of
        the platform subscription above.
        """
        self._store = store
        store.subscribe_graph(self._invalidate_graph)

    def _invalidate_graph(self, graph_name: str) -> None:
        with self._graph_lock:
            self._graphs.pop(graph_name, None)
        self.cache.invalidate(f"graph:{graph_name}")

    def stats(self) -> dict[str, object]:
        """Serving counters: requests, computations, cache, coalescer."""
        with self._counter_lock:
            requests = self.requests
            computations = self.computations
        return {
            "requests": requests,
            "computations": computations,
            "cache": self.cache.stats(),
            "coalescer": self.coalescer.stats(),
        }

    def _fetch(self, kind: str, dataset_name: str, token: object, compute):
        """Serve ``compute()`` through the cache and the coalescer.

        ``token`` is hashed with the content fingerprints of any domain
        objects it carries, so the key identifies the *inputs* of the
        computation; ``dataset_name`` tags the entry for invalidation.
        """
        with self._counter_lock:
            self.requests += 1
        _SERVING_REQUESTS.inc()
        started = time.perf_counter()
        key = job_cache_key(kind, token)
        payload = self.cache.get(key)
        if payload is not MISS:
            _SERVING_LATENCY.observe(time.perf_counter() - started)
            return payload

        def fill():
            # Re-check under the flight: a follower of a finished
            # leader re-entering, or an invalidation race, may have
            # repopulated the key while this thread queued for it.
            cached = self.cache.recheck(key)
            if cached is not MISS:
                return cached
            with self._counter_lock:
                self.computations += 1
            _SERVING_COMPUTATIONS.inc()
            _LOG.debug("computing %s payload for dataset %s", kind, dataset_name)
            with span("serving.compute", kind=kind, dataset=dataset_name):
                payload = compute()
            self.cache.put(key, payload, tag=dataset_name)
            return payload

        try:
            return self.coalescer.run(key, fill)
        finally:
            _SERVING_LATENCY.observe(time.perf_counter() - started)

    # -- served evaluations -------------------------------------------------------

    def metrics_payload(
        self,
        dataset_name: str,
        gold_name: str,
        experiments: list[str] | None,
        metrics: list[str] | None,
    ) -> dict:
        """The N-metrics table payload of ``GET /datasets/{d}/metrics``."""
        platform = self.platform
        names = (
            list(experiments)
            if experiments is not None
            else platform.experiment_names(dataset_name)
        )
        token = {
            "dataset": platform.dataset(dataset_name),
            "gold": platform.gold(dataset_name, gold_name),
            "experiments": [
                [name, platform.experiment(dataset_name, name)] for name in names
            ],
            "metrics": metrics,
        }

        def compute() -> dict:
            # Evaluate the `names` snapshot the key was built from, not
            # the raw `experiments` argument: with experiments=None a
            # concurrent registry write would otherwise be re-listed
            # here and cached under a key that does not describe it.
            return {
                "gold": gold_name,
                "metrics": platform.metrics_table(
                    dataset_name, gold_name, names, metrics
                ),
            }

        return self._fetch("serving:metrics", dataset_name, token, compute)

    def diagram_payload(
        self,
        dataset_name: str,
        experiment_name: str,
        gold_name: str,
        samples: int,
    ) -> dict:
        """The diagram payload of ``GET /datasets/{d}/diagram``."""
        platform = self.platform
        token = {
            "dataset": platform.dataset(dataset_name),
            "experiment": platform.experiment(dataset_name, experiment_name),
            "gold": platform.gold(dataset_name, gold_name),
            "samples": samples,
        }

        def compute() -> dict:
            points = platform.diagram(
                dataset_name, experiment_name, gold_name, samples=samples
            )
            return {
                "experiment": experiment_name,
                "gold": gold_name,
                "points": [
                    {
                        "threshold": (
                            None
                            if math.isinf(point.threshold)
                            else point.threshold
                        ),
                        "matches": point.matches_applied,
                        **point.matrix.as_dict(),
                    }
                    for point in points
                ],
            }

        return self._fetch("serving:diagram", dataset_name, token, compute)

    def profile_payload(self, dataset_name: str) -> dict:
        """The profiling payload of ``GET /datasets/{d}/profile``."""
        dataset = self.platform.dataset(dataset_name)
        token = {"dataset": dataset}

        def compute() -> dict:
            from repro.profiling import profile_dataset

            profile = profile_dataset(dataset)
            return {
                "name": profile.name,
                "tuple_count": profile.tuple_count,
                "sparsity": profile.sparsity,
                "textuality": profile.textuality,
                "schema_complexity": profile.schema_complexity,
            }

        return self._fetch("serving:profile", dataset_name, token, compute)

    def categorize_payload(
        self,
        dataset_name: str,
        experiment_name: str,
        gold_name: str,
        limit: int | None,
    ) -> dict:
        """The error-category payload of ``GET /datasets/{d}/categorize``."""
        platform = self.platform
        token = {
            "dataset": platform.dataset(dataset_name),
            "experiment": platform.experiment(dataset_name, experiment_name),
            "gold": platform.gold(dataset_name, gold_name),
            "limit": limit,
        }

        def compute() -> dict:
            from repro.exploration.error_categories import categorize_errors

            categorization = categorize_errors(
                platform.dataset(dataset_name),
                platform.experiment(dataset_name, experiment_name),
                platform.gold(dataset_name, gold_name),
                limit=limit,
            )
            weakness = categorization.dominant_weakness()
            return {
                "false_negatives": len(categorization.false_negatives),
                "false_positives": len(categorization.false_positives),
                "fn_relations": {
                    relation.value: count
                    for relation, count in
                    categorization.false_negative_relations.items()
                },
                "fp_relations": {
                    relation.value: count
                    for relation, count in
                    categorization.false_positive_relations.items()
                },
                "dominant_weakness": weakness.value if weakness else None,
            }

        return self._fetch("serving:categorize", dataset_name, token, compute)

    def timeline_payload(
        self,
        dataset_name: str,
        experiment_name: str,
        gold_name: str,
        high: float,
        low: float,
    ) -> dict:
        """The threshold-segment payload of ``GET /datasets/{d}/timeline``."""
        platform = self.platform
        token = {
            "dataset": platform.dataset(dataset_name),
            "experiment": platform.experiment(dataset_name, experiment_name),
            "gold": platform.gold(dataset_name, gold_name),
            "high": high,
            "low": low,
        }

        def compute() -> dict:
            timeline = platform.timeline(dataset_name, experiment_name, gold_name)
            segment = timeline.segment(high, low)
            # nsmallest(k, pairs) == sorted(pairs)[:k], without sorting
            # every pair of a large segment
            return {
                "high": high,
                "low": low,
                "new_true_positives": [
                    list(pair)
                    for pair in heapq.nsmallest(1000, segment.new_true_positives)
                ],
                "new_false_positives": [
                    list(pair)
                    for pair in heapq.nsmallest(1000, segment.new_false_positives)
                ],
            }

        return self._fetch("serving:timeline", dataset_name, token, compute)

    def intersection_payload(
        self, dataset_name: str, include: list[str], exclude: list[str]
    ) -> dict:
        """The set-selection payload of ``GET /datasets/{d}/intersection``."""
        platform = self.platform
        token = {
            "dataset": platform.dataset(dataset_name),
            "include": include,
            "exclude": exclude,
        }

        def compute() -> dict:
            comparison = platform.compare_sets(dataset_name, include + exclude)
            pairs = comparison.select(include=include, exclude=exclude)
            return {
                "include": include,
                "exclude": exclude,
                "size": len(pairs),
                "pairs": [list(pair) for pair in heapq.nsmallest(1000, pairs)],
            }

        return self._fetch("serving:intersection", dataset_name, token, compute)

    # -- served graph queries -----------------------------------------------------

    def graph_names(self) -> list[str]:
        """Stored graph names (empty without a store) — cheap, uncached."""
        if self._store is None:
            return []
        return self._store.graph_names()

    def _graph_meta(self, name: str) -> dict:
        from repro.storage.database import StorageError

        if self._store is None:
            raise KeyError("no store attached; no graphs are served")
        try:
            return self._store.graph_meta(name)
        except StorageError as missing:
            raise KeyError(str(missing)) from None

    def _graph(self, name: str, meta: dict):
        """The rehydrated graph, kept hot until its store rows change."""
        from repro.graph.build import load_graph

        stamp = (meta["updated_at"], meta["batch_count"], meta["node_count"])
        with self._graph_lock:
            cached = self._graphs.get(name)
            if cached is not None and cached[0] == stamp:
                return cached[1]
        graph = load_graph(self._store, name)
        with self._graph_lock:
            self._graphs[name] = (stamp, graph)
        return graph

    def _fetch_graph(self, kind: str, name: str, params: dict, compute):
        """:meth:`_fetch` with the graph's meta folded into the key.

        The meta row changes on every graph write, so stale keys die
        naturally even before the tag invalidation lands.
        """
        meta = self._graph_meta(name)
        token = {"graph": name, "meta": meta, **params}
        return self._fetch(
            kind, f"graph:{name}", token, lambda: compute(self._graph(name, meta))
        )

    def graph_summary_payload(self, name: str) -> dict:
        """The overview payload of ``GET /graph/{name}``."""
        return self._fetch_graph(
            "serving:graph-summary", name, {}, lambda graph: graph.summary()
        )

    def graph_neighbors_payload(
        self, name: str, record: str, k: int, threshold: float | None
    ) -> dict:
        """The k-hop payload of ``GET /graph/{name}/neighbors``."""
        return self._fetch_graph(
            "serving:graph-neighbors",
            name,
            {"record": record, "k": k, "threshold": threshold},
            lambda graph: graph.neighbors(record, k=k, threshold=threshold),
        )

    def graph_path_payload(
        self, name: str, source: str, target: str, threshold: float | None
    ) -> dict:
        """The fewest-hops payload of ``GET /graph/{name}/path``."""
        return self._fetch_graph(
            "serving:graph-path",
            name,
            {"from": source, "to": target, "threshold": threshold},
            lambda graph: graph.path(source, target, threshold=threshold),
        )

    def graph_components_payload(self, name: str, limit: int | None) -> dict:
        """The component listing of ``GET /graph/{name}/components``."""
        return self._fetch_graph(
            "serving:graph-components",
            name,
            {"limit": limit},
            lambda graph: {"components": graph.components(limit=limit)},
        )

    def graph_component_payload(self, name: str, record: str) -> dict:
        """The drill-down payload of ``GET /graph/{name}/component``."""
        return self._fetch_graph(
            "serving:graph-component",
            name,
            {"record": record},
            lambda graph: graph.component_of(record),
        )

    def graph_explain_payload(self, name: str, source: str, target: str) -> dict:
        """The evidence-path payload of ``GET /graph/{name}/explain``."""
        return self._fetch_graph(
            "serving:graph-explain",
            name,
            {"from": source, "to": target},
            lambda graph: graph.evidence_path(source, target),
        )
