"""Incremental streaming matching sessions.

A :class:`StreamingMatcher` ingests record batches into a live matching
session and maintains the duplicate clustering *incrementally*: each
ingest prepares only the new records, asks the
:class:`~repro.streaming.delta_blocking.IncrementalBlockingIndex` for
the delta candidate pairs, scores only those pairs through the existing
:class:`~repro.matching.pipeline.MatchingPipeline` stage methods, and
folds the accepted matches into a persistent
:class:`~repro.core.unionfind.PairCountingUnionFind`.  Every batch
yields a versioned :class:`StreamSnapshot`, and — because delta
blocking is exact for key-based schemes and connected components are
order-independent — the clustering after ``k`` ingests is identical to
a full batch recompute over the union of all ingested records.

Sessions are optionally durable: given a
:class:`~repro.storage.database.FrostStore`, every ingest persists the
new records, their block memberships, the accepted-match merge log, and
the snapshot lineage in one transaction, and
:meth:`StreamingMatcher.resume` rebuilds the live session from those
tables.
"""

from __future__ import annotations

import logging
import threading
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from repro.core.clustering import Clustering
from repro.core.experiment import Experiment, Match
from repro.core.pairs import ScoredPair, make_pair
from repro.core.records import Dataset, Record
from repro.core.unionfind import PairCountingUnionFind
from repro.matching.attribute_matching import SimilarityVector
from repro.matching.pipeline import MatchingPipeline
from repro.streaming.delta_blocking import IncrementalBlockingIndex
from repro.telemetry.metrics import get_metrics
from repro.telemetry.spans import get_tracer

__all__ = [
    "StreamSnapshot",
    "StreamingMatcher",
    "StreamError",
    "mean_similarity",
    "coerce_records",
]


_LOG = logging.getLogger("repro.streaming")

# Process-wide streaming-ingest traffic, feeding GET /metrics.
_STREAM_BATCHES = get_metrics().counter(
    "frost_stream_batches_total", "Record batches folded into live streams"
)
_STREAM_RECORDS = get_metrics().counter(
    "frost_stream_records_total", "Records ingested into live streams"
)


class StreamError(RuntimeError):
    """Raised for streaming-session misuse (duplicate ids, bad resume)."""


def mean_similarity(vector: SimilarityVector) -> float:
    """Decision model: mean of the non-missing attribute similarities.

    A module-level function (not a lambda) so sessions built from JSON
    configs stay content-fingerprintable by the engine.  Pipelines
    score a whole similarity matrix with it in numpy
    (:func:`repro.matching.pipeline.decision_plan` plans it by
    identity); this per-vector form is the fallback and the oracle.
    """
    return vector.mean()


def coerce_records(items: Iterable[Record | Mapping[str, object]]) -> list[Record]:
    """Records from a mixed iterable of :class:`Record` and JSON rows.

    JSON rows (as posted to ``POST /streams/{id}/batches``) carry the
    native id under ``"id"``; every other key is an attribute value.
    """
    records: list[Record] = []
    for item in items:
        if isinstance(item, Record):
            records.append(item)
            continue
        if not isinstance(item, Mapping) or "id" not in item:
            raise ValueError(
                "each record must be a Record or a mapping with an 'id' key"
            )
        values = {
            str(key): (None if value is None else str(value))
            for key, value in item.items()
            if key != "id"
        }
        records.append(Record(record_id=str(item["id"]), values=values))
    return records


@dataclass(frozen=True)
class StreamSnapshot:
    """The versioned clustering state produced by one ingest.

    Versions form a linear lineage (``parent_version`` is the previous
    snapshot's version, ``None`` for the first batch); the counts
    describe the session state *after* the batch was folded in.
    """

    version: int
    parent_version: int | None
    record_count: int
    cluster_count: int
    pair_count: int
    delta_candidates: int
    accepted_matches: int

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable snapshot summary (API / job payloads)."""
        return {
            "version": self.version,
            "parent_version": self.parent_version,
            "record_count": self.record_count,
            "cluster_count": self.cluster_count,
            "pair_count": self.pair_count,
            "delta_candidates": self.delta_candidates,
            "accepted_matches": self.accepted_matches,
        }


class _PreparedView:
    """Minimal mapping view so pipeline stage methods can index records.

    :meth:`MatchingPipeline.compare_candidates` only needs
    ``prepared[record_id]``; this avoids rebuilding a full
    :class:`Dataset` over all session records on every ingest (which
    would defeat the point of incrementality).
    """

    __slots__ = ("_records",)

    def __init__(self, records: Mapping[str, Record]) -> None:
        self._records = records

    def __getitem__(self, record_id: str) -> Record:
        return self._records[record_id]


class StreamingMatcher:
    """A live matching session with incremental cluster maintenance.

    Parameters
    ----------
    pipeline:
        Supplies preparation, attribute comparison, the decision model,
        and the acceptance threshold.  Its batch candidate generator is
        *not* used — delta candidates come from ``index``.
    index:
        The incremental blocking index (must be empty unless resuming).
    store / name / config:
        When ``store`` is given the session is durable under ``name``:
        construction registers the stream (persisting ``config``, a
        JSON document that :func:`repro.streaming.config.build_session`
        can rebuild the session from), and every ingest appends to the
        stream tables.  Use :meth:`resume` to reopen an existing
        stream.
    """

    def __init__(
        self,
        pipeline: MatchingPipeline,
        index: IncrementalBlockingIndex,
        store=None,
        name: str = "stream",
        config: Mapping[str, object] | None = None,
        _resuming: bool = False,
    ) -> None:
        self.pipeline = pipeline
        self.index = index
        self.name = name
        self.config = dict(config) if config is not None else None
        self._store = store
        self._numeric: dict[str, int] = {}
        self._native: list[str] = []
        self._raw: dict[str, Record] = {}
        self._prepared: dict[str, Record] = {}
        self._unionfind = PairCountingUnionFind(0)
        self._snapshots: list[StreamSnapshot] = []
        self._accepted: list[ScoredPair] = []
        self._graph = None
        self._lock = threading.Lock()
        if store is not None and not _resuming:
            from repro.storage.database import StorageError

            try:
                store.create_stream(name, dict(config or {}))
            except StorageError:
                raise StreamError(
                    f"stream {name!r} already exists in the store; "
                    "use StreamingMatcher.resume() to reopen it"
                ) from None

    def attach_graph(self, updater) -> None:
        """Feed every ingested batch into a persisted match graph.

        ``updater`` is a :class:`~repro.graph.build.GraphUpdater` whose
        graph must already mirror this session's records (empty for a
        fresh session, reloaded on resume).  Each batch appends the
        *full* scored delta — accepted and rejected candidate edges —
        so the graph keeps the below-threshold evidence the clustering
        discards.
        """
        if updater.graph.node_count != self.record_count:
            raise StreamError(
                f"graph {updater.graph.name!r} holds "
                f"{updater.graph.node_count} nodes but stream "
                f"{self.name!r} has {self.record_count} records; "
                "rebuild the graph before attaching it"
            )
        with self._lock:
            self._graph = updater

    # -- introspection ---------------------------------------------------------

    @property
    def version(self) -> int:
        """Version of the latest snapshot (0 before the first ingest)."""
        return self._snapshots[-1].version if self._snapshots else 0

    @property
    def record_count(self) -> int:
        """Number of records ingested so far."""
        return len(self._native)

    @property
    def snapshots(self) -> list[StreamSnapshot]:
        """The snapshot lineage, oldest first."""
        return list(self._snapshots)

    def status(self) -> dict[str, object]:
        """JSON-serializable session summary (the ``GET /streams/{id}`` body)."""
        with self._lock:
            latest = self._snapshots[-1].as_dict() if self._snapshots else None
            return {
                "name": self.name,
                "version": self.version,
                "records": len(self._native),
                "blocks": self.index.block_count,
                "clusters": self._unionfind.cluster_count,
                "intra_cluster_pairs": self._unionfind.pair_count,
                "durable": self._store is not None,
                "blocking": (self.config or {}).get("key"),
                "graph": (
                    self._graph.graph.name if self._graph is not None else None
                ),
                "blocking_storage": self.pipeline.blocking_storage,
                "latest": latest,
                "snapshots": [s.as_dict() for s in self._snapshots],
            }

    def dataset(self, name: str | None = None) -> Dataset:
        """The ingested records (raw, insertion order) as a dataset."""
        return Dataset(
            (self._raw[native] for native in self._native),
            name=name or f"{self.name}-records",
        )

    def clusters(self) -> Clustering:
        """The current clustering (non-singleton clusters, native ids)."""
        with self._lock:
            return self._clusters_locked()

    def _clusters_locked(self) -> Clustering:
        members = self._unionfind.clusters().values()
        return Clustering(
            [self._native[element] for element in cluster]
            for cluster in members
            if len(cluster) > 1
        )

    def experiment(self, name: str | None = None) -> Experiment:
        """The session's matches as an experiment (benchmark integration).

        Directly accepted pairs carry their scores; intra-cluster pairs
        implied only by transitivity are flagged ``from_clustering``,
        exactly as in :meth:`MatchingPipeline._cluster`.
        """
        with self._lock:
            score_of = {sp.pair: sp.score for sp in self._accepted}
            matches = [
                Match(
                    pair=pair,
                    score=score_of.get(pair),
                    from_clustering=pair not in score_of,
                )
                for pair in sorted(self._clusters_locked().pairs())
            ]
            return Experiment(
                matches,
                name=name or f"{self.name}-v{self.version}",
                solution="streaming",
                metadata={
                    "stream": self.name,
                    "version": self.version,
                    "threshold": self.pipeline.threshold,
                },
            )

    # -- ingestion -------------------------------------------------------------

    def ingest(
        self, records: Iterable[Record | Mapping[str, object]] | Dataset
    ) -> StreamSnapshot:
        """Fold one record batch into the session; returns the new snapshot.

        Only the delta work is performed: the batch is prepared, delta
        candidates are drawn from the index, scored with the pipeline's
        comparator and decision model, and accepted matches (``score >=
        threshold``) are unioned into the persistent clustering.
        Thread-safe (ingests serialize on an internal lock) so batches
        may be submitted through the engine's worker pool.
        """
        batch = (
            list(records)
            if isinstance(records, Dataset)
            else coerce_records(records)
        )
        with get_tracer().span(
            "stream.ingest", stream=self.name, records=len(batch)
        ) as ingest_span:
            with self._lock:
                snapshot = self._ingest_locked(batch)
            ingest_span.annotate(
                delta_candidates=snapshot.delta_candidates,
                accepted=snapshot.accepted_matches,
            )
            _LOG.debug(
                "stream %s ingested %d records (version %d, %d accepted)",
                self.name,
                len(batch),
                snapshot.version,
                snapshot.accepted_matches,
            )
        _STREAM_BATCHES.inc()
        _STREAM_RECORDS.inc(len(batch))
        return snapshot

    def _ingest_locked(self, batch: Sequence[Record]) -> StreamSnapshot:
        version = self.version + 1
        for record in batch:
            if record.record_id in self._numeric:
                raise StreamError(
                    f"record {record.record_id!r} was already ingested into "
                    f"stream {self.name!r}"
                )
        # Step 1 (preparation) via the pipeline stage method; Dataset
        # construction also rejects duplicate ids within the batch.
        batch_dataset = Dataset(batch, name=f"{self.name}-batch{version}")
        prepared = self.pipeline.prepare(batch_dataset)

        # A durable ingest must leave the live session untouched when
        # the store rejects the batch (e.g. another process appended
        # the same version concurrently) — keep what is needed to roll
        # every in-memory mutation back.
        unionfind_backup = (
            self._unionfind.copy() if self._store is not None else None
        )

        new_numeric = self._unionfind.grow(len(batch))
        for numeric_id, raw, clean in zip(new_numeric, batch, prepared):
            self._numeric[raw.record_id] = numeric_id
            self._native.append(raw.record_id)
            self._raw[raw.record_id] = raw
            self._prepared[raw.record_id] = clean

        # Steps 2-4 on the delta only.
        delta = self.index.ingest_delta(prepared)
        vectors = self.pipeline.compare_candidates(
            _PreparedView(self._prepared), delta.pairs
        )
        scored = self.pipeline.score_vectors(vectors)
        accepted = self.pipeline.accept(scored)

        # Step 5, incrementally: fold accepted matches into the
        # persistent union-find (connected components maintenance).
        self._unionfind.tracked_union(
            (self._numeric[sp.pair[0]], self._numeric[sp.pair[1]])
            for sp in accepted
        )
        self._accepted.extend(accepted)

        snapshot = StreamSnapshot(
            version=version,
            parent_version=version - 1 if version > 1 else None,
            record_count=len(self._native),
            cluster_count=self._unionfind.cluster_count,
            pair_count=self._unionfind.pair_count,
            delta_candidates=len(delta.pairs),
            accepted_matches=len(accepted),
        )
        if self._store is not None:
            try:
                self._persist_batch(batch, delta.memberships, accepted,
                                    snapshot)
            except BaseException:
                self._unionfind = unionfind_backup
                self.index.retract(delta)
                del self._accepted[len(self._accepted) - len(accepted):]
                for record in batch:
                    del self._numeric[record.record_id]
                    del self._raw[record.record_id]
                    del self._prepared[record.record_id]
                del self._native[len(self._native) - len(batch):]
                raise
        if self._graph is not None:
            # After the stream batch is durable: the graph delta is a
            # second transaction, so a failure here leaves the graph
            # one batch behind — attach_graph() detects the node-count
            # gap on resume and demands a rebuild rather than silently
            # serving a stale graph.
            self._graph.apply_batch(
                list(zip(new_numeric, (r.record_id for r in batch))),
                scored,
                vectors,
            )
        self._snapshots.append(snapshot)
        return snapshot

    # -- durability ------------------------------------------------------------

    def _persist_batch(
        self,
        batch: Sequence[Record],
        memberships: Sequence[tuple[str, str]],
        accepted: Sequence[ScoredPair],
        snapshot: StreamSnapshot,
    ) -> None:
        self._store.append_stream_batch(
            self.name,
            batch_index=snapshot.version,
            records=[
                (
                    self._numeric[record.record_id],
                    record.record_id,
                    dict(record.values),
                )
                for record in batch
            ],
            blocks=[
                (key, self._numeric[record_id])
                for key, record_id in memberships
            ],
            merges=[
                (
                    self._numeric[sp.pair[0]],
                    self._numeric[sp.pair[1]],
                    sp.score,
                )
                for sp in accepted
            ],
            snapshot=snapshot.as_dict(),
        )

    @classmethod
    def resume(cls, store, name: str) -> "StreamingMatcher":
        """Reopen a durable session from its stream tables.

        Rebuilds the record registry, re-runs preparation on the stored
        raw records, restores the block index from the persisted
        memberships, and replays the merge log into a fresh union-find
        (the clustering — though not the internal generation ids — is
        identical to the original session's).
        """
        from repro.streaming.config import build_pipeline_and_index

        state = store.load_stream(name)
        pipeline, index = build_pipeline_and_index(state["config"])
        session = cls(
            pipeline,
            index,
            store=store,
            name=name,
            config=state["config"],
            _resuming=True,
        )
        records = [
            Record(record_id=native_id, values=payload)
            for _, native_id, payload in state["records"]
        ]
        session._unionfind.grow(len(records))
        for numeric_id, record in enumerate(records):
            session._numeric[record.record_id] = numeric_id
            session._native.append(record.record_id)
            session._raw[record.record_id] = record
        if records:
            prepared = pipeline.prepare(
                Dataset(records, name=f"{name}-resume")
            )
            for record in prepared:
                session._prepared[record.record_id] = record
        index.restore(
            (key, session._native[numeric_id])
            for key, numeric_id in state["blocks"]
        )
        for batch_index, first, second, score in state["merges"]:
            session._unionfind.union(first, second)
            session._accepted.append(
                ScoredPair(
                    score=score,
                    pair=make_pair(
                        session._native[first], session._native[second]
                    ),
                )
            )
        session._snapshots = [
            StreamSnapshot(**snapshot) for snapshot in state["snapshots"]
        ]
        if state["config"].get("graph"):
            from repro.graph.build import GraphUpdater

            session.attach_graph(GraphUpdater.attach(store, name))
        return session
