"""SQLite-backed persistent store (Appendix A.3).

Snowman persists datasets and experiments in SQLite "which can be
bundled together with the application" and assigns "a unique numerical
ID to each record, allowing constant time access" at import time.  This
module reproduces that storage design: one SQLite file (or in-memory
database), per-dataset record tables created dynamically, experiments
stored over numeric record ids, and gold standards stored as cluster
assignments.
"""

from __future__ import annotations

import json
import logging
import sqlite3
import threading
import time
from pathlib import Path

from repro.blocking_disk.store import BLOCKING_SCHEMA, DiskBlockingStore
from repro.core.clustering import Clustering
from repro.core.experiment import Experiment, GoldStandard, Match
from repro.core.notify import ListenerSet
from repro.core.pairs import make_pair
from repro.core.records import Dataset, Record
from repro.telemetry.metrics import get_metrics
from repro.telemetry.store import TELEMETRY_SCHEMA, TelemetryStore

_LOGGER = logging.getLogger(__name__)

__all__ = ["FrostStore", "StorageError", "SCHEMA_VERSION"]

# Bumped whenever the schema grows new tables.  Every table is created
# with IF NOT EXISTS, so opening an older file migrates it in place:
# the missing tables are added and the version is stamped.  Files
# written by a *newer* schema than this code knows are refused — the
# tables may carry semantics this version would silently corrupt.
#   1: seed .. PR 5 (datasets/experiments/golds/result_cache/streams)
#   2: PR 7 match-graph adjacency tables (graphs/graph_nodes/
#      graph_edges/graph_components)
#   3: PR 9 disk-backed blocking tables (blocking_runs/blocking_keys/
#      blocking_signatures — see repro.blocking_disk)
#   4: PR 10 telemetry warehouse tables (telemetry_runs/telemetry_spans/
#      telemetry_metrics/telemetry_profiles/telemetry_trajectories —
#      see repro.telemetry.store)
SCHEMA_VERSION = 4

# Process-wide connection-pool traffic, feeding GET /metrics.
_CONNECTIONS_OPENED = get_metrics().counter(
    "frost_store_connections_opened_total",
    "SQLite connections opened by store connection pools",
)
_CONNECTIONS_CLOSED = get_metrics().counter(
    "frost_store_connections_closed_total",
    "SQLite connections closed (pruned, drained, or lost races)",
)


class StorageError(RuntimeError):
    """Raised for storage-level failures (unknown names, collisions)."""


_SCHEMA = """
CREATE TABLE IF NOT EXISTS datasets (
    dataset_id INTEGER PRIMARY KEY,
    name TEXT UNIQUE NOT NULL,
    attributes TEXT NOT NULL,
    record_count INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS records (
    dataset_id INTEGER NOT NULL REFERENCES datasets(dataset_id),
    numeric_id INTEGER NOT NULL,
    native_id TEXT NOT NULL,
    payload TEXT NOT NULL,
    PRIMARY KEY (dataset_id, numeric_id)
);
CREATE UNIQUE INDEX IF NOT EXISTS idx_records_native
    ON records(dataset_id, native_id);
CREATE TABLE IF NOT EXISTS experiments (
    experiment_id INTEGER PRIMARY KEY,
    dataset_id INTEGER NOT NULL REFERENCES datasets(dataset_id),
    name TEXT NOT NULL,
    solution TEXT,
    metadata TEXT NOT NULL,
    UNIQUE (dataset_id, name)
);
CREATE TABLE IF NOT EXISTS matches (
    experiment_id INTEGER NOT NULL REFERENCES experiments(experiment_id),
    first_numeric INTEGER NOT NULL,
    second_numeric INTEGER NOT NULL,
    score REAL,
    from_clustering INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (experiment_id, first_numeric, second_numeric)
);
CREATE TABLE IF NOT EXISTS gold_standards (
    gold_id INTEGER PRIMARY KEY,
    dataset_id INTEGER NOT NULL REFERENCES datasets(dataset_id),
    name TEXT NOT NULL,
    UNIQUE (dataset_id, name)
);
CREATE TABLE IF NOT EXISTS gold_assignments (
    gold_id INTEGER NOT NULL REFERENCES gold_standards(gold_id),
    numeric_id INTEGER NOT NULL,
    cluster_index INTEGER NOT NULL,
    PRIMARY KEY (gold_id, numeric_id)
);
CREATE TABLE IF NOT EXISTS result_cache (
    cache_key TEXT PRIMARY KEY,
    kind TEXT NOT NULL,
    payload TEXT NOT NULL,
    created_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS streams (
    stream_id INTEGER PRIMARY KEY,
    name TEXT UNIQUE NOT NULL,
    config TEXT NOT NULL,
    created_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS stream_records (
    stream_id INTEGER NOT NULL REFERENCES streams(stream_id),
    numeric_id INTEGER NOT NULL,
    native_id TEXT NOT NULL,
    payload TEXT NOT NULL,
    batch_index INTEGER NOT NULL,
    PRIMARY KEY (stream_id, numeric_id)
);
CREATE UNIQUE INDEX IF NOT EXISTS idx_stream_records_native
    ON stream_records(stream_id, native_id);
CREATE TABLE IF NOT EXISTS stream_blocks (
    stream_id INTEGER NOT NULL REFERENCES streams(stream_id),
    block_key TEXT NOT NULL,
    numeric_id INTEGER NOT NULL,
    PRIMARY KEY (stream_id, block_key, numeric_id)
);
CREATE TABLE IF NOT EXISTS stream_merges (
    stream_id INTEGER NOT NULL REFERENCES streams(stream_id),
    batch_index INTEGER NOT NULL,
    merge_index INTEGER NOT NULL,
    first_numeric INTEGER NOT NULL,
    second_numeric INTEGER NOT NULL,
    score REAL,
    PRIMARY KEY (stream_id, batch_index, merge_index)
);
CREATE TABLE IF NOT EXISTS stream_snapshots (
    stream_id INTEGER NOT NULL REFERENCES streams(stream_id),
    version INTEGER NOT NULL,
    parent_version INTEGER,
    created_at REAL NOT NULL,
    record_count INTEGER NOT NULL,
    cluster_count INTEGER NOT NULL,
    pair_count INTEGER NOT NULL,
    delta_candidates INTEGER NOT NULL,
    accepted_matches INTEGER NOT NULL,
    PRIMARY KEY (stream_id, version)
);
CREATE TABLE IF NOT EXISTS graphs (
    graph_id INTEGER PRIMARY KEY,
    name TEXT UNIQUE NOT NULL,
    threshold REAL NOT NULL,
    created_at REAL NOT NULL,
    updated_at REAL NOT NULL,
    batch_count INTEGER NOT NULL DEFAULT 0,
    node_count INTEGER NOT NULL DEFAULT 0,
    edge_count INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS graph_nodes (
    graph_id INTEGER NOT NULL REFERENCES graphs(graph_id),
    node_id INTEGER NOT NULL,
    native_id TEXT NOT NULL,
    PRIMARY KEY (graph_id, node_id)
);
CREATE UNIQUE INDEX IF NOT EXISTS idx_graph_nodes_native
    ON graph_nodes(graph_id, native_id);
CREATE TABLE IF NOT EXISTS graph_edges (
    graph_id INTEGER NOT NULL REFERENCES graphs(graph_id),
    first_node INTEGER NOT NULL,
    second_node INTEGER NOT NULL,
    score REAL NOT NULL,
    accepted INTEGER NOT NULL,
    breakdown TEXT,
    PRIMARY KEY (graph_id, first_node, second_node)
);
CREATE INDEX IF NOT EXISTS idx_graph_edges_second
    ON graph_edges(graph_id, second_node);
CREATE TABLE IF NOT EXISTS graph_components (
    graph_id INTEGER NOT NULL REFERENCES graphs(graph_id),
    node_id INTEGER NOT NULL,
    component INTEGER NOT NULL,
    PRIMARY KEY (graph_id, node_id)
);
CREATE INDEX IF NOT EXISTS idx_graph_components_component
    ON graph_components(graph_id, component);
""" + BLOCKING_SCHEMA + TELEMETRY_SCHEMA


class FrostStore:
    """Persistent store for datasets, experiments, and gold standards.

    Parameters
    ----------
    path:
        SQLite file path, or ``":memory:"`` (default) for an ephemeral
        store.

    Thread safety: file-backed stores hand each thread its **own**
    SQLite connection (created lazily, pooled for :meth:`close`), so
    the multi-threaded HTTP front-end and the engine's worker pool can
    read concurrently without sharing cursors, readers are isolated
    from in-flight write transactions, and writers across connections
    wait on each other through SQLite's busy handler.  In-memory
    stores keep one shared connection — separate connections to
    ``":memory:"`` would each see a private, empty database.  Sharing
    is crash-safe (CPython's ``sqlite3`` serializes statement
    execution, ``sqlite3.threadsafety == 3``) but, as in the original
    single-connection design, same-connection readers are **not**
    isolated from a concurrent multi-statement write transaction —
    production serving should use a file-backed store, which is what
    ``python -m repro serve`` does.  In both modes, multi-statement
    writes serialize behind :attr:`_lock` and run inside explicit
    transactions with foreign keys enforced, so a failed import never
    leaves partial rows behind.
    """

    _BUSY_TIMEOUT_MS = 10_000

    def __init__(self, path: str | Path = ":memory:") -> None:
        self._path = str(path)
        self._in_memory = self._path == ":memory:"
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pool: list[tuple[threading.Thread, sqlite3.Connection]] = []
        self._pool_lock = threading.Lock()
        self._closed = False
        self._graph_listeners = ListenerSet()
        # The creating thread's connection doubles as the schema
        # bootstrapper (and, for :memory:, as the one shared handle).
        connection = self._connect()
        stored_version = connection.execute("PRAGMA user_version").fetchone()[0]
        if stored_version > SCHEMA_VERSION:
            connection.close()
            raise StorageError(
                f"store {self._path!r} uses schema version {stored_version}, "
                f"newer than the supported version {SCHEMA_VERSION}"
            )
        # Every table is IF NOT EXISTS, so pre-existing files (e.g. a
        # store written before the graph tables existed) migrate in
        # place: missing tables are added, present ones are untouched.
        connection.executescript(_SCHEMA)
        if stored_version < SCHEMA_VERSION:
            connection.execute(f"PRAGMA user_version={SCHEMA_VERSION:d}")
        connection.commit()
        if self._in_memory:
            self._shared_connection = connection
        else:
            self._local.connection = connection

    def _connect(self) -> sqlite3.Connection:
        """Open, configure, and pool one SQLite connection."""
        if self._closed:
            raise StorageError(f"store {self._path!r} is closed")
        try:
            connection = sqlite3.connect(self._path, check_same_thread=False)
        except sqlite3.Error as error:
            raise StorageError(
                f"cannot open store {self._path!r}: {error}"
            ) from None
        connection.execute("PRAGMA foreign_keys=ON")
        # Writers on sibling connections hold the file briefly during
        # commits; waiting beats surfacing sqlite3.OperationalError to
        # a concurrent reader thread.
        connection.execute(f"PRAGMA busy_timeout={self._BUSY_TIMEOUT_MS}")
        _CONNECTIONS_OPENED.inc()
        with self._pool_lock:
            if self._closed:
                # lost a race with close(): never pool past the drain
                connection.close()
                _CONNECTIONS_CLOSED.inc()
                raise StorageError(f"store {self._path!r} is closed")
            if not self._in_memory:
                # A thread-per-connection server retires request
                # threads constantly; without pruning, every retired
                # thread's connection stays pinned by the pool forever
                # (EMFILE eventually).  The :memory: store is exempt —
                # its one shared connection must outlive its creator.
                alive = []
                for thread, pooled in self._pool:
                    if thread.is_alive():
                        alive.append((thread, pooled))
                    else:
                        pooled.close()
                        _CONNECTIONS_CLOSED.inc()
                self._pool = alive
            self._pool.append((threading.current_thread(), connection))
        return connection

    @property
    def _connection(self) -> sqlite3.Connection:
        """The calling thread's connection (shared one for :memory:)."""
        if self._closed:
            raise StorageError(f"store {self._path!r} is closed")
        if self._in_memory:
            return self._shared_connection
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._connect()
            self._local.connection = connection
        return connection

    def close(self) -> None:
        """Close every pooled connection (all threads' handles)."""
        self._closed = True
        with self._pool_lock:
            entries, self._pool = self._pool, []
        for _, connection in entries:
            connection.close()
        _CONNECTIONS_CLOSED.inc(len(entries))

    def __enter__(self) -> "FrostStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- datasets ---------------------------------------------------------------

    def save_dataset(self, dataset: Dataset) -> int:
        """Persist a dataset; numeric ids are assigned by import order.

        Runs as one transaction: either the dataset row and all record
        rows land, or none do.
        """
        with self._lock, self._connection:
            cursor = self._connection.cursor()
            try:
                cursor.execute(
                    "INSERT INTO datasets (name, attributes, record_count) "
                    "VALUES (?, ?, ?)",
                    (
                        dataset.name,
                        json.dumps(list(dataset.attributes)),
                        len(dataset),
                    ),
                )
            except sqlite3.IntegrityError:
                raise StorageError(
                    f"dataset {dataset.name!r} already stored"
                ) from None
            dataset_id = cursor.lastrowid
            cursor.executemany(
                "INSERT INTO records (dataset_id, numeric_id, native_id, payload) "
                "VALUES (?, ?, ?, ?)",
                (
                    (
                        dataset_id,
                        numeric_id,
                        record.record_id,
                        json.dumps(dict(record.values)),
                    )
                    for numeric_id, record in enumerate(dataset)
                ),
            )
        return dataset_id

    def load_dataset(self, name: str) -> Dataset:
        """Load a dataset by name (records in original import order)."""
        row = self._connection.execute(
            "SELECT dataset_id, attributes FROM datasets WHERE name = ?", (name,)
        ).fetchone()
        if row is None:
            raise StorageError(f"no dataset named {name!r}")
        dataset_id, attributes_json = row
        records = [
            Record(record_id=native_id, values=json.loads(payload))
            for native_id, payload in self._connection.execute(
                "SELECT native_id, payload FROM records "
                "WHERE dataset_id = ? ORDER BY numeric_id",
                (dataset_id,),
            )
        ]
        return Dataset(records, name=name, attributes=json.loads(attributes_json))

    def dataset_names(self) -> list[str]:
        """Names of all stored datasets, sorted."""
        return [
            name
            for (name,) in self._connection.execute(
                "SELECT name FROM datasets ORDER BY name"
            )
        ]

    def _dataset_id(self, name: str) -> int:
        row = self._connection.execute(
            "SELECT dataset_id FROM datasets WHERE name = ?", (name,)
        ).fetchone()
        if row is None:
            raise StorageError(f"no dataset named {name!r}")
        return row[0]

    def _numeric_ids(self, dataset_id: int) -> dict[str, int]:
        return {
            native: numeric
            for native, numeric in self._connection.execute(
                "SELECT native_id, numeric_id FROM records WHERE dataset_id = ?",
                (dataset_id,),
            )
        }

    def _native_ids(self, dataset_id: int) -> dict[int, str]:
        return {
            numeric: native
            for native, numeric in self._connection.execute(
                "SELECT native_id, numeric_id FROM records WHERE dataset_id = ?",
                (dataset_id,),
            )
        }

    # -- experiments --------------------------------------------------------------

    def save_experiment(self, dataset_name: str, experiment: Experiment) -> int:
        """Persist an experiment over the dataset's numeric record ids.

        The native→numeric mapping at import time is the Snowman
        optimization: it takes ``O(|Matches| · log|D|)`` and makes all
        later evaluations id-arithmetic only (§5.3).
        """
        dataset_id = self._dataset_id(dataset_name)
        numeric = self._numeric_ids(dataset_id)

        def numeric_pair(match: Match) -> tuple[int, int]:
            try:
                first = numeric[match.pair[0]]
                second = numeric[match.pair[1]]
            except KeyError as missing:
                raise StorageError(
                    f"experiment {experiment.name!r} references unknown "
                    f"record {missing} of dataset {dataset_name!r}"
                ) from None
            return (first, second) if first < second else (second, first)

        with self._lock, self._connection:
            cursor = self._connection.cursor()
            try:
                cursor.execute(
                    "INSERT INTO experiments (dataset_id, name, solution, metadata) "
                    "VALUES (?, ?, ?, ?)",
                    (
                        dataset_id,
                        experiment.name,
                        experiment.solution,
                        json.dumps(experiment.metadata, default=str),
                    ),
                )
            except sqlite3.IntegrityError:
                raise StorageError(
                    f"experiment {experiment.name!r} already stored for "
                    f"dataset {dataset_name!r}"
                ) from None
            experiment_id = cursor.lastrowid
            cursor.executemany(
                "INSERT INTO matches (experiment_id, first_numeric, second_numeric, "
                "score, from_clustering) VALUES (?, ?, ?, ?, ?)",
                (
                    (
                        experiment_id,
                        *numeric_pair(match),
                        match.score,
                        int(match.from_clustering),
                    )
                    for match in experiment.matches
                ),
            )
        return experiment_id

    def load_experiment(self, dataset_name: str, experiment_name: str) -> Experiment:
        """Load an experiment of a dataset by name."""
        dataset_id = self._dataset_id(dataset_name)
        row = self._connection.execute(
            "SELECT experiment_id, solution, metadata FROM experiments "
            "WHERE dataset_id = ? AND name = ?",
            (dataset_id, experiment_name),
        ).fetchone()
        if row is None:
            raise StorageError(
                f"no experiment {experiment_name!r} for dataset {dataset_name!r}"
            )
        experiment_id, solution, metadata_json = row
        native = self._native_ids(dataset_id)
        matches = [
            Match(
                pair=make_pair(native[first], native[second]),
                score=score,
                from_clustering=bool(from_clustering),
            )
            for first, second, score, from_clustering in self._connection.execute(
                "SELECT first_numeric, second_numeric, score, from_clustering "
                "FROM matches WHERE experiment_id = ?",
                (experiment_id,),
            )
        ]
        return Experiment(
            matches,
            name=experiment_name,
            solution=solution,
            metadata=json.loads(metadata_json),
        )

    def experiment_names(self, dataset_name: str) -> list[str]:
        """Names of a dataset's stored experiments, sorted."""
        dataset_id = self._dataset_id(dataset_name)
        return [
            name
            for (name,) in self._connection.execute(
                "SELECT name FROM experiments WHERE dataset_id = ? ORDER BY name",
                (dataset_id,),
            )
        ]

    def delete_experiment(self, dataset_name: str, experiment_name: str) -> None:
        """Delete an experiment and its matches."""
        dataset_id = self._dataset_id(dataset_name)
        row = self._connection.execute(
            "SELECT experiment_id FROM experiments WHERE dataset_id = ? AND name = ?",
            (dataset_id, experiment_name),
        ).fetchone()
        if row is None:
            raise StorageError(
                f"no experiment {experiment_name!r} for dataset {dataset_name!r}"
            )
        with self._lock, self._connection:
            self._connection.execute(
                "DELETE FROM matches WHERE experiment_id = ?", (row[0],)
            )
            self._connection.execute(
                "DELETE FROM experiments WHERE experiment_id = ?", (row[0],)
            )

    # -- gold standards --------------------------------------------------------------

    def save_gold_standard(self, dataset_name: str, gold: GoldStandard) -> int:
        """Persist a gold standard over the dataset's numeric ids."""
        dataset_id = self._dataset_id(dataset_name)
        numeric = self._numeric_ids(dataset_id)
        rows = []
        for cluster_index, cluster in enumerate(gold.clustering.clusters):
            for record_id in cluster:
                if record_id not in numeric:
                    raise StorageError(
                        f"gold {gold.name!r} references unknown record "
                        f"{record_id!r} of dataset {dataset_name!r}"
                    )
                rows.append((numeric[record_id], cluster_index))
        with self._lock, self._connection:
            cursor = self._connection.cursor()
            try:
                cursor.execute(
                    "INSERT INTO gold_standards (dataset_id, name) VALUES (?, ?)",
                    (dataset_id, gold.name),
                )
            except sqlite3.IntegrityError:
                raise StorageError(
                    f"gold standard {gold.name!r} already stored for "
                    f"dataset {dataset_name!r}"
                ) from None
            gold_id = cursor.lastrowid
            cursor.executemany(
                "INSERT INTO gold_assignments (gold_id, numeric_id, cluster_index) "
                "VALUES (?, ?, ?)",
                ((gold_id, numeric_id, index) for numeric_id, index in rows),
            )
        return gold_id

    def load_gold_standard(self, dataset_name: str, gold_name: str) -> GoldStandard:
        """Load a gold standard of a dataset by name."""
        dataset_id = self._dataset_id(dataset_name)
        row = self._connection.execute(
            "SELECT gold_id FROM gold_standards WHERE dataset_id = ? AND name = ?",
            (dataset_id, gold_name),
        ).fetchone()
        if row is None:
            raise StorageError(
                f"no gold standard {gold_name!r} for dataset {dataset_name!r}"
            )
        native = self._native_ids(dataset_id)
        clusters: dict[int, list[str]] = {}
        for numeric_id, cluster_index in self._connection.execute(
            "SELECT numeric_id, cluster_index FROM gold_assignments WHERE gold_id = ?",
            (row[0],),
        ):
            clusters.setdefault(cluster_index, []).append(native[numeric_id])
        return GoldStandard(clustering=Clustering(clusters.values()), name=gold_name)

    def gold_standard_names(self, dataset_name: str) -> list[str]:
        """Names of a dataset's stored gold standards, sorted."""
        dataset_id = self._dataset_id(dataset_name)
        return [
            name
            for (name,) in self._connection.execute(
                "SELECT name FROM gold_standards WHERE dataset_id = ? ORDER BY name",
                (dataset_id,),
            )
        ]

    # -- result cache -------------------------------------------------------------

    def cache_get(self, cache_key: str) -> object | None:
        """The cached payload under ``cache_key``, or ``None`` on a miss.

        Backs the engine's content-addressed result cache
        (:mod:`repro.engine.cache`): keys are digests of dataset +
        config + gold-standard content, payloads are JSON documents.
        A payload that no longer decodes (a torn or hand-edited row) is
        a miss, not an error: the job recomputes and :meth:`cache_put`
        overwrites the row.
        """
        with self._lock:
            row = self._connection.execute(
                "SELECT payload FROM result_cache WHERE cache_key = ?",
                (cache_key,),
            ).fetchone()
        if row is None:
            return None
        try:
            return json.loads(row[0])
        except (json.JSONDecodeError, UnicodeDecodeError):
            _LOGGER.warning(
                "result_cache row %s does not decode; treating it as a miss",
                cache_key,
            )
            return None

    def cache_put(self, cache_key: str, kind: str, payload: object) -> None:
        """Persist ``payload`` (JSON-serializable) under ``cache_key``."""
        document = json.dumps(payload)
        with self._lock, self._connection:
            self._connection.execute(
                "INSERT OR REPLACE INTO result_cache "
                "(cache_key, kind, payload, created_at) VALUES (?, ?, ?, ?)",
                (cache_key, kind, document, time.time()),
            )

    def cache_entries(self) -> list[tuple[str, str]]:
        """All ``(cache_key, kind)`` rows, oldest first."""
        with self._lock:
            return list(
                self._connection.execute(
                    "SELECT cache_key, kind FROM result_cache ORDER BY created_at"
                )
            )

    def cache_clear(self) -> int:
        """Drop all cached results; returns the number of rows deleted."""
        with self._lock, self._connection:
            cursor = self._connection.execute("DELETE FROM result_cache")
            return cursor.rowcount

    # -- streaming sessions --------------------------------------------------------

    def create_stream(self, name: str, config: object) -> int:
        """Register a durable streaming session under ``name``.

        ``config`` is the JSON document a
        :class:`~repro.streaming.StreamingMatcher` can be rebuilt from
        (see :mod:`repro.streaming.config`).
        """
        with self._lock, self._connection:
            try:
                cursor = self._connection.execute(
                    "INSERT INTO streams (name, config, created_at) "
                    "VALUES (?, ?, ?)",
                    (name, json.dumps(config), time.time()),
                )
            except sqlite3.IntegrityError:
                raise StorageError(f"stream {name!r} already stored") from None
            return cursor.lastrowid

    def stream_names(self) -> list[str]:
        """Names of all stored streams, sorted."""
        return [
            name
            for (name,) in self._connection.execute(
                "SELECT name FROM streams ORDER BY name"
            )
        ]

    def _stream_id(self, name: str) -> int:
        row = self._connection.execute(
            "SELECT stream_id FROM streams WHERE name = ?", (name,)
        ).fetchone()
        if row is None:
            raise StorageError(f"no stream named {name!r}")
        return row[0]

    def stream_config(self, name: str) -> dict:
        """The stored session config of stream ``name``."""
        row = self._connection.execute(
            "SELECT config FROM streams WHERE name = ?", (name,)
        ).fetchone()
        if row is None:
            raise StorageError(f"no stream named {name!r}")
        return json.loads(row[0])

    def append_stream_batch(
        self,
        name: str,
        batch_index: int,
        records: list[tuple[int, str, dict]],
        blocks: list[tuple[str, int]],
        merges: list[tuple[int, int, float | None]],
        snapshot: dict,
    ) -> None:
        """Persist one ingest atomically: records, blocks, merges, snapshot.

        ``records`` rows are ``(numeric_id, native_id, payload)``,
        ``blocks`` rows ``(block_key, numeric_id)`` (only the *delta*
        memberships of this batch), ``merges`` rows
        ``(first_numeric, second_numeric, score)`` — the accepted-match
        merge log — and ``snapshot`` the versioned summary produced by
        the session.  Either the whole batch lands or none of it, so a
        crashed ingest never leaves a stream half-written.
        """
        with self._lock, self._connection:
            stream_id = self._stream_id(name)
            try:
                self._connection.executemany(
                    "INSERT INTO stream_records "
                    "(stream_id, numeric_id, native_id, payload, batch_index) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (
                        (stream_id, numeric_id, native_id, json.dumps(payload),
                         batch_index)
                        for numeric_id, native_id, payload in records
                    ),
                )
                self._connection.executemany(
                    "INSERT INTO stream_blocks "
                    "(stream_id, block_key, numeric_id) VALUES (?, ?, ?)",
                    (
                        (stream_id, block_key, numeric_id)
                        for block_key, numeric_id in blocks
                    ),
                )
                self._connection.executemany(
                    "INSERT INTO stream_merges (stream_id, batch_index, "
                    "merge_index, first_numeric, second_numeric, score) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    (
                        (stream_id, batch_index, merge_index, first, second,
                         score)
                        for merge_index, (first, second, score)
                        in enumerate(merges)
                    ),
                )
                self._connection.execute(
                    "INSERT INTO stream_snapshots (stream_id, version, "
                    "parent_version, created_at, record_count, cluster_count, "
                    "pair_count, delta_candidates, accepted_matches) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        stream_id,
                        snapshot["version"],
                        snapshot["parent_version"],
                        time.time(),
                        snapshot["record_count"],
                        snapshot["cluster_count"],
                        snapshot["pair_count"],
                        snapshot["delta_candidates"],
                        snapshot["accepted_matches"],
                    ),
                )
            except sqlite3.IntegrityError as collision:
                raise StorageError(
                    f"stream {name!r}: batch {batch_index} collides with "
                    f"stored state ({collision})"
                ) from None

    def load_stream(self, name: str) -> dict:
        """Everything needed to resume stream ``name`` as one document.

        Returns ``config``, ``records`` rows
        ``(numeric_id, native_id, payload)`` ordered by numeric id,
        ``blocks`` rows ``(block_key, numeric_id)``, ``merges`` rows
        ``(batch_index, first_numeric, second_numeric, score)`` in
        ingest order, and ``snapshots`` as keyword-ready dictionaries,
        oldest first.
        """
        stream_id = self._stream_id(name)
        records = [
            (numeric_id, native_id, json.loads(payload))
            for numeric_id, native_id, payload in self._connection.execute(
                "SELECT numeric_id, native_id, payload FROM stream_records "
                "WHERE stream_id = ? ORDER BY numeric_id",
                (stream_id,),
            )
        ]
        blocks = list(
            self._connection.execute(
                "SELECT block_key, numeric_id FROM stream_blocks "
                "WHERE stream_id = ? ORDER BY block_key, numeric_id",
                (stream_id,),
            )
        )
        merges = list(
            self._connection.execute(
                "SELECT batch_index, first_numeric, second_numeric, score "
                "FROM stream_merges WHERE stream_id = ? "
                "ORDER BY batch_index, merge_index",
                (stream_id,),
            )
        )
        return {
            "config": self.stream_config(name),
            "records": records,
            "blocks": blocks,
            "merges": merges,
            "snapshots": self.stream_snapshot_lineage(name),
        }

    # -- match graphs --------------------------------------------------------------

    @property
    def schema_version(self) -> int:
        """The schema version stamped into this store file."""
        return self._connection.execute("PRAGMA user_version").fetchone()[0]

    def blocking_store(self) -> DiskBlockingStore:
        """A disk-blocking view over this store's blocking tables.

        Blocking runs spilled through it live next to the datasets
        (schema version 3), so a platform store file carries its own
        reproducible blocking state.  The view borrows the calling
        thread's connection — closing it never closes the store.
        """
        return DiskBlockingStore(connection=self._connection)

    def telemetry_store(self, max_runs: int | None = None) -> TelemetryStore:
        """A telemetry-warehouse view over this store's telemetry tables.

        Traces recorded through it live next to the data they measured
        (schema version 4), so a platform store file carries its own
        performance history.  The view borrows the calling thread's
        connection — closing it never closes the store.
        """
        return TelemetryStore(connection=self._connection, max_runs=max_runs)

    def subscribe_graph(self, listener) -> None:
        """Call ``listener(graph_name)`` after every graph write.

        The graph counterpart of :meth:`FrostPlatform.subscribe`: the
        serving layer subscribes here so a streaming ingest (or any
        other graph write) invalidates the graph's cached traversal
        payloads before the next read.  Bound methods are held weakly.
        """
        self._graph_listeners.subscribe(listener)

    def create_graph(self, name: str, threshold: float) -> int:
        """Register an empty match graph under ``name``."""
        with self._lock, self._connection:
            try:
                cursor = self._connection.execute(
                    "INSERT INTO graphs (name, threshold, created_at, "
                    "updated_at) VALUES (?, ?, ?, ?)",
                    (name, float(threshold), time.time(), time.time()),
                )
            except sqlite3.IntegrityError:
                raise StorageError(f"graph {name!r} already stored") from None
            graph_id = cursor.lastrowid
        self._graph_listeners.notify(name)
        return graph_id

    def delete_graph(self, name: str) -> None:
        """Drop a graph and all its nodes, edges, and components."""
        with self._lock, self._connection:
            graph_id = self._graph_id(name)
            for table in ("graph_components", "graph_edges", "graph_nodes"):
                self._connection.execute(
                    f"DELETE FROM {table} WHERE graph_id = ?", (graph_id,)
                )
            self._connection.execute(
                "DELETE FROM graphs WHERE graph_id = ?", (graph_id,)
            )
        self._graph_listeners.notify(name)

    def graph_names(self) -> list[str]:
        """Names of all stored graphs, sorted."""
        return [
            name
            for (name,) in self._connection.execute(
                "SELECT name FROM graphs ORDER BY name"
            )
        ]

    def _graph_id(self, name: str) -> int:
        row = self._connection.execute(
            "SELECT graph_id FROM graphs WHERE name = ?", (name,)
        ).fetchone()
        if row is None:
            raise StorageError(f"no graph named {name!r}")
        return row[0]

    def graph_meta(self, name: str) -> dict:
        """Summary row of graph ``name`` (threshold, counts, timestamps)."""
        row = self._connection.execute(
            "SELECT threshold, created_at, updated_at, batch_count, "
            "node_count, edge_count FROM graphs WHERE name = ?",
            (name,),
        ).fetchone()
        if row is None:
            raise StorageError(f"no graph named {name!r}")
        threshold, created_at, updated_at, batches, nodes, edges = row
        return {
            "name": name,
            "threshold": threshold,
            "created_at": created_at,
            "updated_at": updated_at,
            "batch_count": batches,
            "node_count": nodes,
            "edge_count": edges,
        }

    def append_graph_batch(
        self,
        name: str,
        nodes: list[tuple[int, str]],
        edges: list[tuple[int, int, float, bool, str | None]],
        components: list[tuple[int, int]],
    ) -> None:
        """Persist one graph delta atomically: nodes, edges, relabels.

        ``nodes`` rows are ``(node_id, native_id)``, ``edges`` rows
        ``(first_node, second_node, score, accepted, breakdown_json)``
        with ``first_node < second_node``, and ``components`` rows
        ``(node_id, component)`` — the membership assignments this
        batch *changed* (new singletons and every node whose component
        label moved), replacing any previous label.  Either the whole
        delta lands or none of it.
        """
        with self._lock, self._connection:
            graph_id = self._graph_id(name)
            try:
                self._connection.executemany(
                    "INSERT INTO graph_nodes (graph_id, node_id, native_id) "
                    "VALUES (?, ?, ?)",
                    ((graph_id, node_id, native) for node_id, native in nodes),
                )
                self._connection.executemany(
                    "INSERT INTO graph_edges (graph_id, first_node, "
                    "second_node, score, accepted, breakdown) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    (
                        (graph_id, first, second, score, int(accepted),
                         breakdown)
                        for first, second, score, accepted, breakdown in edges
                    ),
                )
            except sqlite3.IntegrityError as collision:
                raise StorageError(
                    f"graph {name!r}: batch collides with stored state "
                    f"({collision})"
                ) from None
            self._connection.executemany(
                "INSERT OR REPLACE INTO graph_components "
                "(graph_id, node_id, component) VALUES (?, ?, ?)",
                (
                    (graph_id, node_id, component)
                    for node_id, component in components
                ),
            )
            self._connection.execute(
                "UPDATE graphs SET updated_at = ?, batch_count = batch_count "
                "+ 1, node_count = node_count + ?, edge_count = edge_count "
                "+ ? WHERE graph_id = ?",
                (time.time(), len(nodes), len(edges), graph_id),
            )
        self._graph_listeners.notify(name)

    def load_graph(self, name: str) -> dict:
        """Everything stored for graph ``name`` as one document.

        Returns ``meta`` (see :meth:`graph_meta`), ``nodes`` rows
        ``(node_id, native_id)`` ordered by node id, ``edges`` rows
        ``(first_node, second_node, score, accepted, breakdown_json)``
        in canonical pair order, and ``components`` rows
        ``(node_id, component)``.

        A batch appended concurrently is seen whole or not at all (node
        and edge rows always agree): the reads hold the store's write
        lock against other threads of this process, and run in one
        SQLite read transaction against other processes writing the
        same file.
        """
        with self._lock:
            connection = self._connection
            # Python's sqlite3 runs bare SELECTs in autocommit mode; an
            # explicit BEGIN keeps one read snapshot across all four.
            # No other process can reach a :memory: store, and its one
            # shared handle may carry another thread's transaction.
            owned = not self._in_memory and not connection.in_transaction
            if owned:
                connection.execute("BEGIN")
            try:
                meta = self.graph_meta(name)
                graph_id = self._graph_id(name)
                nodes = list(
                    connection.execute(
                        "SELECT node_id, native_id FROM graph_nodes "
                        "WHERE graph_id = ? ORDER BY node_id",
                        (graph_id,),
                    )
                )
                edges = [
                    (first, second, score, bool(accepted), breakdown)
                    for first, second, score, accepted, breakdown
                    in connection.execute(
                        "SELECT first_node, second_node, score, accepted, "
                        "breakdown FROM graph_edges WHERE graph_id = ? "
                        "ORDER BY first_node, second_node",
                        (graph_id,),
                    )
                ]
                components = list(
                    connection.execute(
                        "SELECT node_id, component FROM graph_components "
                        "WHERE graph_id = ? ORDER BY node_id",
                        (graph_id,),
                    )
                )
            finally:
                if owned:
                    connection.rollback()
        return {
            "meta": meta,
            "nodes": nodes,
            "edges": edges,
            "components": components,
        }

    def stream_snapshot_lineage(self, name: str) -> list[dict]:
        """The snapshot lineage of stream ``name``, oldest first."""
        stream_id = self._stream_id(name)
        return [
            {
                "version": version,
                "parent_version": parent_version,
                "record_count": record_count,
                "cluster_count": cluster_count,
                "pair_count": pair_count,
                "delta_candidates": delta_candidates,
                "accepted_matches": accepted_matches,
            }
            for version, parent_version, record_count, cluster_count,
            pair_count, delta_candidates, accepted_matches
            in self._connection.execute(
                "SELECT version, parent_version, record_count, cluster_count, "
                "pair_count, delta_candidates, accepted_matches "
                "FROM stream_snapshots WHERE stream_id = ? ORDER BY version",
                (stream_id,),
            )
        ]
