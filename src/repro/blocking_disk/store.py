"""SQLite-resident blocking state: membership rows and the pair joins.

Every in-memory blocker materializes ``dict[str, list[str]]`` block
membership lists plus the full candidate set in Python memory, so the
corpus size a machine can block is RAM-bound.  :class:`DiskBlockingStore`
keeps that state in indexed SQLite tables instead and pushes the pair
generation down into the storage engine — an equi-self-join over the
membership table for key/bucket schemes, a ``ROW_NUMBER()`` window
function for the sorted-neighborhood method — streaming the result back
in bounded chunks.  Python memory then holds one chunk at a time, no
matter how large the corpus or its blocks are.

:class:`SqliteMembership` exposes one run's rows as a membership
backend of the blocking index.  All disk-blocking SQL lives here.

The candidate sets are *identical* to the in-memory backend, by
construction: the same key emitters produce the same ``(block_key,
record_id)`` rows, and SQLite's default BINARY collation compares TEXT
byte-wise, which over UTF-8 equals Python's code-point string order —
so SQL's ``record_id < record_id`` canonicalization and ``ORDER BY
block_key, record_id`` reproduce :func:`repro.core.pairs.make_pair` and
the sorted-neighborhood sort exactly.

The tables live either in a scratch database (default: a temp file,
removed on close) or inside a :class:`~repro.storage.database.FrostStore`
file — they are part of the store schema since ``user_version`` 3, and
older store files migrate in place on open.  ``blocking_signatures``
is kept in the schema so those files stay valid; nothing writes it.
"""

from __future__ import annotations

import json
import shutil
import sqlite3
import tempfile
import time
import weakref
from collections.abc import Iterable, Iterator, Sequence
from functools import partial
from itertools import islice
from pathlib import Path

from repro.core.pairs import Pair
from repro.telemetry.metrics import get_metrics

__all__ = [
    "BLOCKING_SCHEMA",
    "DEFAULT_CHUNK_SIZE",
    "DiskBlockingStore",
    "SqliteMembership",
]

# Appended to the FrostStore schema (user_version 3) and bootstrapped
# standalone for scratch stores.  ``entry_id`` aliases SQLite's rowid,
# so block membership keeps its arrival order — the property the
# incremental index's emission cap depends on.
BLOCKING_SCHEMA = """
CREATE TABLE IF NOT EXISTS blocking_runs (
    run_id INTEGER PRIMARY KEY,
    scheme TEXT NOT NULL,
    config TEXT NOT NULL,
    created_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS blocking_keys (
    entry_id INTEGER PRIMARY KEY,
    run_id INTEGER NOT NULL REFERENCES blocking_runs(run_id),
    block_key TEXT NOT NULL,
    record_id TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_blocking_keys_run_key
    ON blocking_keys(run_id, block_key, record_id);
CREATE TABLE IF NOT EXISTS blocking_signatures (
    run_id INTEGER NOT NULL REFERENCES blocking_runs(run_id),
    record_id TEXT NOT NULL,
    signature BLOB NOT NULL,
    PRIMARY KEY (run_id, record_id)
);
"""

DEFAULT_CHUNK_SIZE = 50_000

_ROWS_SPILLED = get_metrics().counter(
    "frost_blocking_rows_spilled_total",
    "Block-membership rows spilled to the disk blocking store",
)
_CHUNKS_STREAMED = get_metrics().counter(
    "frost_blocking_chunks_total",
    "Candidate chunks streamed back from disk-backed SQL blocking joins",
)
_DISK_RUNS = get_metrics().counter(
    "frost_blocking_disk_runs_total",
    "Blocking runs executed through the disk-backed SQL path",
)

# The equi-self-join: two rows of one block become a candidate pair,
# canonicalized by the BINARY-collation `<` (== Python string order on
# UTF-8 text).  DISTINCT collapses pairs sharing several blocks; the
# ORDER BY makes chunk boundaries deterministic.  Both fold into one
# temp b-tree, which SQLite spills to disk past its page-cache budget.
_EQUI_JOIN = """
SELECT DISTINCT a.record_id, b.record_id
FROM blocking_keys AS a
JOIN blocking_keys AS b
    ON b.run_id = a.run_id
    AND b.block_key = a.block_key
    AND b.record_id > a.record_id
WHERE a.run_id = :run_id{purge_filter}
ORDER BY a.record_id, b.record_id
"""

_PURGE_FILTER = """
    AND a.block_key NOT IN (
        SELECT block_key FROM blocking_keys
        WHERE run_id = :run_id
        GROUP BY block_key
        HAVING COUNT(*) > :max_block_size)
"""

# Sorted-neighborhood pushdown: ROW_NUMBER() over (key, record_id)
# reproduces the tie-broken Python sort, and the position band-join
# pairs each record with its window successors.  Window pairs are not
# id-ordered, so the CASE pair canonicalizes per row.
_WINDOW_JOIN = """
WITH ordered AS (
    SELECT record_id,
           ROW_NUMBER() OVER (ORDER BY block_key, record_id) AS pos
    FROM blocking_keys WHERE run_id = :run_id
)
SELECT
    CASE WHEN a.record_id < b.record_id
         THEN a.record_id ELSE b.record_id END AS first_id,
    CASE WHEN a.record_id < b.record_id
         THEN b.record_id ELSE a.record_id END AS second_id
FROM ordered AS a
JOIN ordered AS b
    ON b.pos > a.pos AND b.pos < a.pos + :window
ORDER BY first_id, second_id
"""


def _cleanup(connection: sqlite3.Connection | None, scratch: str | None) -> None:
    if connection is not None:
        try:
            connection.close()
        except sqlite3.Error:  # pragma: no cover - close() is best-effort
            pass
    if scratch is not None:
        shutil.rmtree(scratch, ignore_errors=True)


class DiskBlockingStore:
    """Owns the blocking tables of one SQLite database.

    Parameters
    ----------
    path:
        Database file to use.  ``None`` (default) creates a scratch
        temp file that is deleted on :meth:`close` (or at garbage
        collection).  Pointing it at a
        :class:`~repro.storage.database.FrostStore` file co-locates
        blocking state with the platform's datasets.
    connection:
        Reuse an existing connection instead of opening one (the
        in-memory FrostStore case — a second connection to
        ``":memory:"`` would see a different database).  Borrowed
        connections are never closed and their durability pragmas are
        left untouched.
    chunk_size:
        Default rows per streamed candidate chunk — the peak number of
        pairs held in Python memory during a join.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        connection: sqlite3.Connection | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.chunk_size = chunk_size
        scratch = None
        if connection is not None:
            if path is not None:
                raise ValueError("pass either path or connection, not both")
            self._connection = connection
            owned = None
        else:
            if path is None:
                scratch = tempfile.mkdtemp(prefix="frost-blocking-")
                path = Path(scratch) / "blocking.sqlite3"
            self._connection = sqlite3.connect(
                str(path), check_same_thread=False
            )
            owned = self._connection
            # Blocking state is derived data: recompute beats recover,
            # so scratch durability is traded for spill throughput.
            # The page-cache cap keeps the join's memory footprint
            # bounded (temp b-trees past it spill to disk files).
            self._connection.execute("PRAGMA journal_mode=OFF")
            self._connection.execute("PRAGMA synchronous=OFF")
            self._connection.execute("PRAGMA cache_size=-16384")
            self._connection.execute("PRAGMA temp_store=FILE")
        self._connection.executescript(BLOCKING_SCHEMA)
        self._connection.commit()
        self._finalizer = weakref.finalize(self, _cleanup, owned, scratch)

    @property
    def connection(self) -> sqlite3.Connection:
        """The underlying SQLite connection (single-threaded use)."""
        return self._connection

    def close(self) -> None:
        """Close an owned connection and remove a scratch database."""
        self._finalizer()

    def __enter__(self) -> "DiskBlockingStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- runs -------------------------------------------------------------------

    def begin_run(self, scheme: str, config: object = None) -> int:
        """Register one blocking run; returns its ``run_id``."""
        with self._connection:
            cursor = self._connection.execute(
                "INSERT INTO blocking_runs (scheme, config, created_at) "
                "VALUES (?, ?, ?)",
                (scheme, json.dumps(config, sort_keys=True), time.time()),
            )
        _DISK_RUNS.inc()
        return cursor.lastrowid

    def run_info(self, run_id: int) -> dict:
        """Scheme and config of a run (raises ``KeyError`` if unknown)."""
        row = self._connection.execute(
            "SELECT scheme, config FROM blocking_runs WHERE run_id = ?",
            (run_id,),
        ).fetchone()
        if row is None:
            raise KeyError(f"no blocking run {run_id}")
        return {"scheme": row[0], "config": json.loads(row[1])}

    def drop_run(self, run_id: int) -> None:
        """Delete a run's key and catalog rows (and any signature rows
        an older version of the store wrote)."""
        with self._connection:
            self._connection.execute(
                "DELETE FROM blocking_keys WHERE run_id = ?", (run_id,)
            )
            self._connection.execute(
                "DELETE FROM blocking_signatures WHERE run_id = ?", (run_id,)
            )
            self._connection.execute(
                "DELETE FROM blocking_runs WHERE run_id = ?", (run_id,)
            )

    # -- spilling ---------------------------------------------------------------

    def spill_keys(
        self, run_id: int, rows: Iterable[tuple[str, str]]
    ) -> int:
        """Append ``(block_key, record_id)`` rows in bounded batches.

        ``rows`` may be any iterable — a generator over a record stream
        never materializes more than one insert batch in memory.
        Returns the number of rows written.
        """
        total = 0
        iterator = iter(rows)
        while True:
            batch = list(islice(iterator, self.chunk_size))
            if not batch:
                break
            with self._connection:
                self._connection.executemany(
                    "INSERT INTO blocking_keys (run_id, block_key, record_id) "
                    "VALUES (?, ?, ?)",
                    ((run_id, key, record_id) for key, record_id in batch),
                )
            total += len(batch)
        _ROWS_SPILLED.inc(total)
        return total

    def key_count(self, run_id: int) -> int:
        """Number of membership rows spilled for a run."""
        return self._connection.execute(
            "SELECT COUNT(*) FROM blocking_keys WHERE run_id = ?", (run_id,)
        ).fetchone()[0]

    def block_count(self, run_id: int) -> int:
        """Number of distinct block keys of a run."""
        return self._connection.execute(
            "SELECT COUNT(DISTINCT block_key) FROM blocking_keys "
            "WHERE run_id = ?",
            (run_id,),
        ).fetchone()[0]

    # -- the pushed-down joins ---------------------------------------------------

    def purge_stats(
        self, run_id: int, max_block_size: int | None
    ) -> tuple[int, int]:
        """``(blocks, memberships)`` the purge filter will drop."""
        if max_block_size is None:
            return (0, 0)
        blocks, records = self._connection.execute(
            "SELECT COUNT(*), COALESCE(SUM(n), 0) FROM ("
            "    SELECT COUNT(*) AS n FROM blocking_keys"
            "    WHERE run_id = ? GROUP BY block_key HAVING COUNT(*) > ?)",
            (run_id, max_block_size),
        ).fetchone()
        return (blocks, records)

    def iter_candidate_chunks(
        self,
        run_id: int,
        *,
        max_block_size: int | None = None,
        window: int | None = None,
        chunk_size: int | None = None,
    ) -> Iterator[list[Pair]]:
        """Stream a run's candidate pairs in bounded, sorted chunks.

        With ``window`` set the sorted-neighborhood window join runs
        (``max_block_size`` must then be ``None``); otherwise the
        equi-self-join with the optional oversized-block purge filter.
        Each yielded chunk is a sorted list of canonical pairs of at
        most ``chunk_size`` elements — the bounded-memory contract.
        """
        if window is not None:
            if window < 2:
                raise ValueError(f"window must be at least 2, got {window}")
            if max_block_size is not None:
                raise ValueError(
                    "window joins have no block purge; pass max_block_size=None"
                )
            query = _WINDOW_JOIN
            parameters: dict[str, object] = {"run_id": run_id, "window": window}
        else:
            purge_filter = "" if max_block_size is None else _PURGE_FILTER
            query = _EQUI_JOIN.format(purge_filter=purge_filter)
            parameters = {"run_id": run_id}
            if max_block_size is not None:
                parameters["max_block_size"] = max_block_size
        size = chunk_size or self.chunk_size
        cursor = self._connection.execute(query, parameters)
        try:
            while True:
                chunk = cursor.fetchmany(size)
                if not chunk:
                    break
                _CHUNKS_STREAMED.inc()
                yield [(first, second) for first, second in chunk]
        finally:
            cursor.close()

    def candidates(
        self,
        run_id: int,
        *,
        max_block_size: int | None = None,
        window: int | None = None,
    ) -> set[Pair]:
        """A run's full candidate set (chunks folded into one set)."""
        result: set[Pair] = set()
        for chunk in self.iter_candidate_chunks(
            run_id, max_block_size=max_block_size, window=window
        ):
            result.update(chunk)
        return result


class SqliteMembership:
    """One run of a :class:`DiskBlockingStore` as an index membership
    backend (operations: see
    :class:`~repro.streaming.delta_blocking.DictMembership`).

    Arrival order is the rowid-aliased ``entry_id``.  Appends stay in
    the open transaction until ``commit``: one ingest costs one indexed
    ``SELECT`` per touched key, one ``INSERT`` per membership and one
    commit.  Candidate chunks are sorted, distinct, ``chunk_size`` long.
    """

    def __init__(self, store: DiskBlockingStore, run_id: int) -> None:
        self.store = store
        self.run_id = run_id
        self.extend = partial(store.spill_keys, run_id)
        self.commit = store.connection.commit
        self.block_count = partial(store.block_count, run_id)
        self.purge_stats = partial(store.purge_stats, run_id)
        self.candidate_chunks = partial(store.iter_candidate_chunks, run_id)

    def members(self, key: str) -> list[str]:
        return [
            record_id
            for (record_id,) in self.store.connection.execute(
                "SELECT record_id FROM blocking_keys "
                "WHERE run_id = ? AND block_key = ? ORDER BY entry_id",
                (self.run_id, key),
            )
        ]

    def append(self, key: str, record_id: str) -> None:
        self.store.connection.execute(
            "INSERT INTO blocking_keys (run_id, block_key, record_id) "
            "VALUES (?, ?, ?)",
            (self.run_id, key, record_id),
        )

    def remove(self, memberships: Sequence[tuple[str, str]]) -> None:
        # a record ingests at most once, so (block_key, record_id)
        # identifies exactly the rows its ingest added
        with self.store.connection as connection:
            connection.executemany(
                "DELETE FROM blocking_keys "
                "WHERE run_id = ? AND block_key = ? AND record_id = ?",
                ((self.run_id, key, rid) for key, rid in memberships),
            )

    def items(self) -> list[tuple[str, str]]:
        return self.store.connection.execute(
            "SELECT block_key, record_id FROM blocking_keys "
            "WHERE run_id = ? ORDER BY block_key, record_id",
            (self.run_id,),
        ).fetchall()
