"""Blocking as one incremental index: delta ingest and batch candidates.

An :class:`IncrementalBlockingIndex` keeps block membership alive
between ingests and, for a batch of new records, emits only the
*delta* candidate pairs — the new-vs-existing and new-vs-new pairs
inside each block.  For key-based blocking schemes this decomposition
is exact: the union of the deltas over all ingests equals the batch
candidate set over the union of the records, which is what makes
incremental clustering maintenance (:mod:`repro.streaming.session`)
equivalent to a full recompute.

Every batch blocker is the same index fed one batch
(:meth:`IncrementalBlockingIndex.block`): add the records, then join
them — an equi-join over block members with the retroactive
``max_block_size`` purge, or the sorted-neighborhood window join.
Membership lives in a backend: :class:`DictMembership` (the default)
or :class:`~repro.blocking_disk.store.SqliteMembership` (for corpora
larger than memory).

The same decomposition covers approximate blocking:
:class:`IncrementalLshIndex` treats a record's MinHash-LSH band buckets
(:mod:`repro.matching.lsh`) as its block keys — banding is append-only
(a new record joins buckets, never reshuffles them), so the exact
delta/batch equivalence holds for LSH too.

The sorted-neighborhood method runs only as a batch window join — its
windowed candidates depend on the global sort order, so a new record
can both add and remove pairs, breaking the append-only delta model.
:func:`repro.streaming.config` rejects it as a stream key with an
explicit error instead of silently misusing it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING

from repro.core.pairs import Pair, make_pair
from repro.core.records import Record
from repro.matching.blocking import (
    KeyEmitter,
    note_purged_blocks,
    single_key,
    token_keys,
)
from repro.matching.lsh import LshConfig, MinHasher

if TYPE_CHECKING:
    from repro.blocking_disk.store import SqliteMembership

__all__ = [
    "DeltaIngest",
    "DictMembership",
    "IncrementalBlockingIndex",
    "IncrementalLshIndex",
    "single_key",
    "token_keys",
]


@dataclass(frozen=True)
class DeltaIngest:
    """What one index ingest produced.

    ``pairs`` are the sorted delta candidate pairs; ``memberships`` the
    ``(block_key, record_id)`` rows this ingest added — exactly what a
    durable session must persist (and retract on a failed persist),
    without rescanning the whole index.
    """

    pairs: list[Pair]
    memberships: list[tuple[str, str]]
    record_ids: list[str]


class DictMembership:
    """Membership in a ``dict[str, list[str]]`` — the in-memory backend.

    A backend holds ``(block_key, record_id)`` rows: a key's
    ``members`` in arrival order, ``append``/``extend``/``commit``,
    ``remove`` the latest rows, sorted ``items``, ``block_count``,
    ``purge_stats`` and ``candidate_chunks`` (equi-join minus purged
    blocks, or the window join over ``(block_key, record_id)`` order).
    Here each block, or the whole window join, is one chunk.
    """

    def __init__(self) -> None:
        self._blocks: dict[str, list[str]] = {}

    def members(self, key: str) -> Sequence[str]:
        return self._blocks.get(key, ())

    def append(self, key: str, record_id: str) -> None:
        self._blocks.setdefault(key, []).append(record_id)

    def extend(self, rows: Iterable[tuple[str, str]]) -> None:
        blocks = self._blocks
        for key, record_id in rows:
            blocks.setdefault(key, []).append(record_id)

    def commit(self) -> None:
        """Nothing to flush: the dict is the membership."""

    def remove(self, memberships: Sequence[tuple[str, str]]) -> None:
        # appended last, so they normally sit at the tail of their lists
        for key, record_id in reversed(memberships):
            members = self._blocks.get(key)
            if members is None:
                continue
            if members[-1] == record_id:
                members.pop()
            else:
                members.remove(record_id)
            if not members:
                del self._blocks[key]

    def items(self) -> list[tuple[str, str]]:
        return sorted(
            (key, record_id)
            for key, members in self._blocks.items()
            for record_id in members
        )

    def block_count(self) -> int:
        return len(self._blocks)

    def purge_stats(self, max_block_size: int | None) -> tuple[int, int]:
        if max_block_size is None:
            return (0, 0)
        sizes = [
            len(members)
            for members in self._blocks.values()
            if len(members) > max_block_size
        ]
        return (len(sizes), sum(sizes))

    def candidate_chunks(
        self, *, max_block_size: int | None = None, window: int | None = None
    ) -> Iterator[list[Pair]]:
        if window is not None:
            ordered = [record_id for _, record_id in self.items()]
            yield [
                make_pair(record_id, other)
                for index, record_id in enumerate(ordered)
                for other in ordered[index + 1:index + window]
            ]
            return
        for key in sorted(self._blocks):
            members = self._blocks[key]
            if max_block_size is None or len(members) <= max_block_size:
                yield [make_pair(a, b) for a, b in combinations(members, 2)]


class IncrementalBlockingIndex:
    """Live block index that emits only delta candidate pairs on ingest.

    Parameters
    ----------
    keys_for:
        Maps a record to its block keys (see
        :func:`~repro.matching.blocking.single_key`,
        :func:`~repro.matching.blocking.token_keys` and
        :meth:`~repro.matching.lsh.MinHasher.keys_for`).
        A record may land in several blocks; the emitted pair set is
        deduplicated.
    max_block_size:
        Optional emission cap per block.  Once a block holds this many
        records, later arrivals still *join* the block but no longer
        emit pairs against it — the incremental analogue of batch block
        purging.  Note the semantics differ from the batch purge of
        :meth:`candidate_chunks`, which drops the entire oversized block
        retroactively; an incremental index cannot retract pairs it
        already emitted.
    backend:
        Where membership lives (default: a fresh :class:`DictMembership`).
    """

    def __init__(
        self,
        keys_for: KeyEmitter,
        max_block_size: int | None = None,
        backend: DictMembership | SqliteMembership | None = None,
    ) -> None:
        if max_block_size is not None and max_block_size < 1:
            raise ValueError(
                f"max_block_size must be positive, got {max_block_size}"
            )
        self._keys_for = keys_for
        self.max_block_size = max_block_size
        self._backend = DictMembership() if backend is None else backend
        self._records: set[str] = set()

    # -- queries ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, record_id: object) -> bool:
        return record_id in self._records

    @property
    def block_count(self) -> int:
        """Number of non-empty blocks currently indexed."""
        return self._backend.block_count()

    def block_items(self) -> list[tuple[str, str]]:
        """All ``(block_key, record_id)`` memberships, sorted (durable form)."""
        return self._backend.items()

    def candidate_chunks(
        self, scheme: str, window: int | None = None
    ) -> Iterator[list[Pair]]:
        """Batch candidates of everything indexed, in chunks.

        Without ``window``: every pair sharing a block, except in blocks
        over ``max_block_size`` (purged, reported under ``scheme``).
        With ``window``: each membership paired with its ``window - 1``
        successors in ``(block_key, record_id)`` order.
        """
        cap = self.max_block_size
        if window is not None:
            if window < 2:
                raise ValueError(f"window must be at least 2, got {window}")
            cap = None  # a window join has no blocks to purge
        note_purged_blocks(scheme, *self._backend.purge_stats(cap))
        return self._backend.candidate_chunks(
            max_block_size=cap, window=window
        )

    # -- mutation ---------------------------------------------------------------

    def _admit(self, record: Record) -> str:
        record_id = record.record_id
        if record_id in self._records:
            raise ValueError(f"record {record_id!r} is already indexed")
        self._records.add(record_id)
        return record_id

    def add(self, records: Iterable[Record]) -> None:
        """Index ``records`` without emitting pairs — the batch path.

        Callable once per corpus slice; :meth:`candidate_chunks` then
        joins everything added.
        """
        self._backend.extend(self._memberships(records))

    def _memberships(
        self, records: Iterable[Record]
    ) -> Iterator[tuple[str, str]]:
        for record in records:
            record_id = self._admit(record)
            for key in self._keys_for(record):
                yield key, record_id

    def block(
        self, records: Iterable[Record], scheme: str, window: int | None = None
    ) -> set[Pair]:
        """Batch blocking: :meth:`add` ``records``, then fold
        :meth:`candidate_chunks` into one set."""
        self.add(records)
        candidates: set[Pair] = set()
        for chunk in self.candidate_chunks(scheme, window):
            candidates.update(chunk)
        return candidates

    def ingest(self, records: Iterable[Record]) -> list[Pair]:
        """Index ``records`` and return the sorted delta candidate pairs.

        The delta contains every new-vs-existing and new-vs-new pair
        that shares a block key — exactly the candidates a batch blocker
        would add for these records.  Pairs are returned sorted so that
        downstream scoring is deterministic.
        """
        return self.ingest_delta(records).pairs

    def ingest_delta(self, records: Iterable[Record]) -> DeltaIngest:
        """Like :meth:`ingest`, also reporting the added memberships."""
        emitted: set[Pair] = set()
        memberships: list[tuple[str, str]] = []
        record_ids: list[str] = []
        backend = self._backend
        cap = self.max_block_size
        # committed once at the end, also on error: earlier rows of a
        # failed ingest stay (the session layer owns rollback, via
        # retract())
        try:
            for record in records:
                record_id = self._admit(record)
                record_ids.append(record_id)
                for key in self._keys_for(record):
                    members = backend.members(key)
                    if cap is None or len(members) < cap:
                        emitted.update(
                            make_pair(member, record_id) for member in members
                        )
                    backend.append(key, record_id)
                    memberships.append((key, record_id))
        finally:
            backend.commit()
        return DeltaIngest(
            pairs=sorted(emitted),
            memberships=memberships,
            record_ids=record_ids,
        )

    def retract(self, delta: DeltaIngest) -> None:
        """Undo one :meth:`ingest_delta` (used when durable persistence
        fails and the session must roll back to its pre-batch state).

        Only the *latest* ingest may be retracted — memberships were
        appended, so they sit at the tail of their blocks.
        """
        self._backend.remove(delta.memberships)
        self._records.difference_update(delta.record_ids)

    def restore(self, memberships: Iterable[tuple[str, str]]) -> None:
        """Rebuild the index from persisted ``(block_key, record_id)`` rows.

        Used when resuming a durable session; emits nothing.  Must be
        called on an empty index.
        """
        if self._records:
            raise ValueError("restore() requires an empty index")
        rows = list(memberships)
        self._backend.extend(rows)
        self._records.update(record_id for _, record_id in rows)


class IncrementalLshIndex(IncrementalBlockingIndex):
    """Approximate delta blocking over MinHash-LSH band buckets.

    Each ingested record is MinHashed (seeded, ``PYTHONHASHSEED``- and
    process-independent — see :mod:`repro.matching.lsh`) and joins one
    bucket per LSH band; the delta pairs are the new-vs-existing and
    new-vs-new pairs within those buckets.  Because banding is
    append-only, the union of the deltas over all ingests equals the
    batch :func:`~repro.matching.lsh.lsh_blocking` candidate set over
    the union of the records — the same exactness guarantee the
    key-based index gives, now for approximate blocking.

    The equivalence requires ``config.max_block_size`` to be unset: a
    cap makes this index stop *emitting* once a bucket fills up, while
    the batch blocker purges the oversized bucket retroactively (the
    usual capped-stream trade-off, see :mod:`repro.streaming.config`).

    Durable sessions persist the emitted ``(bucket_key, record_id)``
    memberships like any other block rows; :meth:`restore` rebuilds the
    bucket lists without re-hashing, so resuming does not depend on
    signatures being recomputed (though with the same ``config`` they
    would come out identical).
    """

    def __init__(self, config: LshConfig | None = None) -> None:
        self.config = config or LshConfig()
        hasher = MinHasher(self.config)
        super().__init__(
            hasher.keys_for, max_block_size=self.config.max_block_size
        )

    def config_fingerprint(self) -> dict[str, object]:
        """Content token mirroring the batch blocker's fingerprint."""
        return {"lsh_blocking": self.config.as_dict()}
