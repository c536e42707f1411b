"""The blocking index on the SQLite backend.

:class:`DiskBlockingIndex` is an
:class:`~repro.streaming.delta_blocking.IncrementalBlockingIndex` whose
block membership lives in :class:`~repro.blocking_disk.store.DiskBlockingStore`
rows instead of a Python dict; everything else is the index's own.
Only the per-record id set stays in Python memory (O(records) strings,
for the duplicate-ingest guard); the O(memberships) block state is on
disk.
"""

from __future__ import annotations

from repro.blocking_disk.store import DiskBlockingStore, SqliteMembership
from repro.matching.blocking import KeyEmitter
from repro.streaming.delta_blocking import IncrementalBlockingIndex

__all__ = ["DiskBlockingIndex"]


class DiskBlockingIndex(IncrementalBlockingIndex):
    """SQLite-backed blocking index.

    ``store`` holds the membership rows; ``None`` (default) creates a
    private scratch database, removed when the index is closed or
    garbage-collected.  ``scheme`` and ``config`` are what the store's
    run catalog records for this index's run.
    """

    def __init__(
        self,
        keys_for: KeyEmitter,
        max_block_size: int | None = None,
        store: DiskBlockingStore | None = None,
        *,
        scheme: str = "incremental",
        config: object = None,
    ) -> None:
        self._owns_store = store is None
        store = store or DiskBlockingStore()
        run_id = store.begin_run(scheme, {} if config is None else config)
        super().__init__(
            keys_for, max_block_size, backend=SqliteMembership(store, run_id)
        )

    def close(self) -> None:
        """Release a privately-owned scratch store."""
        if self._owns_store:
            self._backend.store.close()
