"""Disk-backed, SQL-pushdown blocking for larger-than-memory corpora.

The SQLite membership backend of the one blocking index
(:class:`~repro.streaming.delta_blocking.IncrementalBlockingIndex`):
block keys and LSH band buckets live in indexed SQLite tables, and
candidate pairs come from SQL self-joins and window functions, streamed
back in bounded chunks — candidate sets are identical to the dict
backend, but Python memory stays O(chunk) instead of O(memberships).
Flip a :class:`~repro.matching.pipeline.MatchingPipeline` onto this
path with ``blocking_storage="disk"`` (an execution knob: never part of
the config fingerprint), or a streaming session via the
``"blocking_storage"`` config key.
"""

from repro.blocking_disk.blockers import (
    disk_candidates,
    disk_lsh_blocking,
    disk_sorted_neighborhood,
    disk_standard_blocking,
    disk_token_blocking,
)
from repro.blocking_disk.incremental import DiskBlockingIndex
from repro.blocking_disk.store import (
    BLOCKING_SCHEMA,
    DEFAULT_CHUNK_SIZE,
    DiskBlockingStore,
    SqliteMembership,
)

__all__ = [
    "BLOCKING_SCHEMA",
    "DEFAULT_CHUNK_SIZE",
    "DiskBlockingIndex",
    "DiskBlockingStore",
    "SqliteMembership",
    "disk_candidates",
    "disk_lsh_blocking",
    "disk_sorted_neighborhood",
    "disk_standard_blocking",
    "disk_token_blocking",
]
