"""Disk-executed counterparts of the batch blockers.

Each ``disk_*`` function is its in-memory twin on the SQLite backend:
the same key emitter feeds a
:class:`~repro.blocking_disk.incremental.DiskBlockingIndex`, whose
pushed-down join chunks fold into the identical candidate set.

:func:`disk_candidates` is the pipeline's ``blocking_storage="disk"``
path: generators exposing their key emitter (``keys_for`` plus
``max_block_size``: ``LshBlocking``, the streaming config's batch
blocker) and the bare :func:`~repro.matching.blocking.token_blocking`
run on disk.  Anything else returns ``None`` and the pipeline falls
back to the in-memory path (with a warning and a
``frost_blocking_disk_fallback_total`` tick), which is safe because the
knob never changes the candidate set.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.blocking_disk.incremental import DiskBlockingIndex
from repro.blocking_disk.store import DiskBlockingStore
from repro.core.pairs import Pair
from repro.core.records import Record
from repro.matching.blocking import (
    BlockingKey,
    KeyEmitter,
    single_key,
    token_blocking,
    token_keys,
)
from repro.matching.lsh import LshConfig, MinHasher

__all__ = [
    "disk_candidates",
    "disk_standard_blocking",
    "disk_token_blocking",
    "disk_sorted_neighborhood",
    "disk_lsh_blocking",
]


def _on_disk(
    scheme: str,
    config: object,
    keys_for: KeyEmitter,
    records: Iterable[Record],
    store: DiskBlockingStore | None = None,
    max_block_size: int | None = None,
    window: int | None = None,
) -> set[Pair]:
    """Feed ``records`` to a disk index, fold its candidate chunks."""
    index = DiskBlockingIndex(
        keys_for, max_block_size, store, scheme=scheme, config=config
    )
    try:
        return index.block(records, f"disk:{scheme}", window)
    finally:
        index.close()


def disk_candidates(
    generator: object, dataset: Iterable[Record]
) -> set[Pair] | None:
    """Run a pipeline candidate generator through the disk path, if it
    exposes its key emitter; ``None`` signals the caller to fall back
    in-memory."""
    if generator is token_blocking:
        return disk_token_blocking(dataset)
    keys_for = getattr(generator, "keys_for", None)
    if keys_for is None:
        return None
    [(scheme, config)] = generator.config_fingerprint().items()
    return _on_disk(
        scheme, config, keys_for, dataset,
        max_block_size=generator.max_block_size,
    )


def disk_standard_blocking(
    dataset: Iterable[Record],
    key: BlockingKey,
    store: DiskBlockingStore | None = None,
) -> set[Pair]:
    """Disk-executed :func:`~repro.matching.blocking.standard_blocking`."""
    return _on_disk("standard_blocking", {}, single_key(key), dataset, store)


def disk_token_blocking(
    dataset: Iterable[Record],
    attributes: Iterable[str] | None = None,
    min_token_length: int = 3,
    max_block_size: int | None = 200,
    store: DiskBlockingStore | None = None,
) -> set[Pair]:
    """Disk-executed :func:`~repro.matching.blocking.token_blocking`."""
    attributes = list(attributes) if attributes is not None else None
    config = dict(attributes=attributes, min_token_length=min_token_length,
                  max_block_size=max_block_size)
    return _on_disk(
        "token_blocking", config, token_keys(attributes, min_token_length),
        dataset, store, max_block_size=max_block_size,
    )


def disk_sorted_neighborhood(
    dataset: Iterable[Record],
    key: BlockingKey,
    window: int = 5,
    store: DiskBlockingStore | None = None,
) -> set[Pair]:
    """Disk-executed :func:`~repro.matching.blocking.sorted_neighborhood`
    (the ``ROW_NUMBER()`` window-function join)."""
    return _on_disk(
        "sorted_neighborhood", {"window": window},
        single_key(lambda record: key(record) or ""), dataset, store,
        window=window,
    )


def disk_lsh_blocking(
    dataset: Iterable[Record],
    config: LshConfig | None = None,
    store: DiskBlockingStore | None = None,
) -> set[Pair]:
    """Disk-executed :func:`~repro.matching.lsh.lsh_blocking` — band
    buckets spilled, the pair join pushed down."""
    config = config or LshConfig()
    return _on_disk(
        "lsh_blocking", config.as_dict(), MinHasher(config).keys_for,
        dataset, store, max_block_size=config.max_block_size,
    )
