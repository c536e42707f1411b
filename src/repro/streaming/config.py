"""JSON-configurable streaming sessions (shared by CLI and API).

A stream's matching behaviour is described by a plain JSON document so
that sessions can be created over the wire (``POST /streams``), from
CLI flags (``repro stream init``), and — crucially — *rebuilt* from the
store when a durable session is resumed.  Schema::

    {
      "key": {                      # delta blocking scheme
        "kind": "first_token" | "prefix" | "soundex" | "token" | "lsh",
        "attribute": "name",        # key-based kinds
        "length": 3,                # prefix only
        "attributes": ["name"],     # token + lsh (optional: all)
        "min_token_length": 3,      # token + lsh
        "num_perm": 128,            # lsh only: signature length
        "bands": 32,                # lsh only: bands (rows derived)
        "seed": 1,                  # lsh only: permutation seed
        "shingle_size": 3,          # lsh only: null = word tokens
        "max_block_size": null      # optional emission cap
      },
      "similarities": {"name": "jaro_winkler", "zip": "exact"},
      "threshold": 0.6,
      "preparers": ["normalize_whitespace"],
      "blocking_storage": "disk",     # optional: "memory" (default) or
                                      # "disk" — SQLite-backed blocking
                                      # (identical candidates, bounded
                                      # Python memory)
      "graph": true                   # optional: maintain a persisted
    }                                 # match graph (durable streams)

The same config also yields the *batch-equivalent* pipeline (via
``candidate_generator``), which the benchmarks use to verify that the
incremental clustering matches a full recompute.  The equivalence is
exact only while ``key.max_block_size`` is unset: a cap makes the
incremental index stop *emitting* once a block fills up (an
order-dependent effect no batch blocker reproduces — token blocking
purges oversized blocks retroactively, standard blocking has no cap at
all), so capped streams trade exactness for bounded ingest cost.

The ``"lsh"`` kind selects approximate MinHash-LSH blocking
(:mod:`repro.matching.lsh`): band buckets act as block keys, and —
banding being append-only — the delta/batch equivalence holds exactly
like for the key-based schemes.  Windowed schemes (sorted neighborhood)
are rejected with an explicit error: their candidates depend on the
global sort order, so no append-only delta decomposition exists.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.matching.attribute_matching import AttributeComparator
from repro.matching.blocking import (
    first_token_key,
    prefix_key,
    single_key,
    soundex_key,
    token_keys,
)
from repro.matching.lsh import LshBlocking, LshConfig, MinHasher
from repro.matching.pipeline import (
    MatchingPipeline,
    lowercase_values,
    normalize_whitespace,
)
from repro.matching.similarity import SIMILARITY_FUNCTIONS
from repro.streaming.delta_blocking import IncrementalBlockingIndex
from repro.streaming.session import StreamingMatcher, mean_similarity

__all__ = [
    "build_pipeline_and_index",
    "build_session",
    "candidate_generator_from_key",
    "delta_index_from_key",
    "open_session",
    "validate_config",
    "validate_key_config",
]

PREPARERS = {
    "normalize_whitespace": normalize_whitespace,
    "lowercase_values": lowercase_values,
}

_KEY_KINDS = ("first_token", "prefix", "soundex", "token", "lsh")

# Recognized batch blockers that have no append-only delta model:
# windowed candidates depend on the global sort order, so ingesting a
# record can both add and remove pairs.  Named here so the error says
# *why* instead of pretending the scheme does not exist.
_WINDOWED_KINDS = ("sorted_neighborhood",)


def _lsh_config(key: Mapping[str, object]) -> LshConfig:
    """Parse the lsh fields of a key config (everything but ``kind``)."""
    return LshConfig.from_dict(
        {name: value for name, value in key.items() if name != "kind"}
    )


def validate_key_config(key: object) -> dict[str, object]:
    """Normalize and validate a delta blocking scheme; raises ``ValueError``.

    Windowed schemes are rejected with an explicit explanation — they
    are real batch blockers, just unusable in delta mode — while truly
    unknown kinds get the list of supported ones.
    """
    if not isinstance(key, Mapping) or not key.get("kind"):
        kinds = ", ".join(_KEY_KINDS)
        raise ValueError(f"config.key.kind must be one of: {kinds}")
    kind = key["kind"]
    if kind in _WINDOWED_KINDS:
        raise ValueError(
            f"blocker {kind!r} cannot run in delta mode: its windowed "
            "candidates depend on the global sort order, so a new record "
            "can both add and remove pairs — no append-only delta "
            f"decomposition exists; use one of: {', '.join(_KEY_KINDS)}"
        )
    if kind not in _KEY_KINDS:
        kinds = ", ".join(_KEY_KINDS)
        raise ValueError(f"config.key.kind must be one of: {kinds}")
    if kind == "lsh":
        return {"kind": "lsh", **_lsh_config(key).as_dict()}
    if kind != "token" and not key.get("attribute"):
        raise ValueError(f"key kind {kind!r} needs an 'attribute'")
    for name, (valid, expected) in _KEY_FIELDS.items():
        if name in key and not valid(key[name]):
            raise ValueError(
                f"config.key.{name} must be {expected}, got {key[name]!r}"
            )
    return dict(key)


def _positive_int(value: object) -> bool:
    return (
        isinstance(value, int) and not isinstance(value, bool) and value >= 1
    )


# Fields of the key-based kinds: (check, what a valid value is).  Key
# configs arrive from request bodies, so a bad field is a ValueError
# (the API's 400), never a TypeError or a silently degenerate key.
_KEY_FIELDS = {
    "attribute": (lambda v: isinstance(v, str) and v, "a non-empty string"),
    "length": (_positive_int, "an integer >= 1"),
    "min_token_length": (_positive_int, "an integer >= 1"),
    "attributes": (
        lambda v: v is None or isinstance(v, (list, tuple)) and v and all(
            isinstance(name, str) and name for name in v
        ),
        "a non-empty list of attribute names",
    ),
    "max_block_size": (
        lambda v: v is None or _positive_int(v), "null or an integer >= 1"
    ),
}


def validate_config(config: Mapping[str, object]) -> dict[str, object]:
    """Normalize and validate a stream config; raises ``ValueError``."""
    if not isinstance(config, Mapping):
        raise ValueError("stream config must be a JSON object")
    key = validate_key_config(config.get("key"))
    similarities = config.get("similarities")
    if not isinstance(similarities, Mapping) or not similarities:
        raise ValueError("config.similarities must map attributes to measures")
    for attribute, measure in similarities.items():
        if measure not in SIMILARITY_FUNCTIONS:
            known = ", ".join(sorted(SIMILARITY_FUNCTIONS))
            raise ValueError(
                f"unknown similarity {measure!r} for {attribute!r}; "
                f"known: {known}"
            )
    threshold = float(config.get("threshold", 0.5))
    preparers = config.get("preparers", ["normalize_whitespace"])
    if not isinstance(preparers, (list, tuple)):
        raise ValueError("config.preparers must be a list of names")
    for name in preparers:
        if name not in PREPARERS:
            known = ", ".join(sorted(PREPARERS))
            raise ValueError(f"unknown preparer {name!r}; known: {known}")
    normalized = {
        "key": dict(key),
        "similarities": dict(similarities),
        "threshold": threshold,
        "preparers": list(preparers),
    }
    blocking_storage = config.get("blocking_storage", "memory")
    if blocking_storage not in ("memory", "disk"):
        raise ValueError(
            "config.blocking_storage must be 'memory' or 'disk', "
            f"got {blocking_storage!r}"
        )
    if "blocking_storage" in config:
        normalized["blocking_storage"] = blocking_storage
    graph = config.get("graph", False)
    if not isinstance(graph, bool):
        raise ValueError("config.graph must be a boolean")
    if graph:
        normalized["graph"] = True
    return normalized


def _key_emitter(key: Mapping[str, object]):
    """The block-key emitter of a pre-validated key config."""
    kind = key["kind"]
    if kind == "lsh":
        return MinHasher(_lsh_config(key)).keys_for
    if kind == "token":
        return token_keys(
            key.get("attributes"), key.get("min_token_length", 3)
        )
    if kind == "prefix":
        return single_key(prefix_key(key["attribute"], key.get("length", 3)))
    by_kind = {"first_token": first_token_key, "soundex": soundex_key}
    return single_key(by_kind[kind](key["attribute"]))


class _BatchBlocking:
    """Batch candidate generator equivalent to a stream's delta blocking.

    A named class (not a lambda) keeps pipelines built from configs
    content-fingerprintable by the engine.  Equivalent *without* a
    ``max_block_size`` cap — see the module docstring for why a capped
    stream has no exact batch counterpart.  Exposes its key emitter
    (``keys_for``) and batch purge (``max_block_size``), which is what
    lets ``blocking_storage="disk"`` run it on the SQLite backend.
    """

    def __init__(self, key_config: Mapping[str, object]) -> None:
        self._config = dict(key_config)
        self.keys_for = _key_emitter(self._config)
        # only token blocking purges; standard blocking has no cap
        token = self._config["kind"] == "token"
        self._scheme = "token_blocking" if token else "standard_blocking"
        self.max_block_size = (
            self._config.get("max_block_size") if token else None
        )

    def __call__(self, dataset):
        index = IncrementalBlockingIndex(self.keys_for, self.max_block_size)
        return index.block(dataset, self._scheme)

    def config_fingerprint(self) -> dict[str, object]:
        """Content token for the engine's cache keys."""
        return {"batch_blocking": self._config}


def candidate_generator_from_key(key: object):
    """The *batch* candidate generator described by a key config.

    The blocker-selection entry point shared by stream configs, the
    engine's pipeline-job ``blocker`` param, and the benchmarks.  The
    returned object carries a ``config_fingerprint``, so pipelines
    built from different blocker configs content-address to different
    cache keys.
    """
    return _candidate_generator(validate_key_config(key))


def _candidate_generator(key: Mapping[str, object]):
    """:func:`candidate_generator_from_key` for pre-validated keys."""
    if key["kind"] == "lsh":
        return LshBlocking(_lsh_config(key))
    return _BatchBlocking(key)


def delta_index_from_key(
    key: object, storage: str = "memory"
) -> IncrementalBlockingIndex:
    """A fresh incremental delta index for a key config.

    ``storage="disk"`` returns a
    :class:`~repro.blocking_disk.incremental.DiskBlockingIndex` whose
    block membership lives in a scratch SQLite database — identical
    ingest/retract/restore semantics, bounded Python memory.
    """
    return _delta_index(validate_key_config(key), storage)


def _delta_index(
    key: Mapping[str, object], storage: str = "memory"
) -> IncrementalBlockingIndex:
    """:func:`delta_index_from_key` for pre-validated keys."""
    index_type = IncrementalBlockingIndex
    if storage == "disk":
        from repro.blocking_disk.incremental import DiskBlockingIndex

        index_type = DiskBlockingIndex
    return index_type(_key_emitter(key), key.get("max_block_size"))


def build_pipeline_and_index(
    config: Mapping[str, object],
) -> tuple[MatchingPipeline, IncrementalBlockingIndex]:
    """The pipeline + fresh delta index described by ``config``."""
    return _build_pipeline_and_index(validate_config(config))


def _build_pipeline_and_index(
    config: Mapping[str, object],
) -> tuple[MatchingPipeline, IncrementalBlockingIndex]:
    """:func:`build_pipeline_and_index` for pre-validated configs."""
    key = config["key"]
    storage = str(config.get("blocking_storage", "memory"))
    pipeline = MatchingPipeline(
        candidate_generator=_candidate_generator(key),
        comparator=AttributeComparator(config["similarities"]),
        decision_model=mean_similarity,
        threshold=config["threshold"],
        preparers=[PREPARERS[name] for name in config["preparers"]],
        clustering="connected_components",
        name="streaming-config",
        solution="streaming",
        blocking_storage=storage,
    )
    return pipeline, _delta_index(key, storage)


def build_session(
    config: Mapping[str, object], store=None, name: str = "stream"
) -> StreamingMatcher:
    """A new streaming session from a JSON config (durable iff ``store``)."""
    config = validate_config(config)
    pipeline, index = _build_pipeline_and_index(config)
    if config.get("graph") and store is None:
        raise ValueError(
            "config.graph requires a durable session (pass a store): the "
            "match graph lives in the store's adjacency tables"
        )
    session = StreamingMatcher(
        pipeline, index, store=store, name=name, config=config
    )
    if config.get("graph"):
        from repro.graph.build import GraphUpdater

        session.attach_graph(
            GraphUpdater.create(store, name, pipeline.threshold)
        )
    return session


def open_session(store, name: str) -> StreamingMatcher:
    """Resume the durable session ``name`` from ``store``."""
    return StreamingMatcher.resume(store, name)
