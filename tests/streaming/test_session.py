"""Tests for streaming matching sessions: snapshots, equivalence, durability."""

import random

import pytest

from repro.core.records import Dataset, Record
from repro.matching.attribute_matching import compare_pairs
from repro.matching.pipeline import COLUMNAR_MIN_PAIRS
from repro.storage.database import FrostStore
from repro.streaming import (
    StreamError,
    build_pipeline_and_index,
    build_session,
    open_session,
    validate_config,
)
from repro.streaming.session import mean_similarity
from repro.telemetry.metrics import get_metrics

CONFIG = {
    "key": {"kind": "first_token", "attribute": "last"},
    "similarities": {
        "first": "jaro_winkler",
        "last": "jaro_winkler",
        "zip": "exact",
    },
    "threshold": 0.8,
}


def person(record_id, first, last, zip_code=None):
    return Record(record_id, {"first": first, "last": last, "zip": zip_code})


BATCH_ONE = [
    person("p1", "john", "smith", "12345"),
    person("p2", "jon", "smith", "12345"),
    person("p3", "mary", "jones", "99999"),
]
BATCH_TWO = [
    person("p4", "maria", "jones", "99999"),
    person("p5", "johnny", "smith", "12345"),
]


def crowd(prefix, count, seed):
    """Records crowded into three blocks, so deltas exceed the kernel gate."""
    rng = random.Random(seed)
    return [
        person(
            f"{prefix}{i}",
            rng.choice(["john", "jon", "johnny", "mary", "maria", "marie"]),
            rng.choice(["smith", "smyth", "jones"]),
            rng.choice(["12345", "99999", None]),
        )
        for i in range(count)
    ]


class TestIngest:
    def test_snapshots_are_versioned_with_lineage(self):
        session = build_session(CONFIG)
        first = session.ingest(BATCH_ONE)
        second = session.ingest(BATCH_TWO)
        assert (first.version, first.parent_version) == (1, None)
        assert (second.version, second.parent_version) == (2, 1)
        assert session.version == 2
        assert [s.version for s in session.snapshots] == [1, 2]

    def test_delta_work_only(self):
        """The second batch scores new-vs-{new,old} pairs, nothing else."""
        session = build_session(CONFIG)
        session.ingest(BATCH_ONE)
        snapshot = session.ingest(BATCH_TWO)
        # smith block: p5 against p1, p2; jones block: p4 against p3
        assert snapshot.delta_candidates == 3

    def test_clusters_maintained_across_batches(self):
        session = build_session(CONFIG)
        session.ingest(BATCH_ONE)
        session.ingest(BATCH_TWO)
        assert set(session.clusters().clusters) == {
            ("p1", "p2", "p5"),
            ("p3", "p4"),
        }

    def test_duplicate_record_across_batches_rejected(self):
        session = build_session(CONFIG)
        session.ingest(BATCH_ONE)
        with pytest.raises(StreamError, match="already ingested"):
            session.ingest([person("p1", "john", "smith")])
        assert session.version == 1  # failed batch leaves no snapshot

    def test_json_rows_are_coerced(self):
        session = build_session(CONFIG)
        snapshot = session.ingest(
            [
                {"id": "p1", "first": "john", "last": "smith"},
                {"id": "p2", "first": "jon", "last": "smith"},
            ]
        )
        assert snapshot.record_count == 2
        assert snapshot.accepted_matches == 1

    def test_status_and_experiment(self):
        session = build_session(CONFIG, name="crm")
        session.ingest(BATCH_ONE)
        status = session.status()
        assert status["name"] == "crm"
        assert status["records"] == 3
        assert status["durable"] is False
        experiment = session.experiment()
        assert experiment.solution == "streaming"
        assert {m.pair for m in experiment} == {("p1", "p2")}


class TestBatchEquivalence:
    def test_incremental_equals_full_recompute(self):
        """The acceptance property: after k ingests the clustering is
        identical to one batch run over the union of the records."""
        session = build_session(CONFIG)
        session.ingest(BATCH_ONE)
        session.ingest(BATCH_TWO)
        pipeline, _ = build_pipeline_and_index(CONFIG)
        full = pipeline.run(Dataset(BATCH_ONE + BATCH_TWO, name="union"))
        assert set(session.clusters().clusters) == set(
            full.experiment.clustering().clusters
        )

    def test_equivalence_is_batch_split_invariant(self):
        """Any partition of the stream into batches converges to the
        same clusters (delta blocking is exact for key-based schemes)."""
        records = BATCH_ONE + BATCH_TWO
        one_by_one = build_session(CONFIG)
        for record in records:
            one_by_one.ingest([record])
        all_at_once = build_session(CONFIG)
        all_at_once.ingest(records)
        assert set(one_by_one.clusters().clusters) == set(
            all_at_once.clusters().clusters
        )


class TestDurability:
    def test_resume_restores_full_state(self):
        store = FrostStore(":memory:")
        session = build_session(CONFIG, store=store, name="crm")
        session.ingest(BATCH_ONE)
        session.ingest(BATCH_TWO)

        resumed = open_session(store, "crm")
        assert resumed.version == 2
        assert resumed.record_count == 5
        assert set(resumed.clusters().clusters) == set(
            session.clusters().clusters
        )
        assert [s.as_dict() for s in resumed.snapshots] == [
            s.as_dict() for s in session.snapshots
        ]

    def test_resumed_session_keeps_ingesting(self):
        store = FrostStore(":memory:")
        build_session(CONFIG, store=store, name="crm").ingest(BATCH_ONE)
        resumed = open_session(store, "crm")
        snapshot = resumed.ingest(BATCH_TWO)
        assert snapshot.version == 2
        assert set(resumed.clusters().clusters) == {
            ("p1", "p2", "p5"),
            ("p3", "p4"),
        }
        # and the continuation itself is durable
        assert open_session(store, "crm").version == 2

    def test_stream_stored_with_retired_keys_resumes(self):
        """A stream row stored with the retired ``parallelism`` and
        ``columnar`` keys (what ``stream init`` wrote when it still took
        sharding and columnar flags) still resumes, and ingests exactly
        like a fresh session without the keys."""
        legacy = {
            **validate_config(CONFIG),
            "parallelism": {"workers": 4, "shards": 16, "min_pairs": 2048},
            "columnar": False,
        }
        store = FrostStore(":memory:")
        store.create_stream("crm", legacy)
        fresh = build_session(CONFIG)
        batches = [crowd("a", 30, seed=3), crowd("b", 30, seed=4)]
        for batch in batches:
            resumed = open_session(store, "crm")
            assert resumed.config["parallelism"]["workers"] == 4
            assert (
                resumed.ingest(batch).as_dict()
                == fresh.ingest(batch).as_dict()
            )
        resumed = open_session(store, "crm")
        assert resumed.version == 2
        assert set(resumed.clusters().clusters) == set(
            fresh.clusters().clusters
        )

    def test_duplicate_stream_name_rejected(self):
        store = FrostStore(":memory:")
        build_session(CONFIG, store=store, name="crm")
        with pytest.raises(StreamError, match="already exists"):
            build_session(CONFIG, store=store, name="crm")

    def test_failed_persist_rolls_the_session_back(self):
        """A store rejection (e.g. a concurrent writer took the version)
        must leave the live session exactly as before the batch."""
        store = FrostStore(":memory:")
        session = build_session(CONFIG, store=store, name="crm")
        session.ingest(BATCH_ONE)
        before = session.status()
        before_clusters = set(session.clusters().clusters)

        # another writer (a second live session on the same stream)
        # persists version 2 first
        shadow = open_session(store, "crm")
        shadow.ingest([person("x1", "kim", "lee")])

        from repro.storage.database import StorageError

        with pytest.raises(StorageError, match="collides"):
            session.ingest(BATCH_TWO)
        assert session.status() == before
        assert set(session.clusters().clusters) == before_clusters
        # the rolled-back records are ingestable again after a resync
        resynced = open_session(store, "crm")
        snapshot = resynced.ingest(BATCH_TWO)
        assert snapshot.version == 3

    def test_snapshot_lineage_persisted(self):
        store = FrostStore(":memory:")
        session = build_session(CONFIG, store=store, name="crm")
        session.ingest(BATCH_ONE)
        session.ingest(BATCH_TWO)
        lineage = store.stream_snapshot_lineage("crm")
        assert [row["version"] for row in lineage] == [1, 2]
        assert lineage[1]["parent_version"] == 1
        assert lineage[1]["record_count"] == 5


class TestConfigValidation:
    def test_unknown_key_kind(self):
        with pytest.raises(ValueError, match="key.kind"):
            validate_config({**CONFIG, "key": {"kind": "nope"}})

    def test_missing_attribute(self):
        with pytest.raises(ValueError, match="attribute"):
            validate_config({**CONFIG, "key": {"kind": "prefix"}})

    @pytest.mark.parametrize(
        "key",
        [
            {"kind": "first_token", "attribute": ["last"]},
            {"kind": "first_token", "attribute": ""},
            {"kind": "first_token", "attribute": "last",
             "max_block_size": "5"},
            {"kind": "first_token", "attribute": "last",
             "max_block_size": True},
            {"kind": "first_token", "attribute": "last", "max_block_size": 0},
            {"kind": "prefix", "attribute": "last", "length": 0},
            {"kind": "prefix", "attribute": "last", "length": 2.5},
            {"kind": "prefix", "attribute": "last", "length": True},
            {"kind": "token", "attributes": "last"},
            {"kind": "token", "attributes": []},
            {"kind": "token", "attributes": ["last", ""]},
            {"kind": "token", "min_token_length": 0},
            {"kind": "token", "min_token_length": "3"},
        ],
        ids=[
            "attribute-list", "attribute-empty", "cap-str", "cap-bool",
            "cap-zero", "length-zero", "length-float", "length-bool",
            "attributes-str", "attributes-empty", "attributes-blank-name",
            "min-length-zero", "min-length-str",
        ],
    )
    def test_malformed_key_fields_are_rejected(self, key):
        """Key configs come from request bodies: a malformed field is a
        ValueError (400), never a crash or a silently degenerate key."""
        from repro.core.platform import FrostPlatform
        from repro.server.api import ApiError, FrostApi

        with pytest.raises(ValueError, match="key"):
            validate_config({**CONFIG, "key": key})
        with pytest.raises(ApiError) as bad:
            FrostApi(FrostPlatform()).handle(
                "/streams", method="POST",
                body={"name": "x", "config": {**CONFIG, "key": key}},
            )
        assert bad.value.status == 400

    def test_valid_key_fields_normalize_unchanged(self):
        """The normalized key feeds config_fingerprint(): valid configs
        keep their exact form."""
        for key in (
            {"kind": "prefix", "attribute": "last", "length": 2,
             "max_block_size": None},
            {"kind": "token", "attributes": ["first", "last"],
             "min_token_length": 4, "max_block_size": 50},
            {"kind": "soundex", "attribute": "last", "max_block_size": 9},
        ):
            assert validate_config({**CONFIG, "key": key})["key"] == key

    def test_unknown_similarity(self):
        with pytest.raises(ValueError, match="unknown similarity"):
            validate_config({**CONFIG, "similarities": {"first": "nope"}})

    def test_unknown_preparer(self):
        with pytest.raises(ValueError, match="unknown preparer"):
            validate_config({**CONFIG, "preparers": ["nope"]})

    def test_token_config_builds(self):
        config = {
            "key": {"kind": "token", "attributes": ["last"],
                    "min_token_length": 3},
            "similarities": {"last": "jaro_winkler"},
            "threshold": 0.9,
        }
        session = build_session(config)
        snapshot = session.ingest(BATCH_ONE)
        assert snapshot.record_count == 3

    def test_retired_execution_keys_are_ignored(self):
        """Configs stored before comparison had one code path carry
        ``parallelism``/``columnar``; they validate to the same config."""
        legacy = {
            **CONFIG,
            "parallelism": {"workers": 4, "shards": 16, "min_pairs": 2048},
            "columnar": False,
        }
        assert validate_config(legacy) == validate_config(CONFIG)
        status = build_session(legacy).status()
        assert "columnar" not in status and "parallelism" not in status


def scalar_loop_matches(records, config=CONFIG):
    """Accepted pair -> score of the scalar compare_pairs loop over the
    batch pipeline's candidates of ``records``."""
    pipeline, _ = build_pipeline_and_index(config)
    prepared = pipeline.prepare(Dataset(records, name="all"))
    candidates = sorted(pipeline.generate_candidates(prepared))
    expected = {}
    for vector in compare_pairs(prepared, candidates, pipeline.comparator):
        score = mean_similarity(vector)
        if score >= pipeline.threshold:
            expected[vector.pair] = score
    return expected


def direct_matches(session):
    return {
        match.pair: match.score
        for match in session.experiment().matches
        if not match.from_clustering
    }


class TestDeltaScoring:
    def test_delta_scores_match_scalar_loop(self):
        """Delta batches run the columnar kernels; every accepted score
        equals the scalar compare_pairs loop over the batch candidates."""
        session = build_session(CONFIG)
        kernel_pairs = get_metrics().counter("frost_kernel_pairs_total")
        before = kernel_pairs.value
        batches = [crowd("a", 30, seed=1), crowd("b", 30, seed=2)]
        for batch in batches:
            snapshot = session.ingest(batch)
            assert snapshot.delta_candidates >= COLUMNAR_MIN_PAIRS
        assert kernel_pairs.value > before

        expected = scalar_loop_matches([r for batch in batches for r in batch])
        assert expected and direct_matches(session) == expected

    @pytest.mark.parametrize(
        "splits", [1, 2, 5, 12], ids=lambda n: f"{n}-batches"
    )
    def test_any_batch_split_scores_like_the_scalar_loop(self, splits):
        """Whether a delta clears the kernel gate or not — and with many
        small batches it alternates — the accepted scores equal the
        scalar loop's over the whole corpus."""
        records = crowd("r", 60, seed=5)
        size = -(-len(records) // splits)
        session = build_session(CONFIG)
        gated = {
            session.ingest(records[start:start + size]).delta_candidates
            >= COLUMNAR_MIN_PAIRS
            for start in range(0, len(records), size)
        }
        if splits == 12:
            assert gated == {True, False}  # both paths ran
        expected = scalar_loop_matches(records)
        assert expected and direct_matches(session) == expected

    def test_lsh_stream_scores_like_the_scalar_loop(self):
        """LSH delta candidates take the same comparison stage."""
        config = {
            **CONFIG,
            "key": {"kind": "lsh", "num_perm": 64, "bands": 16, "seed": 5},
        }
        records = crowd("l", 60, seed=6)
        session = build_session(config)
        kernel_pairs = get_metrics().counter("frost_kernel_pairs_total")
        before = kernel_pairs.value
        for start in range(0, len(records), 20):
            session.ingest(records[start:start + 20])
        assert kernel_pairs.value > before
        expected = scalar_loop_matches(records, config)
        assert expected and direct_matches(session) == expected
