"""Tests for the SQLite-backed store (Appendix A.3)."""

import logging
import sqlite3

import pytest

from repro.core import Experiment, Match
from repro.storage.database import FrostStore, StorageError


@pytest.fixture
def store():
    with FrostStore() as store:
        yield store


class TestDatasets:
    def test_round_trip(self, store, people_dataset):
        store.save_dataset(people_dataset)
        loaded = store.load_dataset("people")
        assert loaded.record_ids == people_dataset.record_ids
        assert loaded.attributes == people_dataset.attributes
        assert loaded["p3"].value("first") == "mary"
        assert loaded["p3"].value("zip") is None

    def test_numeric_ids_preserved_by_order(self, store, people_dataset):
        store.save_dataset(people_dataset)
        loaded = store.load_dataset("people")
        for record_id in people_dataset.record_ids:
            assert loaded.numeric_id(record_id) == people_dataset.numeric_id(
                record_id
            )

    def test_duplicate_name_rejected(self, store, people_dataset):
        store.save_dataset(people_dataset)
        with pytest.raises(StorageError, match="already stored"):
            store.save_dataset(people_dataset)

    def test_unknown_dataset(self, store):
        with pytest.raises(StorageError, match="no dataset"):
            store.load_dataset("nope")

    def test_dataset_names(self, store, people_dataset):
        assert store.dataset_names() == []
        store.save_dataset(people_dataset)
        assert store.dataset_names() == ["people"]


class TestExperiments:
    def test_round_trip(self, store, people_dataset, people_experiment):
        store.save_dataset(people_dataset)
        store.save_experiment("people", people_experiment)
        loaded = store.load_experiment("people", "people-run")
        assert loaded.pairs() == people_experiment.pairs()
        assert loaded.score_of("p1", "p2") == 0.95
        assert loaded.solution == "test-solution"

    def test_from_clustering_flag_survives(self, store, people_dataset):
        store.save_dataset(people_dataset)
        experiment = Experiment(
            [Match(pair=("p1", "p2"), score=0.9),
             Match(pair=("p1", "p3"), from_clustering=True)],
            name="flagged",
        )
        store.save_experiment("people", experiment)
        loaded = store.load_experiment("people", "flagged")
        assert loaded.original_pairs() == {("p1", "p2")}

    def test_metadata_round_trip(self, store, people_dataset):
        store.save_dataset(people_dataset)
        experiment = Experiment(
            [("p1", "p2")], name="meta", metadata={"threshold": 0.8}
        )
        store.save_experiment("people", experiment)
        assert store.load_experiment("people", "meta").metadata == {
            "threshold": 0.8
        }

    def test_unknown_record_rejected(self, store, people_dataset):
        store.save_dataset(people_dataset)
        bad = Experiment([("p1", "ghost")], name="bad")
        with pytest.raises(StorageError, match="unknown"):
            store.save_experiment("people", bad)

    def test_duplicate_name_rejected(self, store, people_dataset, people_experiment):
        store.save_dataset(people_dataset)
        store.save_experiment("people", people_experiment)
        with pytest.raises(StorageError, match="already stored"):
            store.save_experiment("people", people_experiment)

    def test_delete(self, store, people_dataset, people_experiment):
        store.save_dataset(people_dataset)
        store.save_experiment("people", people_experiment)
        store.delete_experiment("people", "people-run")
        assert store.experiment_names("people") == []
        with pytest.raises(StorageError, match="no experiment"):
            store.load_experiment("people", "people-run")

    def test_delete_unknown(self, store, people_dataset):
        store.save_dataset(people_dataset)
        with pytest.raises(StorageError, match="no experiment"):
            store.delete_experiment("people", "ghost")


class TestGoldStandards:
    def test_round_trip(self, store, people_dataset, people_gold):
        store.save_dataset(people_dataset)
        store.save_gold_standard("people", people_gold)
        loaded = store.load_gold_standard("people", "people-gold")
        assert loaded.pairs() == people_gold.pairs()

    def test_names(self, store, people_dataset, people_gold):
        store.save_dataset(people_dataset)
        store.save_gold_standard("people", people_gold)
        assert store.gold_standard_names("people") == ["people-gold"]

    def test_unknown_record_rejected(self, store, people_dataset):
        from repro.core import GoldStandard

        store.save_dataset(people_dataset)
        bad = GoldStandard.from_pairs([("p1", "ghost")], name="bad")
        with pytest.raises(StorageError, match="unknown record"):
            store.save_gold_standard("people", bad)


class TestResultCache:
    @pytest.mark.parametrize(
        "torn",
        ['{"f1": 0.5', "", "not json", b"\xc3\x28"],
        ids=["truncated", "empty", "garbage", "invalid-utf8"],
    )
    def test_undecodable_payload_is_a_miss(self, tmp_path, caplog, torn):
        """A row that no longer decodes is a miss with a warning, and the
        next put overwrites it."""
        path = tmp_path / "cache.db"
        with FrostStore(path) as store:
            store.cache_put("k", "metrics", {"f1": 0.5})
        with sqlite3.connect(path) as raw:
            raw.execute(
                "UPDATE result_cache SET payload = ? WHERE cache_key = 'k'",
                (torn,),
            )
        with FrostStore(path) as store, caplog.at_level(
            logging.WARNING, logger="repro.storage.database"
        ):
            assert store.cache_get("k") is None
            assert any("does not decode" in m for m in caplog.messages)
            store.cache_put("k", "metrics", {"f1": 0.75})
            assert store.cache_get("k") == {"f1": 0.75}

    def test_absent_key_is_a_quiet_miss(self, store, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.storage.database"):
            assert store.cache_get("never-stored") is None
        assert not caplog.messages


class TestPersistence:
    def test_survives_reopen(self, tmp_path, people_dataset, people_experiment):
        path = tmp_path / "frost.db"
        with FrostStore(path) as store:
            store.save_dataset(people_dataset)
            store.save_experiment("people", people_experiment)
        with FrostStore(path) as reopened:
            assert reopened.dataset_names() == ["people"]
            loaded = reopened.load_experiment("people", "people-run")
            assert loaded.pairs() == people_experiment.pairs()


_TELEMETRY_TABLES = (
    "telemetry_trajectories", "telemetry_profiles", "telemetry_metrics",
    "telemetry_spans", "telemetry_runs",
)


class TestBlockingSchemaMigration:
    def _seed_pre_blocking_store(self, path, people_dataset) -> None:
        """A store file as a PR-7-era process left it: datasets saved,
        no blocking or telemetry tables, user_version 2."""
        import sqlite3

        with FrostStore(path) as store:
            store.save_dataset(people_dataset)
        connection = sqlite3.connect(path)
        with connection:
            for table in (
                "blocking_signatures", "blocking_keys", "blocking_runs",
                *_TELEMETRY_TABLES,
            ):
                connection.execute(f"DROP TABLE {table}")
            connection.execute("PRAGMA user_version = 2")
        connection.close()

    def test_v2_store_migrates_in_place(self, tmp_path, people_dataset):
        from repro.storage.database import SCHEMA_VERSION

        path = str(tmp_path / "old.db")
        self._seed_pre_blocking_store(path, people_dataset)
        with FrostStore(path) as store:
            assert store.schema_version == SCHEMA_VERSION == 4
            # existing rows survive and the new tables work
            assert store.dataset_names() == ["people"]
            blocking = store.blocking_store()
            run_id = blocking.begin_run("standard_blocking", {})
            blocking.spill_keys(run_id, [("k", "p1"), ("k", "p2")])
            assert blocking.candidates(run_id) == {("p1", "p2")}
        # the stamp survives the reopen
        with FrostStore(path) as store:
            assert store.schema_version == SCHEMA_VERSION


class TestTelemetrySchemaMigration:
    def _seed_v3_store(self, path, people_dataset) -> None:
        """A store file as a PR-9-era process left it: datasets and
        blocking tables present, no telemetry tables, user_version 3."""
        import sqlite3

        with FrostStore(path) as store:
            store.save_dataset(people_dataset)
        connection = sqlite3.connect(path)
        with connection:
            for table in _TELEMETRY_TABLES:
                connection.execute(f"DROP TABLE {table}")
            connection.execute("PRAGMA user_version = 3")
        connection.close()

    def test_v3_store_migrates_to_v4_in_place(self, tmp_path, people_dataset):
        from repro.storage.database import SCHEMA_VERSION
        from repro.telemetry.spans import Tracer

        path = str(tmp_path / "pr9.db")
        self._seed_v3_store(path, people_dataset)
        with FrostStore(path) as store:
            assert store.schema_version == SCHEMA_VERSION == 4
            assert store.dataset_names() == ["people"]
            # the migrated telemetry tables round-trip a trace
            tracer = Tracer(enabled=True)
            with tracer.span("migration.check"):
                pass
            warehouse = store.telemetry_store()
            run_id = warehouse.record_run("migrated", tracer.roots())
            spans = warehouse.run_spans(run_id)
            assert [span.name for span in spans] == ["migration.check"]
        with FrostStore(path) as store:
            assert store.schema_version == SCHEMA_VERSION

    def test_newer_schema_version_refused(self, tmp_path):
        import sqlite3

        path = str(tmp_path / "future.db")
        FrostStore(path).close()
        connection = sqlite3.connect(path)
        with connection:
            connection.execute("PRAGMA user_version = 99")
        connection.close()
        with pytest.raises(StorageError, match="newer"):
            FrostStore(path)
